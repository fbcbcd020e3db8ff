"""README's configuration table and exit codes stay in step with the code."""
import re
from pathlib import Path

from lexner import errors
from lexner.cli import default_config

README = (Path(__file__).resolve().parents[1] / "README.md").read_text(encoding="utf-8")


def test_readme_lists_the_configuration_keys_and_exit_codes():
    table = README.split("### Configuration keys", 1)[1].split("\n\n")[1]
    documented = {key for row in table.splitlines()[2:]
                  for key in re.findall(r"`(\w+)`", row.split("|")[1])}
    assert documented == {key for key in default_config() if not key.endswith("_path")}

    named = re.search(r"Exit codes: ([^.]*)\.", README).group(1)
    codes = {int(code) for code in re.findall(r"(\d) \w", named)}
    carried = {cls.exit_code for cls in vars(errors).values()
               if isinstance(cls, type) and issubclass(cls, errors.LexnerError)}
    assert codes == {0} | carried
