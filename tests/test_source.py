"""Source-wide rules: a helper that nothing calls gets deleted."""
import ast
import re
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
PACKAGE = ROOT / "src" / "lexner"


def test_every_function_is_referenced_outside_its_definition():
    lines = {path: path.read_text(encoding="utf-8").splitlines()
             for folder in ("src", "demos", "bench") for path in (ROOT / folder).rglob("*.py")}
    orphans = []
    for path in sorted(PACKAGE.glob("*.py")):
        for node in ast.walk(ast.parse("\n".join(lines[path]))):
            if not isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                continue
            if node.name.startswith("__") and node.name.endswith("__"):
                continue
            name = re.compile(rf"\b{node.name}\b")
            if not any(name.search(line) for other, text in lines.items()
                       for k, line in enumerate(text, 1) if (other, k) != (path, node.lineno)):
                orphans.append(f"{path.name}:{node.lineno} {node.name}")
    assert orphans == []
