"""Tests of the benchmark itself, at smoke sizes.

    python3 -m pytest -q bench/check_bench.py

The file name keeps these tests out of the package's default test run;
pass the file explicitly.
"""
import json
import re
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
sys.path[:0] = [str(ROOT / "src"), str(BENCH)]

import run  # noqa: E402
import spans  # noqa: E402
from workload import Generator  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
NAME = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")
UNIT = re.compile(r"^[A-Za-z0-9_/%.-]{1,16}$")


def bench(*args, cwd=ROOT):
    cmd = [sys.executable, str(BENCH / "run.py"), *args]
    return subprocess.run(cmd, cwd=cwd, capture_output=True, text=True, timeout=170)


def result_of(done):
    assert done.returncode == 0, done.stderr
    result = json.loads(done.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    return result


def test_spec_matches_the_script():
    assert set(SPEC) == {"command", "paths", "run_seconds", "workloads", "end_to_end",
                         "per_layer"}
    assert {w["name"] for w in SPEC["workloads"]} <= set(run.WORKLOADS)
    assert {m["name"]: m["unit"] for m in SPEC["end_to_end"]} == run.END_TO_END
    assert {m["name"]: m["unit"] for m in SPEC["per_layer"]} == run.PER_LAYER
    names = [m["name"] for m in SPEC["end_to_end"] + SPEC["per_layer"]]
    names += [w["name"] for w in SPEC["workloads"]]
    assert len(names) == len(set(names)) and all(NAME.match(n) for n in names)
    assert all(UNIT.match(m["unit"]) for m in SPEC["end_to_end"] + SPEC["per_layer"])
    assert all(0 < m["bound"] <= 0.25 for m in SPEC["end_to_end"])
    setup = next(m for m in SPEC["end_to_end"] if m["name"] == "setup_s")
    assert setup["unit"] == "s" and setup["better"] == "lower"
    assert setup["bound"] == max(m["bound"] for m in SPEC["end_to_end"])


@pytest.mark.parametrize("workload", sorted(run.WORKLOADS))
def test_smoke_run_reports_every_end_to_end_metric(workload):
    result = result_of(bench("--workload", workload, "--seed", "3", "--seconds", "0.2",
                             "--trace", "0", "--smoke"))
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    assert {k: v["unit"] for k, v in result["metrics"].items()} == run.END_TO_END
    assert all(v["value"] > 0 for v in result["metrics"].values())


@pytest.mark.parametrize("workload", ["train_lex50k", "tag_lex50k"])
def test_smoke_trace_accounts_for_the_timed_phase(workload):
    result = result_of(bench("--workload", workload, "--seed", "3", "--seconds", "0.2",
                             "--trace", "1", "--smoke"))
    metrics = {k: v["value"] for k, v in result["metrics"].items()}
    assert {k: v["unit"] for k, v in result["metrics"].items()} == run.PER_LAYER
    shares = sum(metrics[f"{layer}.share"] for layer in spans.LAYERS)
    assert abs(shares + metrics["trace.unaccounted_share"] - 1.0) < 1e-6
    assert metrics["trace.unaccounted_share"] < 0.1
    assert metrics["encoder.forward_s"] > 0 and metrics["crf.viterbi_s"] > 0
    if workload == "tag_lex50k":
        assert metrics["params.grad_alloc_s"] == 0 and metrics["crf.nll_s"] == 0
        assert metrics["params.load_s"] > 0


def test_without_the_program_it_fails_without_a_result(tmp_path):
    shutil.copytree(BENCH, tmp_path / "bench", ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    done = subprocess.run([sys.executable, str(tmp_path / "bench" / "run.py"),
                           "--workload", "gradcheck_c3", "--seed", "1", "--seconds", "1",
                           "--trace", "0"], cwd=tmp_path, capture_output=True, text=True,
                          timeout=60)
    assert done.returncode != 0
    assert '"metrics"' not in done.stdout


def test_missing_target_is_reported_absent(monkeypatch):
    monkeypatch.setattr(spans, "TARGETS", spans.TARGETS + (("lexicon", "no_such_fn"),
                                                           ("params", "Nope.get")))
    tracer = spans.Tracer()
    tracer.install()
    try:
        assert tracer.absent == ["lexicon.no_such_fn", "params.Nope.get"]
    finally:
        tracer.uninstall()
    import lexner
    assert not hasattr(lexner.train, "__wrapped__")


def test_generator_is_seeded():
    a, b, c = Generator(5, 3000), Generator(5, 3000), Generator(6, 3000)
    assert a.words == b.words and a.words != c.words
    assert len(a.words) == 3000 and set(a.dictionary) <= set(a.words)
    sa, sb = a.dataset("t", 9, 10, 50), b.dataset("t", 9, 10, 50)
    assert [s.chars for s in sa.sentences] == [s.chars for s in sb.sentences]
    # lengths are an even spread over the range, whatever the seed
    assert sorted(len(s) for s in sa.sentences) == [10, 15, 20, 25, 30, 35, 40, 45, 50]
    assert sorted(len(s) for s in c.dataset("t", 9, 10, 50).sentences) == \
        [10, 15, 20, 25, 30, 35, 40, 45, 50]
