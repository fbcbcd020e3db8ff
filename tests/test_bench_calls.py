"""The benchmark's calls into lexner still work: each gated workload runs at smoke sizes.

`bench/run.py` drives lexner through its public API (`TrainConfig(workers=...)`,
`decode_sentence`, `Checkpoint.model_config`, ...), so a change there fails here
rather than in a benchmark run.
"""
import json
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent


@pytest.mark.parametrize("workload", ["train_lex50k", "tag_lex50k"])
def test_workload_runs_and_checks_out_at_smoke_sizes(workload):
    argv = [sys.executable, "bench/run.py", "--workload", workload, "--seed", "3",
            "--seconds", "0.2", "--trace", "0", "--smoke"]
    proc = subprocess.run(argv, cwd=ROOT, capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.splitlines()[-1])
    assert result["correct"] and result["failed"] == 0, result


def test_traced_tag_smoke_counts_lexicon_coverage():
    # the coverage counter reads what knowledge_select returns, and the tracer
    # drops a count that raises instead of failing the run
    argv = [sys.executable, "bench/run.py", "--workload", "tag_lex50k", "--seed", "3",
            "--seconds", "0.2", "--trace", "1", "--smoke"]
    proc = subprocess.run(argv, cwd=ROOT, capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stderr
    lines = [json.loads(line) for line in proc.stdout.splitlines()]
    report = next(line["report"] for line in lines if "report" in line)
    metrics = lines[-1]["metrics"]
    assert metrics["lexicon.coverage"]["value"] > 0
    assert metrics["lexicon.words_per_char"]["value"] > 0
    assert "lexicon.knowledge_select (count)" not in report["absent_layers"]
