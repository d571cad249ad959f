"""Smoke test of the benchmark itself: every workload at a reduced size
(``--seconds 1``) with a fixed seed, untraced and traced, must pass its
output checks.

    python -m pytest perfbench/test_smoke.py
"""

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
RUN = BENCH_DIR / "run.py"
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


def run_bench(cwd, workload, trace, run_py=RUN):
    cmd = [sys.executable, str(run_py), "--workload", workload, "--seed", "7",
           "--seconds", "1", "--trace", str(trace)]
    return subprocess.run(cmd, cwd=cwd, capture_output=True, text=True, timeout=170)


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", ["classify4", "sweep4", "realize5"])
def test_workload_checks_pass(workload, trace):
    proc = run_bench(ROOT, workload, trace)
    assert proc.returncode == 0, proc.stderr
    *_, report_line, result_line = proc.stdout.strip().splitlines()
    report = json.loads(report_line)["report"]
    result = json.loads(result_line)
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"], report["failures"]
    assert result["failed"] == 0 and result["attempted"] >= 1
    assert report["error_rate"] == 0
    assert sum(report["lp_outcomes"].values()) >= 1
    metrics = result["metrics"]
    spec = SPEC["per_layer" if trace else "end_to_end"]
    assert {name: m["unit"] for name, m in metrics.items()} == {m["name"]: m["unit"] for m in spec}
    if trace:
        lp_calls = {o: metrics[f"lp.maximize_slack.{o}.calls"]["value"] for o in report["lp_outcomes"]}
        assert lp_calls == report["lp_outcomes"]
        assert (ROOT / report["spans_file"]).is_file()
    else:
        assert all(m["value"] > 0 for m in metrics.values())


def test_same_seed_same_verdicts():
    digests = {
        json.loads(run_bench(ROOT, "realize5", 0).stdout.strip().splitlines()[-2])["report"]["verdict_digest"]
        for _ in range(2)
    }
    assert len(digests) == 1


def test_refuses_to_run_without_the_package(tmp_path):
    shutil.copytree(BENCH_DIR, tmp_path / BENCH_DIR.name,
                    ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    proc = run_bench(tmp_path, "classify4", 0, run_py=tmp_path / BENCH_DIR.name / "run.py")
    assert proc.returncode != 0
    assert proc.stdout == ""
