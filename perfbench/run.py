#!/usr/bin/env python3
"""Seeded benchmark of qmlines: classify4, sweep4 and realize5.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a source checkout; the package is imported from its
``src`` directory.  Each measured run happens in a fresh worker process,
because qmlines caches classes and sweep results per process.

With ``--trace 0`` the run prints the end-to-end metrics of BENCHMARK.json:
``setup_s`` is the median of 2 * SETUP_EACH_SIDE + 1 fresh processes that
import qmlines and build the inputs; ``wall_ref``, ``item_p50_ref`` and
``peak_rss_mb`` come from the middle one, which also runs the timed loop.
``wall_ref`` and ``item_p50_ref`` are ``wall_s`` and the median item time in
units of the mean time of the reference task (see reference.py) in the same
loop; ``wall_s`` excludes the reference task.
With ``--trace 1`` it runs the loop once untraced and once traced, each in its
own worker, and prints the per-layer metrics from the spans of the traced
one; ``bench.tracing_overhead_s`` is the difference of the two wall times.

Outputs are checked after the timed region.  The second-to-last line of
stdout is a JSON report (context, verdict digest, LP outcome counts, item
tail, error rate, failures); the last line is the result object.
"""

import argparse
import importlib.util
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path

from workloads import WORKLOADS

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
OUT_DIR = ROOT / ".bench_out"
SETUP_EACH_SIDE = 2
DEADLINE_S = 170  # a whole run must end within 180 s
TAIL_BEYOND = 10  # samples required beyond the tail percentile


def import_qmlines():
    """Import qmlines from this checkout's src, never from elsewhere."""
    init = SRC / "qmlines" / "__init__.py"
    if not init.is_file():
        sys.exit(f"perfbench: {init} not found; run from the root of a qmlines checkout")
    sys.path.insert(0, str(SRC))
    import qmlines

    if Path(qmlines.__file__).resolve() != init.resolve():
        sys.exit(f"perfbench: imported qmlines from {qmlines.__file__}, not {init}")
    return qmlines


# ------------------------------------------------------------------ worker


def worker(args) -> dict:
    """One fresh process: set up; unless setup-only, run, check and report."""
    start = time.perf_counter()
    qm = import_qmlines()
    from tracing import Tracer
    from workloads import Ledger, digest, lp_counts, make_rng, n_items

    workload = WORKLOADS[args.workload]
    inputs = workload.setup(qm, make_rng(workload, args.seed), n_items(workload, args.seconds))
    setup_s = time.perf_counter() - start
    if args.worker == "setup":
        return {"setup_s": setup_s}

    ledger = Ledger()
    tracer = Tracer(qm) if args.worker == "traced" else None
    if tracer:
        tracer.install()
    t0 = time.perf_counter()
    try:
        ledger.reference()
        workload.run(qm, inputs, ledger)
    finally:
        wall_s = time.perf_counter() - t0 - sum(ledger.reference_s)
        if tracer:
            tracer.uninstall()
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024

    rows = workload.check(qm, inputs, ledger)
    result = {
        "setup_s": setup_s,
        "wall_s": wall_s,
        "peak_rss_mb": peak_rss_mb,
        "item_s": [seconds for _, _, seconds in ledger.items],
        "reference_s": ledger.reference_s,
        "attempted": ledger.attempted,
        "failures": sorted(ledger.failures.values()),
        "lp_outcomes": lp_counts(ledger),
        "verdict_digest": digest(rows),
    }
    if tracer:
        result["per_layer"] = tracer.summary(wall_s)
        spans_lp = tracer.lp_calls()
        if spans_lp != result["lp_outcomes"]:
            ledger.attempted += 1
            result["attempted"] = ledger.attempted
            result["failures"].append(f"trace: LP spans {spans_lp} != LPs attempted {result['lp_outcomes']}")
        OUT_DIR.mkdir(exist_ok=True)
        spans_path = OUT_DIR / f"spans-{args.workload}-{args.seed}.jsonl"
        tracer.write(spans_path, t0)
        result["spans_file"] = str(spans_path.relative_to(ROOT))
    return result


# ------------------------------------------------------------ orchestrator


def spawn(args, mode: str, deadline: float) -> dict:
    cmd = [
        sys.executable, str(Path(__file__).resolve()),
        "--worker", mode,
        "--workload", args.workload,
        "--seed", str(args.seed),
        "--seconds", str(args.seconds),
        "--trace", str(args.trace),
    ]
    timeout = deadline - time.monotonic()
    if timeout <= 0:
        sys.exit("perfbench: out of time before starting a worker")
    try:
        proc = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE, text=True, timeout=timeout)
    except subprocess.TimeoutExpired:
        sys.exit(f"perfbench: {mode} worker exceeded the {DEADLINE_S} s deadline")
    if proc.returncode != 0:
        sys.exit(f"perfbench: {mode} worker exited with {proc.returncode}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def item_tail(item_s):
    """(percentile, value): the highest percentile with at least
    TAIL_BEYOND samples above it, or None when there are too few items."""
    n = len(item_s)
    k = n - 1 - TAIL_BEYOND
    if k < 0:
        return None
    return 100.0 * (k + 1) / n, sorted(item_s)[k]


def git_revision():
    if not (ROOT / ".git").exists():
        return None
    try:
        proc = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True, timeout=30
        )
    except (OSError, subprocess.TimeoutExpired):
        return None
    return proc.stdout.strip() if proc.returncode == 0 else None


def context() -> dict:
    sys.path.insert(0, str(SRC))
    return {
        "git_revision": git_revision(),
        "python": platform.python_version(),
        "nproc": os.cpu_count(),
        "ckernels_importable": importlib.util.find_spec("qmlines._ckernels") is not None,
        "gmpy2_importable": importlib.util.find_spec("gmpy2") is not None,
    }


def metric(value, unit):
    return {"value": value, "unit": unit}


def orchestrate(args) -> None:
    deadline = time.monotonic() + DEADLINE_S
    if not (SRC / "qmlines" / "__init__.py").is_file():
        sys.exit("perfbench: src/qmlines not found; run from the root of a qmlines checkout")
    if args.trace:
        plain = spawn(args, "run", deadline)
        measured = spawn(args, "traced", deadline)
        runs = [plain, measured]
    else:
        # setup-only processes before and after the measured one, so that
        # the median spans the machine's state over the whole run
        before = [spawn(args, "setup", deadline)["setup_s"] for _ in range(SETUP_EACH_SIDE)]
        measured = spawn(args, "run", deadline)
        after = [spawn(args, "setup", deadline)["setup_s"] for _ in range(SETUP_EACH_SIDE)]
        setups = before + [measured["setup_s"]] + after
        runs = [measured]

    failures = [f for r in runs for f in r["failures"]]
    attempted = sum(r["attempted"] for r in runs)
    if args.trace and plain["verdict_digest"] != measured["verdict_digest"]:
        attempted += 1
        failures.append("trace: traced and untraced runs decided differently")
    tail = item_tail(measured["item_s"])
    item_p50_s = statistics.median(measured["item_s"])
    reference_s = statistics.mean(measured["reference_s"])
    if args.trace:
        metrics = {name: metric(v, unit) for name, (v, unit) in measured["per_layer"].items()}
        metrics["bench.tracing_overhead_s"] = metric(measured["wall_s"] - plain["wall_s"], "s")
    else:
        metrics = {
            "setup_s": metric(statistics.median(setups), "s"),
            "wall_ref": metric(measured["wall_s"] / reference_s, "ref"),
            "item_p50_ref": metric(item_p50_s / reference_s, "ref"),
            "peak_rss_mb": metric(measured["peak_rss_mb"], "MB"),
        }
    report = {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "context": context(),
        "items": len(measured["item_s"]),
        "item_p50_ms": 1000 * item_p50_s,
        "reference_ms": 1000 * reference_s,
        "references": len(measured["reference_s"]),
        "item_tail_ms": tail and 1000 * tail[1],
        "item_tail_percentile": tail and tail[0],
        "verdict_digest": measured["verdict_digest"],
        "lp_outcomes": measured["lp_outcomes"],
        "error_rate": len(failures) / attempted,
        "failures": failures[:20],
        "wall_s": [r["wall_s"] for r in runs],
    }
    if args.trace:
        report["spans_file"] = measured["spans_file"]
    else:
        report["setup_s_samples"] = setups
    print(json.dumps({"report": report}))
    print(json.dumps({
        "correct": not failures,
        "attempted": attempted,
        "failed": len(failures),
        "metrics": metrics,
    }))


def main(argv=None) -> None:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--worker", choices=("setup", "run", "traced"), help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    if args.seconds <= 0:
        parser.error("--seconds must be positive")
    if args.worker:
        print(json.dumps(worker(args)))
    else:
        orchestrate(args)


if __name__ == "__main__":
    main()
