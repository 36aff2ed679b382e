"""qracah benchmark: one workload per run, end-to-end or per-layer metrics.

Run from the root of a checkout:

    python3 bench/run.py --workload {transform_build,verify,apply} \
        --seed N --seconds S --trace {0,1}

The library is imported from ``src/`` of the same checkout.  Inputs come
from ``--seed``.  ``--seconds`` sets the amount of work (see
``Workload.rounds``).  With ``--trace 0`` the run reports the end-to-end
metrics; with ``--trace 1`` it runs the same plan untraced, then a second
plan traced, and reports the per-layer metrics and the tracing overhead.
The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.  Human-readable
results come before it, and a results file (plus, when tracing, the spans)
is written under ``.bench_out/``.  See bench/README.md.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import resource
import shutil
import statistics
import sys
import time
from pathlib import Path

# setup_s counts from here: numpy and the library are imported in main().
T_START = time.perf_counter()

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT = ROOT / ".bench_out"
WORKLOAD_NAMES = ("transform_build", "verify", "apply")
# Set-up is repeated and its median reported, so that one slow set-up does
# not decide setup_s.
SETUP_REPS = 5


def parse_args(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOAD_NAMES)
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=int)
    parser.add_argument("--trace", required=True, type=int, choices=(0, 1))
    args = parser.parse_args(argv)
    if args.seed < 0:
        parser.error("--seed must be non-negative")
    if args.seconds < 1:
        parser.error("--seconds must be at least 1")
    return args


def tail_percentile(count: int) -> int:
    """The highest whole percentile with at least ten samples beyond it
    (never below the median)."""
    return max(50, math.floor(100 * (1 - 10 / count))) if count else 50


def suite_table(outcomes) -> dict:
    """Per verify suite: runs, failures (with the error classes of suites
    that never ran), max residual, tolerance and the CLI's own time."""
    table = {}
    for outcome in outcomes:
        for row in outcome.suites:
            entry = table.setdefault(
                row.suite,
                {"runs": 0, "failed": 0, "max_residual": 0.0, "tolerance": row.tolerance,
                 "cli_s": 0.0, "errors": {}},
            )
            entry["runs"] += 1
            entry["failed"] += not row.passed
            entry["cli_s"] += row.cli_s
            if row.error:
                entry["errors"][row.error] = entry["errors"].get(row.error, 0) + 1
            elif math.isfinite(row.residual):
                entry["max_residual"] = max(entry["max_residual"], row.residual)
            else:
                entry["max_residual"] = 1e300  # JSON has no infinity
            if math.isfinite(row.tolerance):
                entry["tolerance"] = row.tolerance
    return table


def end_to_end(result: dict, setup_s: float) -> dict:
    times = result["times"]
    checks = sum(o.checks for o in result["outcomes"])
    failed = sum(o.failed for o in result["outcomes"])
    tail = tail_percentile(len(times))
    quantiles = statistics.quantiles(times, n=100, method="inclusive")
    return {
        "wall_s": {"value": result["wall_s"], "unit": "s"},
        "op_p50_ms": {"value": 1e3 * statistics.median(times), "unit": "ms"},
        "op_tail_ms": {"value": 1e3 * quantiles[tail - 1], "unit": "ms"},
        "pass_share": {"value": 1 - failed / checks, "unit": "share"},
        "setup_s": {"value": setup_s, "unit": "s"},
        "peak_rss_mb": {"value": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "unit": "MB"},
    }


def summary_lines(name, result, setup_reps, import_s, rounds) -> list:
    times, outcomes = result["times"], result["outcomes"]
    checks = sum(o.checks for o in outcomes)
    failed = sum(o.failed for o in outcomes)
    tail = tail_percentile(len(times))
    lines = [
        f"workload {name}: {len(times)} operations in {rounds} rounds, one client, closed loop",
        f"  setup: import {import_s:.3f} s + median of {len(setup_reps)} set-ups "
        f"({', '.join(f'{s:.3f}' for s in setup_reps)} s)",
        f"  op_tail_ms is p{tail} of {len(times)} samples "
        f"({len(times) - math.ceil(len(times) * tail / 100)} beyond it)",
        f"  fail_share {failed / checks:.4f} ({failed} of {checks} checks failed); "
        f"broken operations {sum(o.broken for o in outcomes)}",
    ]
    table = suite_table(outcomes)
    if table:
        lines.append(f"  {'suite':16s} {'runs':>4s} {'failed':>6s} {'max residual':>12s} {'tolerance':>9s} {'cli s':>7s}  errors")
        for suite, e in sorted(table.items()):
            errors = ", ".join(f"{k} x{v}" for k, v in sorted(e["errors"].items()))
            lines.append(
                f"  {suite:16s} {e['runs']:4d} {e['failed']:6d} {e['max_residual']:12.3e} "
                f"{e['tolerance']:9.1e} {e['cli_s']:7.2f}  {errors}"
            )
    for o in outcomes:
        if o.broken:
            lines.append(f"  broken operation: {o.detail}")
    return lines


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (SRC / "qracah" / "__init__.py").is_file():
        print(f"bench: the library source {SRC / 'qracah'} is missing", file=sys.stderr)
        return 2
    # The matrices are small (at most a few hundred rows): one BLAS thread
    # keeps timings steady and stays within nproc.
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ[var] = "1"
    sys.path.insert(0, str(SRC))
    import qracah

    if Path(qracah.__file__).resolve().parent != SRC / "qracah":
        print(f"bench: imported qracah from {qracah.__file__}, not {SRC}", file=sys.stderr)
        return 2
    import spans
    from workloads import WORKLOADS, run_pass

    import_s = time.perf_counter() - T_START
    OUT.mkdir(exist_ok=True)

    workload = WORKLOADS[args.workload]()
    rounds = workload.rounds(args.seconds)
    work = OUT / "work"
    setup_reps, plans = [], []
    for rep in range(SETUP_REPS):
        start = time.perf_counter()
        plans.append(workload.setup(args.seed, rep, rounds, work))
        setup_reps.append(time.perf_counter() - start)
    setup_s = import_s + statistics.median(setup_reps)

    plain = run_pass(workload, plans[-1])
    passes = [plain]
    stem = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    results = {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds, "rounds": rounds,
        "import_s": import_s, "setup_reps_s": setup_reps,
    }
    lines = summary_lines(args.workload, plain, setup_reps, import_s, rounds)
    if args.trace:
        recorder = spans.Recorder()
        recorder.install()
        try:
            traced = run_pass(workload, plans[-2], recorder)
        finally:
            recorder.uninstall()
        passes.append(traced)
        suites = suite_table(traced["outcomes"])
        metrics = spans.layer_metrics(recorder.spans, suites, traced["wall_s"], plain["wall_s"])
        recorder.write(OUT / f"{stem}.spans.jsonl")
        lines.append(
            f"  traced pass: wall {traced['wall_s']:.3f} s against {plain['wall_s']:.3f} s untraced, "
            f"{len(recorder.spans)} spans"
        )
        results["suites"] = suites
    else:
        metrics = end_to_end(plain, setup_s)
        results["suites"] = suite_table(plain["outcomes"])
    shutil.rmtree(work, ignore_errors=True)

    attempted = sum(len(p["times"]) for p in passes)
    broken = sum(o.broken for p in passes for o in p["outcomes"])
    results["metrics"] = metrics
    results["operations"] = [
        {"seconds": t, "checks": o.checks, "failed": o.failed, "broken": o.broken, **o.detail}
        for t, o in zip(plain["times"], plain["outcomes"])
    ]
    (OUT / f"{stem}.json").write_text(json.dumps(results, indent=1, default=str) + "\n")
    for line in lines:
        print(line)
    for name, m in metrics.items():
        print(f"  {name:44s} {m['value']:.6g} {m['unit']}")
    print(json.dumps({"correct": broken == 0, "attempted": attempted, "failed": broken, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
