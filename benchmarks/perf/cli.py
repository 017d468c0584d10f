"""Command line of the wall-clock benchmark.

One workload, in this process (what ``BENCHMARK.json``'s command runs)::

    python3 benchmarks/perf/run.py --workload W --seed N --seconds S --trace 0|1

prints every metric by name with its unit and, as the last line, one
JSON object ``{"correct", "attempted", "failed", "metrics"}`` with the
end-to-end metrics (``--trace 0``) or the per-layer metrics
(``--trace 1``).  A traced run first runs the same workload untraced in
a child process, for ``obs.trace_overhead_frac`` and the numbers that
must not be taken under tracing.

Every workload, one fresh process each, one at a time::

    PYTHONPATH=src python -m benchmarks.perf [--seed N] [--traced] [--quick]
    PYTHONPATH=src python -m benchmarks.perf --repeat 10 --seed 1 --seed 2 --out A.json
    PYTHONPATH=src python -m benchmarks.perf --compare A.json B.json

A full run appends one row to ``history.jsonl``.  Every process is
re-executed with ``PYTHONHASHSEED=0``: DES behaviour is a function of
the hash seed, and the ``des_*`` counts and simulated times must repeat
exactly for a seed.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import subprocess
import sys
from pathlib import Path
from typing import Any, Dict, List, Optional

from . import micro, report
from .runner import QUICK_SECONDS, WORKLOADS
from .spans import SpanRecorder

HERE = Path(__file__).resolve().parent
LEDGER = HERE / "history.jsonl"
#: Raw spans kept (and written with ``--spans-out``) per traced run.
RAW_SPAN_CAP = 200_000


def _parse(argv: List[str]) -> argparse.Namespace:
    parser = argparse.ArgumentParser(
        prog="python -m benchmarks.perf", description=__doc__.split("\n")[0])
    parser.add_argument("--workload", choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, action="append",
                        help="workload seed; give several to alternate "
                             "between them under --repeat (default 0)")
    parser.add_argument("--seconds", type=float, default=None,
                        help="size of the measured window (default: "
                             "run_seconds of BENCHMARK.json)")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--traced", action="store_true",
                        help="full run: also run every workload traced")
    parser.add_argument("--quick", action="store_true",
                        help="smoke-test sizes (small populations, ~1 s "
                             "windows); numbers are not comparable")
    parser.add_argument("--repeat", type=int, default=1, metavar="N",
                        help="full run N times; print medians and spread")
    parser.add_argument("--out", metavar="FILE",
                        help="write the result set of a full run here")
    parser.add_argument("--compare", nargs=2, metavar=("A", "B"),
                        help="check result set B against A with the "
                             "bounds in BENCHMARK.json")
    parser.add_argument("--setups", type=int, default=None,
                        help="set-ups per run (default: per workload)")
    parser.add_argument("--window", type=int, default=None,
                        help="live_saturate only: transactions in flight "
                             "(exploration; the workload's is 16)")
    parser.add_argument("--spans-out", metavar="FILE",
                        help="traced run: write the raw spans here")
    return parser.parse_args(argv)


# ---------------------------------------------------------------------------
# one workload, here
# ---------------------------------------------------------------------------

def _child(args: argparse.Namespace, workload: str, seed: int, trace: int,
           setups: Optional[int] = None) -> Dict[str, Any]:
    """Run one workload in a fresh process; its ``raw`` record."""
    command = [sys.executable, str(HERE / "run.py"), "--workload", workload,
               "--seed", str(seed), "--seconds", str(args.seconds),
               "--trace", str(trace)]
    if args.quick:
        command.append("--quick")
    if setups is not None:
        command += ["--setups", str(setups)]
    if args.window is not None:
        command += ["--window", str(args.window)]
    done = subprocess.run(command, stdout=subprocess.PIPE, text=True)
    raw = [line for line in done.stdout.splitlines()
           if line.startswith("raw ")]
    if not raw:
        sys.stdout.write(done.stdout)
        raise RuntimeError(f"{workload}: no result (exit {done.returncode})")
    record = json.loads(raw[-1][4:])
    record["stdout"] = done.stdout
    record["exit"] = done.returncode
    return record


def run_one(args: argparse.Namespace) -> int:
    workload = WORKLOADS[args.workload]
    seed = args.seed[0]
    traced = args.trace == 1
    untraced = None
    if traced:
        untraced = _child(args, workload.name, seed, trace=0,
                          setups=1)["extras"]
        # Before the workload, while the heap is small: a big live heap
        # slows every allocation-heavy loop through the cyclic GC.
        micro_rates = micro.run_all()
    recorder = SpanRecorder(RAW_SPAN_CAP if args.spans_out else 0) \
        if traced else None
    setups = 1 if traced else (args.setups or workload.setups)
    setup_s, window = workload.run(seed, args.seconds, args.quick, recorder,
                                   setups, args.window)

    failed = report.failed_txns(window)
    extras = report.untraced_extras(window)
    problems = []
    if not window.digests_ok:
        problems.append("DC digests differ from the analytic fold")
    if failed:
        problems.append(f"{failed} transactions failed ({window.aborted} "
                        "aborted, the rest never visible)")
    if window.counts["net.dropped"] or window.counts["net.unroutable"]:
        problems.append("frames dropped or unroutable")
    if extras["bench.gen_late_p50_ms"] > report.quantile(
            window.latencies_ms, 0.5):
        problems.append("the generator's median lateness exceeds "
                        "visible_p50_ms: the run measures the generator")

    print(f"{workload.name} seed={seed} seconds={args.seconds:g} "
          f"{'traced' if traced else 'untraced'}"
          f"{' quick' if args.quick else ''}: {window.visible}/"
          f"{window.submitted} txns visible in {window.wall_s:.3f} s, "
          f"{len(window.latencies_ms)} latency samples")
    if traced:
        values = report.per_layer(window, recorder, workload.live, untraced,
                                  micro_rates)
        metrics = report.emit("per_layer", values)
        for line in report.layer_table(recorder, values):
            print(line)
        if args.spans_out:
            recorder.write_raw(args.spans_out)
    else:
        values = report.end_to_end(window, setup_s)
        metrics = report.emit("end_to_end", values)
    for name, metric in metrics.items():
        print(f"  {name:32s} {metric['value']:16.4f} {metric['unit']}")
    if not traced:
        for name, value in extras.items():
            print(f"  ({name:30s} {value:16.4f})")
    for problem in problems:
        print(f"  INVALID: {problem}")
    print("raw " + json.dumps({
        "workload": workload.name, "seed": seed, "traced": traced,
        "correct": not problems, "values": values, "extras": extras}))
    print(json.dumps({"correct": not problems,
                      "attempted": window.submitted, "failed": failed,
                      "metrics": metrics}))
    return 1 if problems else 0


# ---------------------------------------------------------------------------
# every workload, one fresh process each
# ---------------------------------------------------------------------------

def _git_commit() -> str:
    done = subprocess.run(["git", "rev-parse", "HEAD"], cwd=HERE,
                          stdout=subprocess.PIPE, stderr=subprocess.DEVNULL,
                          text=True)
    return done.stdout.strip() or "unknown"


def run_all(args: argparse.Namespace) -> int:
    runs: List[Dict[str, Dict[str, float]]] = []
    status = 0
    for i in range(args.repeat):
        seed = args.seed[i % len(args.seed)]
        run: Dict[str, Dict[str, float]] = {}
        for name in WORKLOADS:
            for trace in (0, 1) if args.traced else (0,):
                record = _child(args, name, seed, trace)
                sys.stdout.write("\n".join(
                    line for line in record["stdout"].splitlines()[:-1]
                    if not line.startswith("raw ")) + "\n")
                sys.stdout.flush()
                status |= record["exit"]
                if trace == 0:
                    run[name] = record["values"]
        runs.append(run)
        if not args.quick:
            row = {"commit": _git_commit(), "seed": seed,
                   "seconds": args.seconds,
                   "python": platform.python_version(),
                   "nproc": os.cpu_count(),
                   "bench.calibration_score":
                       micro.calibration()["bench.calibration_score"],
                   "end_to_end": run}
            with open(LEDGER, "a") as handle:
                handle.write(json.dumps(row, sort_keys=True) + "\n")
    table = report.summarise(runs)
    if args.repeat > 1:
        print(f"\n{args.repeat} runs, seeds {args.seed}:")
        for line in report.spread_lines(table):
            print(line)
    if args.out:
        with open(args.out, "w") as handle:
            json.dump(table, handle, indent=1, sort_keys=True)
    return status


def run_compare(base_path: str, change_path: str) -> int:
    with open(base_path) as handle:
        base = json.load(handle)
    with open(change_path) as handle:
        change = json.load(handle)
    lines, clean = report.compare(base, change)
    for line in lines:
        print(line)
    return 0 if clean else 1


def main(argv: Optional[List[str]] = None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    args = _parse(argv)
    if args.compare:
        return run_compare(*args.compare)
    if os.environ.get("PYTHONHASHSEED") != "0":
        os.environ["PYTHONHASHSEED"] = "0"
        os.execv(sys.executable,
                 [sys.executable, str(HERE / "run.py")] + argv)
    args.seed = args.seed or [0]
    if args.seconds is None:
        args.seconds = QUICK_SECONDS if args.quick \
            else float(report.manifest()["run_seconds"])
    return run_one(args) if args.workload else run_all(args)
