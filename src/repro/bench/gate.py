"""Unified CI bench gate: ``python -m repro.bench.gate BENCH_x.json``.

Every benchmark job in CI used to carry its own inline ``python -
<<EOF`` heredoc re-implementing "load the report, compare fields,
exit 1".  This module replaces them with one CLI driven by a committed
threshold file (``benchmarks/gates.toml``), so acceptance criteria are
versioned next to the benchmarks they gate and a new benchmark only
needs a TOML table, not another copy-pasted script.

Dispatch: a report names its own gate via its ``"benchmark"`` field
(every ``BENCH_*.json`` writer sets one); Chrome-trace artifacts are
recognised by their ``"traceEvents"`` key; as a last resort the file
stem (minus the ``BENCH_`` prefix, truncated at the first ``_``) is
tried, so ``BENCH_chaos_group_s0.json`` still finds the ``chaos``
table if its writer predates the ``benchmark`` field.

Check grammar (one ``[[<name>.check]]`` per assertion)::

    [[partial_replication.check]]
    metric = "byte_reduction_rf3"        # dotted path; ints index lists
    op = "ge"                            # ge|gt|le|lt|eq|ne|truthy|
                                         #   spans_complete
    value = 0.50                         # literal threshold, or:
    # ref = "gate_min_speedup"           # threshold read from the report

``ref`` thresholds compare one report field against another — used by
the scale gate, whose floor is computed into the report itself, and by
the partial-replication gate's "reduction scales with replica factor"
monotonicity check.
"""

from __future__ import annotations

import argparse
import json
import sys
import tomllib
from pathlib import Path
from typing import Any, Dict, List, Sequence, Tuple

from ..obs import SPAN_KINDS

#: Comparison operators: (symbol for messages, predicate).
_OPS = {
    "ge": (">=", lambda a, b: a >= b),
    "gt": (">", lambda a, b: a > b),
    "le": ("<=", lambda a, b: a <= b),
    "lt": ("<", lambda a, b: a < b),
    "eq": ("==", lambda a, b: a == b),
    "ne": ("!=", lambda a, b: a != b),
}


class GateConfigError(Exception):
    """Malformed gates file or a report no gate knows about."""


def resolve(report: Any, path: str) -> Any:
    """Resolve a dotted metric path; integer segments index lists.

    ``"sweep.1.events"`` → ``report["sweep"][1]["events"]``.  Raises
    ``KeyError`` with the full path on any missing step so the gate
    failure message names what the report lost.
    """
    current = report
    for segment in path.split("."):
        try:
            if isinstance(current, (list, tuple)):
                current = current[int(segment)]
            else:
                current = current[segment]
        except (KeyError, IndexError, TypeError, ValueError):
            raise KeyError(path)
    return current


def _spans_complete(events: Any) -> Tuple[bool, str]:
    """Chrome-trace completeness: non-empty, all span kinds present."""
    if not events:
        return False, "empty Chrome trace"
    kinds = {e.get("name") for e in events if e.get("ph") == "i"}
    missing = [kind for kind in SPAN_KINDS if kind not in kinds]
    if missing:
        return False, f"trace missing span kinds: {missing}"
    return True, (f"{len(events)} events, all {len(SPAN_KINDS)} "
                  f"span kinds present")


def run_check(report: Any, check: Dict[str, Any]) -> Tuple[bool, str]:
    """Evaluate one check; returns (passed, human-readable detail)."""
    metric = check["metric"]
    op = check["op"]
    try:
        actual = resolve(report, metric)
    except KeyError:
        return False, f"{metric}: missing from report"
    if op == "truthy":
        return bool(actual), f"{metric} = {actual!r}"
    if op == "spans_complete":
        ok, detail = _spans_complete(actual)
        return ok, f"{metric}: {detail}"
    if op not in _OPS:
        raise GateConfigError(f"unknown op {op!r} for metric {metric!r}")
    if "ref" in check:
        try:
            threshold = resolve(report, check["ref"])
        except KeyError:
            return False, f"{check['ref']}: missing from report"
        origin = f" ({check['ref']})"
    elif "value" in check:
        threshold = check["value"]
        origin = ""
    else:
        raise GateConfigError(
            f"check on {metric!r} needs 'value' or 'ref'")
    symbol, predicate = _OPS[op]
    return (predicate(actual, threshold),
            f"{metric} = {actual!r} {symbol} {threshold!r}{origin}")


def benchmark_name(report: Any, path: Path,
                   gates: Dict[str, Any]) -> str:
    """Which gate table applies to this report?"""
    if isinstance(report, dict):
        name = report.get("benchmark")
        if name:
            return name
        if "traceEvents" in report:
            return "obs_trace"
    stem = path.stem
    if stem.startswith("BENCH_"):
        stem = stem[len("BENCH_"):]
    if stem in gates:
        return stem
    return stem.split("_")[0]


def gate_report(path: Path, gates: Dict[str, Any],
                log=print) -> List[str]:
    """Run every configured check against one report; returns failures."""
    with open(path) as handle:
        report = json.load(handle)
    name = benchmark_name(report, path, gates)
    table = gates.get(name)
    if table is None:
        raise GateConfigError(
            f"{path}: no gate table for benchmark {name!r} "
            f"(known: {', '.join(sorted(gates))})")
    checks = table.get("check", [])
    if not checks:
        raise GateConfigError(f"gate table {name!r} has no checks")
    failures = []
    log(f"{path} ({name}): {len(checks)} checks")
    for check in checks:
        ok, detail = run_check(report, check)
        log(f"  {'PASS' if ok else 'FAIL'} {detail}")
        if not ok:
            failures.append(f"{path}: {detail}")
    return failures


def load_gates(path: Path) -> Dict[str, Any]:
    with open(path, "rb") as handle:
        return tomllib.load(handle)


def _default_gates_path() -> Path:
    local = Path("benchmarks/gates.toml")
    if local.exists():
        return local
    return (Path(__file__).resolve().parents[3]
            / "benchmarks" / "gates.toml")


def main(argv: Sequence[str] = None) -> int:
    parser = argparse.ArgumentParser(
        prog="python -m repro.bench.gate",
        description="Gate benchmark reports against committed "
                    "thresholds (benchmarks/gates.toml)")
    parser.add_argument("reports", nargs="+", metavar="REPORT.json",
                        help="benchmark report(s) to gate")
    parser.add_argument("--gates", default=None, metavar="TOML",
                        help="threshold file (default "
                             "benchmarks/gates.toml)")
    args = parser.parse_args(argv)
    gates_path = Path(args.gates) if args.gates \
        else _default_gates_path()
    try:
        gates = load_gates(gates_path)
    except (OSError, tomllib.TOMLDecodeError) as exc:
        print(f"cannot load gates file {gates_path}: {exc}",
              file=sys.stderr)
        return 2
    failures: List[str] = []
    try:
        for report in args.reports:
            failures += gate_report(Path(report), gates)
    except (OSError, json.JSONDecodeError, GateConfigError) as exc:
        print(f"gate error: {exc}", file=sys.stderr)
        return 2
    if failures:
        print(f"\n{len(failures)} gate check(s) FAILED:")
        for failure in failures:
            print(f"  {failure}")
        return 1
    print("all gates passed")
    return 0


if __name__ == "__main__":
    sys.exit(main())
