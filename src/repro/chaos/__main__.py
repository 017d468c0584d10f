"""CLI for the chaos harness: ``python -m repro.chaos``.

Examples::

    python -m repro.chaos --seeds 10                 # seeds 0-9, all topologies
    python -m repro.chaos --topology tree --seed 7   # replay one scenario
    python -m repro.chaos --interest partial         # narrow interest sets
    python -m repro.chaos --self-check               # planted-bug detection
    python -m repro.chaos --replay failing.json      # re-run a saved schedule
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from typing import List

from ..groups.peergroup import COMMIT_VARIANTS
from .runner import (TOPOLOGIES, ScenarioConfig, run_scenario, run_suite,
                     self_check, write_report)
from .schedule import FaultEvent


def _parse_args(argv: List[str]) -> argparse.Namespace:
    parser = argparse.ArgumentParser(
        prog="python -m repro.chaos",
        description="Seeded chaos scenarios with TCC+ invariant checking")
    parser.add_argument("--seeds", type=int, default=None,
                        help="number of seeds to run (default 3)")
    parser.add_argument("--seed-start", type=int, default=0,
                        help="first seed of the range (default 0)")
    parser.add_argument("--seed", type=int, default=None,
                        help="run exactly one seed (replay mode)")
    parser.add_argument("--topology", default="all",
                        choices=("all",) + TOPOLOGIES,
                        help="topology to run (default all)")
    parser.add_argument("--txns", type=int, default=24,
                        help="workload transactions per scenario")
    parser.add_argument("--window", type=float, default=6000.0,
                        help="fault/workload window in sim ms")
    parser.add_argument("--max-faults", type=int, default=8,
                        help="max fault events per schedule")
    parser.add_argument("--commit-variant", default="async",
                        choices=COMMIT_VARIANTS,
                        help="group commit variant under test "
                             "(default async)")
    parser.add_argument("--fault", action="append", default=None,
                        choices=("clock-skew",), metavar="KIND",
                        help="enable an opt-in fault family "
                             "(currently: clock-skew)")
    parser.add_argument("--interest", default="full",
                        choices=("full", "partial"),
                        help="'partial' adds a bystander session and "
                             "narrows one PoP child / group member to a "
                             "strict subset of the keys (default full)")
    parser.add_argument("--report", default=None, metavar="PATH",
                        help="write the JSON report here")
    parser.add_argument("--no-shrink", action="store_true",
                        help="skip schedule shrinking on failure")
    parser.add_argument("--self-check", action="store_true",
                        help="verify the checker catches a planted "
                             "dot-duplication bug")
    parser.add_argument("--replay", default=None, metavar="FILE",
                        help="re-run a saved failing schedule "
                             "(JSON with topology, seed, schedule)")
    parser.add_argument("--trace", default=None, metavar="PATH",
                        help="record lifecycle spans and write them "
                             "here (JSON lines); needs a single "
                             "--topology and --seed")
    return parser.parse_args(argv)


def _self_check(args: argparse.Namespace) -> int:
    seed = args.seed if args.seed is not None else 0
    caught, result = self_check(seed)
    if caught:
        print(f"self-check: planted dot-duplication bug caught "
              f"(seed={seed}, replay with --self-check --seed {seed})")
        for violation in result.violations[:3]:
            print(f"  {violation}")
        return 0
    print("self-check FAILED: the planted bug went undetected")
    return 1


def _traced_scenario(args: argparse.Namespace) -> int:
    """Run one scenario with lifecycle tracing; write the span log.

    Tracing is a pure observer (see ``repro.obs``): the scenario result
    is byte-identical with or without it, so the trace rides along as a
    separate artifact next to the report.
    """
    from repro.obs import TraceRecorder, to_jsonl
    if args.topology == "all" or args.seed is None:
        print("--trace needs a single scenario: pass --topology T "
              "--seed N", file=sys.stderr)
        return 2
    config = ScenarioConfig(topology=args.topology, seed=args.seed,
                            n_txns=args.txns, window_ms=args.window,
                            max_faults=args.max_faults,
                            commit_variant=args.commit_variant,
                            clock_skew=_clock_skew(args),
                            partial_interest=args.interest == "partial")
    recorder = TraceRecorder()
    result = run_scenario(config, recorder=recorder)
    with open(args.trace, "w") as handle:
        handle.write(to_jsonl(recorder))
    print(f"trace: {len(recorder.spans)} spans written to {args.trace}")
    if args.report:
        write_report({"scenarios": [result.to_dict()],
                      "ok": result.ok}, args.report)
        print(f"chaos: report written to {args.report}")
    print(json.dumps(result.to_dict(), indent=2, sort_keys=True))
    return 0 if result.ok else 1


def _clock_skew(args: argparse.Namespace) -> bool:
    return bool(args.fault and "clock-skew" in args.fault)


def _replay(args: argparse.Namespace) -> int:
    with open(args.replay) as handle:
        saved = json.load(handle)
    config = ScenarioConfig(
        topology=saved["topology"], seed=saved["seed"],
        n_txns=args.txns, window_ms=args.window,
        commit_variant=saved.get("commit_variant", "async"),
        clock_skew=saved.get("clock_skew", False),
        partial_interest=saved.get("partial_interest", False))
    schedule = [FaultEvent.from_dict(e) for e in saved["schedule"]]
    result = run_scenario(config, schedule=schedule)
    print(json.dumps(result.to_dict(), indent=2, sort_keys=True))
    return 0 if result.ok else 1


def main(argv: List[str] = None) -> int:
    # Replayability requires stable set/dict iteration: re-exec with a
    # pinned hash seed, otherwise the same scenario seed can diverge
    # between processes.
    if argv is None and os.environ.get("PYTHONHASHSEED") is None:
        os.environ["PYTHONHASHSEED"] = "0"
        os.execv(sys.executable,
                 [sys.executable, "-m", "repro.chaos"] + sys.argv[1:])
    args = _parse_args(sys.argv[1:] if argv is None else argv)
    if args.self_check:
        return _self_check(args)
    if args.replay:
        return _replay(args)
    if args.trace:
        return _traced_scenario(args)

    topologies = TOPOLOGIES if args.topology == "all" \
        else (args.topology,)
    if args.seed is not None:
        seeds = [args.seed]
    else:
        count = args.seeds if args.seeds is not None else 3
        seeds = list(range(args.seed_start, args.seed_start + count))

    print(f"chaos: topologies={','.join(topologies)} seeds={seeds}")
    report = run_suite(
        seeds, topologies,
        config_kwargs={"n_txns": args.txns, "window_ms": args.window,
                       "max_faults": args.max_faults,
                       "commit_variant": args.commit_variant,
                       "clock_skew": _clock_skew(args),
                       "partial_interest": args.interest == "partial"},
        shrink=not args.no_shrink, log=print)
    totals = report["totals"]
    print(f"chaos: {totals['passed']}/{totals['scenarios']} scenarios "
          f"passed, {totals['faults_injected']} faults, "
          f"{totals['messages_dropped']} messages dropped, "
          f"{totals['txns_committed']} txns committed")
    if args.report:
        write_report(report, args.report)
        print(f"chaos: report written to {args.report}")
    if not report["ok"]:
        for scenario in report["scenarios"]:
            if scenario["ok"]:
                continue
            print(f"\nFAILING: --topology {scenario['topology']} "
                  f"--seed {scenario['seed']}")
            for violation in scenario["violations"]:
                print(f"  [{violation['invariant']}] "
                      f"{violation['node']}: {violation['detail']}")
            minimal = scenario.get("minimal_schedule")
            if minimal is not None:
                print("  minimal failing schedule:")
                for event in minimal:
                    print(f"    {FaultEvent.from_dict(event)!r}")
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
