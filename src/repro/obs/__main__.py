"""CLI for the obs subsystem: ``python -m repro.obs``.

Runs a traced workload and prints the per-hop latency breakdown of the
transaction lifecycle (submit -> symbolic commit -> DC commit ->
replicated -> K-stable -> visible).  Two modes:

* default — a seeded 3-DC workload: one edge per DC, clients issue
  counter/or-set transactions, the trace captures every lifecycle
  station across the mesh;
* ``--schedule {group,pop,tree}`` — run the chaos scenario for that
  topology and seed with tracing attached (faults included), reusing
  the chaos runner's worlds and fault schedules.

Artifacts: ``--out`` writes a Chrome trace (load it in about:tracing
or https://ui.perfetto.dev), ``--jsonl`` writes one span per line.

Examples::

    python -m repro.obs                          # 3-DC workload, seed 0
    python -m repro.obs --seed 7 --txns 60
    python -m repro.obs --schedule group --seed 0 --out trace.json
    python -m repro.obs --schedule tree --seed 3 --require-complete
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from typing import List, Optional

from .export import (format_breakdown, latency_breakdown,
                     to_chrome_trace, to_jsonl)
from .registry import MetricsRegistry
from .trace import SPAN_KINDS, TraceRecorder


def _parse_args(argv: List[str]) -> argparse.Namespace:
    parser = argparse.ArgumentParser(
        prog="python -m repro.obs",
        description="Trace the transaction lifecycle and print the "
                    "per-hop latency breakdown")
    parser.add_argument("--schedule", default=None,
                        choices=("group", "pop", "tree"),
                        help="run this chaos topology's fault schedule "
                             "instead of the default 3-DC workload")
    parser.add_argument("--seed", type=int, default=0,
                        help="deterministic seed (default 0)")
    parser.add_argument("--txns", type=int, default=30,
                        help="number of workload transactions")
    parser.add_argument("--window", type=float, default=6000.0,
                        help="workload window in sim ms")
    parser.add_argument("--settle", type=float, default=10000.0,
                        help="settle time after the window in sim ms")
    parser.add_argument("--out", default=None, metavar="PATH",
                        help="write the Chrome trace JSON here")
    parser.add_argument("--jsonl", default=None, metavar="PATH",
                        help="write the span log (JSON lines) here")
    parser.add_argument("--metrics", default=None, metavar="PATH",
                        help="write the metrics registry dump here")
    parser.add_argument("--require-complete", action="store_true",
                        help="exit non-zero unless the trace contains "
                             "every lifecycle span kind")
    return parser.parse_args(argv)


def _run_three_dc_workload(seed: int, n_txns: int, window_ms: float,
                           settle_ms: float) -> TraceRecorder:
    """A 3-DC mesh with one edge client per DC, fully traced."""
    from ..core.txn import ObjectKey
    from ..serve.builder import build_sim_world, schedule_ops
    from ..serve.topology import Site, Topology
    from ..sim.network import LatencyModel

    sites = [Site(f"dc{i}", "dc", k_target=2) for i in range(3)]
    sites += [Site(f"e{i}", "edge", dc=f"dc{i}") for i in range(3)]
    keys = [(ObjectKey("obs", "counter0"), "counter"),
            (ObjectKey("obs", "set0"), "orset")]
    # Asymmetric WAN so the breakdown shows real replication spread.
    topo = Topology("obs-3dc", seed, sites, keys, n_txns, window_ms,
                    links={("dc0", "dc1"): LatencyModel(20.0, 2.0),
                           ("dc0", "dc2"): LatencyModel(60.0, 5.0),
                           ("dc1", "dc2"): LatencyModel(45.0, 4.0)})
    world = build_sim_world(topo)
    recorder = TraceRecorder()
    world.sim.network.obs = recorder
    schedule_ops(world, topo.workload())
    world.sim.run_for(window_ms + settle_ms)
    return recorder


def _run_chaos(topology: str, seed: int, n_txns: int,
               window_ms: float) -> "tuple[TraceRecorder, bool]":
    from ..chaos.runner import ScenarioConfig, run_scenario

    recorder = TraceRecorder()
    config = ScenarioConfig(topology=topology, seed=seed,
                            n_txns=n_txns, window_ms=window_ms)
    result = run_scenario(config, recorder=recorder)
    status = "ok" if result.ok else \
        f"FAILED ({result.violations[0].invariant})"
    print(f"chaos scenario {topology} seed={seed}: {status}, "
          f"{result.txns_committed} txns committed, "
          f"{result.faults_injected} faults, "
          f"{result.messages_dropped} messages dropped")
    return recorder, result.ok


def _summarise(recorder: TraceRecorder) -> List[str]:
    """Print the kind coverage line; returns the missing kinds."""
    present = recorder.kinds()
    missing = [kind for kind in SPAN_KINDS if kind not in present]
    print(f"trace: {len(recorder.spans)} spans, "
          f"{len(recorder.by_dot())} transactions, span kinds "
          f"{len(SPAN_KINDS) - len(missing)}/{len(SPAN_KINDS)}"
          + (f" (missing: {', '.join(missing)})" if missing else ""))
    return missing


def main(argv: Optional[List[str]] = None) -> int:
    # Same determinism contract as the chaos CLI: pin the hash seed so
    # a seed's trace is identical across processes.
    if argv is None and os.environ.get("PYTHONHASHSEED") is None:
        os.environ["PYTHONHASHSEED"] = "0"
        os.execv(sys.executable,
                 [sys.executable, "-m", "repro.obs"] + sys.argv[1:])
    args = _parse_args(sys.argv[1:] if argv is None else argv)

    ok = True
    if args.schedule is not None:
        recorder, ok = _run_chaos(args.schedule, args.seed, args.txns,
                                  args.window)
    else:
        recorder = _run_three_dc_workload(args.seed, args.txns,
                                          args.window, args.settle)

    registry = MetricsRegistry()
    breakdown = latency_breakdown(recorder, registry)
    print(format_breakdown(breakdown))
    missing = _summarise(recorder)

    if args.out:
        with open(args.out, "w") as handle:
            json.dump(to_chrome_trace(recorder), handle)
        print(f"chrome trace written to {args.out} "
              "(load in about:tracing or ui.perfetto.dev)")
    if args.jsonl:
        with open(args.jsonl, "w") as handle:
            handle.write(to_jsonl(recorder))
        print(f"span log written to {args.jsonl}")
    if args.metrics:
        with open(args.metrics, "w") as handle:
            json.dump(registry.to_dict(), handle, indent=2,
                      sort_keys=True)
        print(f"metrics written to {args.metrics}")

    if not recorder.spans:
        print("error: empty trace", file=sys.stderr)
        return 2
    if args.require_complete and missing:
        print(f"error: trace is missing span kinds: "
              f"{', '.join(missing)}", file=sys.stderr)
        return 2
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
