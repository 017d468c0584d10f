"""Million-node scale scenario: how fast does the simulator itself run?

The paper validates colony on a small Grid'5000 testbed (section 7); the
north star is millions of edge nodes, which makes the discrete-event
simulator the system under test here.  This module describes a *wide*
topology — many DCs, thousands of edge sessions, a small population of
active writers — as a :class:`~repro.serve.topology.Topology`, has
``build_sim_world`` build it (every session opens in the builder's
connect phase), and measures how many simulator events per wall-clock
second the sim core sustains.

The scenario is deterministic for a given ``ScaleConfig`` (all times and
choices come from seeded RNGs); only the wall-clock measurements differ
between machines.  The dominant event populations are exactly the ones
the sim-core fast path targets:

* timers — DC keepalive / anti-entropy / compaction ticks, Nagle
  replication flushes, and an edge's retry timer only while it waits
  for something (the timer-wheel load);
* message deliveries — session traffic, K-stable update pushes fanned
  out to every session, replication frames (the allocation-free
  delivery load).

``run_scale`` returns a plain dict so the benchmark sweep and the CLI
(`python -m repro.bench`) can serialise it straight into
``BENCH_scale.json``.
"""

from __future__ import annotations

import random
import time
from dataclasses import dataclass
from functools import partial
from typing import Any, Dict, List

from ..core.txn import ObjectKey
from ..serve.builder import build_sim_world
from ..serve.topology import Site, Topology
from ..serve.workload import Op, run_op
from ..sim.network import ETHERNET
from ..sim.runtime import Simulation


@dataclass
class ScaleConfig:
    """One point of the scale sweep (deterministic given the seed)."""

    n_nodes: int = 1000
    seed: int = 0
    #: Simulated measurement window (ms).  It starts at ``settle_ms``
    #: of simulated time; the settling before it (sessions opening,
    #: caches seeding) is excluded from the rates.
    duration_ms: float = 3000.0
    settle_ms: float = 800.0
    #: Edge nodes per cell; a cell shares one counter object, so pushes
    #: fan out within the cell while most traffic stays node-local.
    cell_size: int = 25
    #: Active writers are capped: scale grows the *session* population
    #: (timers, pushes, keepalives), not the offered write load.
    max_writers: int = 400
    txns_per_writer: int = 4

    def resolved_dcs(self) -> int:
        return max(2, min(8, self.n_nodes // 2500))

    def resolved_writers(self) -> int:
        return min(self.max_writers, max(20, self.n_nodes // 50))


def build_scale_world(config: ScaleConfig) -> Simulation:
    """The DC mesh and the edge population, built and connected."""
    n_dcs = config.resolved_dcs()
    dc_ids = [f"dc{i}" for i in range(n_dcs)]
    sites = [Site(d, "dc", n_shards=2, k_target=min(2, n_dcs))
             for d in dc_ids]
    for index in range(config.n_nodes):
        cell = index // config.cell_size
        sites.append(Site(
            f"n{index}", "edge", dc=dc_ids[cell % n_dcs],
            keys=[(ObjectKey("scale", f"cell{cell}"), "counter"),
                  (ObjectKey("scale", f"own{index}"), "counter")]))
    keys = list(dict.fromkeys(key for site in sites
                              for key in site.keys or ()))
    topo = Topology("scale", config.seed, sites, keys,
                    links={(a, b): ETHERNET for a in dc_ids
                           for b in dc_ids if a < b})
    return build_sim_world(topo).sim


def _schedule_writers(sim: Simulation, config: ScaleConfig,
                      start: float, counters: Dict[str, int]) -> None:
    """Arm the writer population inside the measurement window."""
    rng = random.Random(f"scale-load/{config.seed}")
    writers = config.resolved_writers()
    span = max(config.duration_ms - 400.0, 100.0)

    def done(result, stats):
        counters["committed"] += 1

    def abort(exc):
        counters["aborted"] += 1

    def fire(op: Op) -> None:
        counters["submitted"] += 1
        run_op(sim.actors[op.client], op, done, abort)

    for w in range(writers):
        index = rng.randrange(config.n_nodes)
        cell = index // config.cell_size
        for _ in range(config.txns_per_writer):
            at = start + rng.uniform(50.0, span)
            # 75% of writes hit the shared cell object (push fan-out),
            # the rest stay on the node's private counter.
            key = (ObjectKey("scale", f"cell{cell}")
                   if rng.random() < 0.75
                   else ObjectKey("scale", f"own{index}"))
            sim.loop.schedule_at(at, partial(fire, Op(
                at, f"n{index}", key, "counter", "increment", (1,))))


def run_scale(config: ScaleConfig) -> Dict[str, Any]:
    """Build, settle, measure.  Returns the BENCH_scale row.

    This module is the one place wall-clock reads are the *measurement*,
    not a determinism hazard: the simulated world is fully seeded, and
    ``perf_counter`` only times how fast the host executes it.
    """
    # colony-lint: disable=D101
    build_wall = time.perf_counter()
    sim = build_scale_world(config)
    counters = {"submitted": 0, "committed": 0, "aborted": 0}
    build_wall = time.perf_counter() - build_wall   # colony-lint: disable=D101

    settle_wall = time.perf_counter()               # colony-lint: disable=D101
    sim.run_for(max(0.0, config.settle_ms - sim.now))
    settle_wall = time.perf_counter() - settle_wall  # colony-lint: disable=D101

    _schedule_writers(sim, config, sim.now, counters)
    events_before = sim.loop.processed_events
    stats_before = sim.network.stats.snapshot()
    # The settled world is static for the rest of the run; freezing it
    # out of cyclic-GC scanning measures the sim core, not the
    # collector rescanning 10^5 immortal actors (see DESIGN.md §13).
    with sim.frozen_world() as frozen:
        t0 = time.perf_counter()                    # colony-lint: disable=D101
        sim.run_for(config.duration_ms)
        wall_s = time.perf_counter() - t0           # colony-lint: disable=D101
    loop_events = sim.loop.processed_events - events_before
    phase = sim.network.stats.since(stats_before)
    # Logical events: what a one-event-per-message loop (the pre-batching
    # implementation, and the committed baseline) would have processed.
    # Each delivery batch is one loop event carrying ``len(batch)``
    # messages, so the difference is exactly the saved heap operations.
    events = loop_events - phase.delivery_events + phase.messages_delivered

    return {
        "n_nodes": config.n_nodes,
        "n_dcs": config.resolved_dcs(),
        "writers": config.resolved_writers(),
        "seed": config.seed,
        "sim_ms": config.duration_ms,
        "build_wall_s": round(build_wall, 3),
        "settle_wall_s": round(settle_wall, 3),
        "wall_s": round(wall_s, 3),
        "events": events,
        "loop_events": loop_events,
        "messages_delivered": phase.messages_delivered,
        "events_per_sec": round(events / wall_s, 1) if wall_s else 0.0,
        "sim_ms_per_wall_s": round(config.duration_ms / wall_s, 1)
        if wall_s else 0.0,
        "txns_submitted": counters["submitted"],
        "txns_committed": counters["committed"],
        "txns_aborted": counters["aborted"],
        "pending_events": sim.loop.pending(),
        "gc_frozen_objects": frozen,
    }


#: The default sweep: three decades of node count.  Durations shrink as
#: the population grows so each point stays minutes-bounded; events/s is
#: a *rate*, so the shorter window does not bias it.
SWEEP = (
    ScaleConfig(n_nodes=1_000, duration_ms=4000.0),
    ScaleConfig(n_nodes=10_000, duration_ms=2000.0),
    ScaleConfig(n_nodes=100_000, duration_ms=400.0, settle_ms=1000.0),
)


def run_sweep(configs=SWEEP) -> List[Dict[str, Any]]:
    return [run_scale(config) for config in configs]
