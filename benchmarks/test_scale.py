"""Sim-core scale benchmark: the BENCH_scale sweep and its assertions.

Sweeps the seeded scale scenario across three decades of node count
(10^3 and 10^4 by default; 10^5 with ``--paper-scale``) and writes
``BENCH_scale.json`` (untracked) at the repo root.  The 10^4 point is
the gated one — the assertions below are the gate, nothing re-reads the
report — on two things:

* **determinism** — with ``PYTHONHASHSEED=0`` (the chaos CLI's
  canonical mode, exported by the CI job) behaviour is a pure function
  of the seed, so a second run of the gated configuration must process
  exactly the same number of logical events;
* **what the protocol schedules** — that count has no spread to wait
  for, so it is held under a ceiling: work that returns per idle
  session (a periodic timer, a round each session pays for) fails it;
* **the rate a user of the simulator feels** — simulated milliseconds
  per wall-clock second at 10^4 nodes, against an absolute floor.

Events are *logical* events — what a one-event-per-message loop would
have processed — so counts stay comparable across loop rewrites even
though same-tick batch delivery retires several messages per loop
event.  They are no longer comparable across *protocol* changes, and
are not meant to be: the pre-rewrite loop processed 7 071 754 events
at 4.7 simulated ms per wall second at this point, and interest-scoped
push fan-out removed 98.8 % of those events on purpose.

The floor is deliberately conservative: the reference machine records
several times it (EXPERIMENTS.md, "Recorded bench reports"), while the
assertion only requires ``GATE_MIN_SIM_MS_PER_WALL_S`` so slower CI
runners do not flap the build.
"""

import json
import os
from pathlib import Path

from repro.bench.scale import SWEEP, ScaleConfig, run_scale

REPO_ROOT = Path(__file__).resolve().parent.parent
REPORT_PATH = REPO_ROOT / "BENCH_scale.json"

#: Regression floor for CI, in simulated ms per wall-clock second at the
#: gated point.  The reference machine records several times this;
#: the every-session broadcast this replaced ran at 43 there, so a
#: return to per-session work per round fails on any hardware.
GATE_MIN_SIM_MS_PER_WALL_S = 250.0

#: The gated point: 10^4 nodes, the paper-scale "city" population.
GATED_NODES = 10_000

#: Ceiling on the gated point's logical events: 46 461 when it was set
#: (under ``PYTHONHASHSEED=0``), about x1.1 below it.  A retry tick every
#: 500 ms per session made it 86 704.
GATE_MAX_EVENTS_10K = 51_000


def _hash_seed_pinned() -> bool:
    return os.environ.get("PYTHONHASHSEED") == "0"


def test_scale_sweep_and_gate(paper_scale):
    configs = [c for c in SWEEP
               if paper_scale or c.n_nodes <= GATED_NODES]
    rows = [run_scale(config) for config in configs]

    gated = next(r for r in rows if r["n_nodes"] == GATED_NODES)
    replay = run_scale(next(c for c in configs
                            if c.n_nodes == GATED_NODES))

    report = {
        "benchmark": "sim_core_scale",
        "sweep": rows,
        "sim_ms_per_wall_s_10k": gated["sim_ms_per_wall_s"],
        "gate_min_sim_ms_per_wall_s": GATE_MIN_SIM_MS_PER_WALL_S,
        "events_10k": gated["events"],
        "gate_max_events_10k": GATE_MAX_EVENTS_10K,
        "replay_events_10k": replay["events"],
        "hash_seed_pinned": _hash_seed_pinned(),
    }
    REPORT_PATH.write_text(
        json.dumps(report, indent=2, sort_keys=True) + "\n")

    for row in rows:
        # The seeded workload must complete: every writer's transactions
        # commit (the scenario has no conflicts and heals nothing).
        assert row["txns_submitted"] > 0
        assert row["txns_committed"] == row["txns_submitted"]
        assert row["txns_aborted"] == 0
        assert row["events"] > 0

    if _hash_seed_pinned():
        assert replay["events"] == gated["events"], (
            "the gated configuration is not deterministic: two runs"
            f" processed {gated['events']} and {replay['events']}"
            " logical events")
    assert gated["events"] <= GATE_MAX_EVENTS_10K, (
        f"the gated configuration processed {gated['events']} logical"
        f" events, ceiling {GATE_MAX_EVENTS_10K}: something now schedules"
        " work per idle session")

    assert gated["sim_ms_per_wall_s"] >= GATE_MIN_SIM_MS_PER_WALL_S, (
        f"scale throughput regressed: {gated['sim_ms_per_wall_s']:.0f}"
        " simulated ms per wall second at 10^4 nodes, floor"
        f" {GATE_MIN_SIM_MS_PER_WALL_S:.0f}")


def test_sweep_covers_three_decades():
    """The default sweep definition spans 10^3..10^5 nodes."""
    nodes = sorted(c.n_nodes for c in SWEEP)
    assert nodes == [1_000, 10_000, 100_000]
    assert all(isinstance(c, ScaleConfig) for c in SWEEP)
