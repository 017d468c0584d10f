"""Partial-replication benchmark: replica-factor sweep at 10 DCs.

Drives a writes-heavy 10-DC mesh (k=3) from injector actors, once per
interest configuration on the *same* workload and seed:

* ``full`` — no shard map: every DC ships its whole commit stream to
  every peer;
* an explicit all-interested shard map (replica factor 10) — the same
  configuration spelled differently, so it must produce byte-identical
  frames and digests to ``full``;
* replica factors 3 and 1 — the interest graph prunes the mesh, and
  DC-link bytes/txn must drop accordingly.

For each run the benchmark records DC-link bytes and messages per
committed transaction (honest ``wire_size`` accounting, warm-up traffic
excluded via ``NetworkStats.snapshot()``/``since()``), the pruning
counters, and per-interested-DC convergence against independently
computed expected values.  A smaller traced run per mode contributes
commit→K-stable latency percentiles (tracing is a pure observer, so it
stays out of the byte-measured runs).

Writes ``BENCH_partial.json`` (untracked) at the repo root; the
assertions at the end are the acceptance gate: >= 50% byte reduction at
replica factor 3 vs the full mesh, more at replica factor 1, and digest
and frame parity in the all-interested configuration.
"""

import json
import time
from pathlib import Path

import pytest

from repro.core import (CommitStamp, Dot, ObjectKey, Snapshot,
                        Transaction, VectorClock, WriteOp)
from repro.crdt.base import Operation
from repro.dc import DataCenter
from repro.dc.interest import ShardMap, shard_of
from repro.dc.messages import EdgeCommitBatch
from repro.obs import DC_COMMIT, K_STABLE, TraceRecorder
from repro.sim import LatencyModel, Simulation
from repro.sim.actor import Actor

DC_IDS = [f"dc{i}" for i in range(10)]
DC_LINKS = [(a, b) for a in DC_IDS for b in DC_IDS if a != b]
N_SHARDS = 16
KEYS = [ObjectKey("docs", f"doc{i}") for i in range(64)]
K_TARGET = 3

TXNS_PER_INJECTOR = 300
INJECT_BATCH = 32
#: Consecutive edits one injector makes to a document before moving on
#: — group-collaboration locality (an edge group works one document at
#: a time), which is what gives per-shard skip runs their length.
BURST = 25
#: Text chunk appended per edit; sized like a real collaborative edit
#: (a sentence fragment), not a 1-byte toy increment.
CHUNK_PAD = 48
HORIZON_MS = 5000.0
WARMUP_MS = 500.0


def _edit_key(index: int, counter: int) -> ObjectKey:
    """Document edited by injector ``index`` at txn ``counter`` (1-based).

    Bursty on purpose: ``BURST`` consecutive edits land on one document,
    then the group moves to another.  The ``* 7`` stride spreads groups
    across documents so most documents see several writers.
    """
    burst = (counter - 1) // BURST
    return KEYS[(index * 7 + burst) % len(KEYS)]


class Injector(Actor):
    """Commits pre-built transactions at its DC at a fixed rate.

    Writes-heavy on purpose: links prune *payload* entries per shard,
    so every transaction carries a document edit — an RGA append of a
    text chunk.  Root-anchored inserts commute (arbitrated by op tag), so
    payloads can be pre-built and replicas still converge.  The edit
    schedule is a deterministic function of (injector index, txn
    counter) so expected per-document edit counts can be recomputed
    independently.
    """

    def __init__(self, node_id, loop, network, dc_id, index, total,
                 rng=None):
        super().__init__(node_id, loop, network, rng)
        self.dc_id = dc_id
        self.total = total
        self.sent = 0
        self._payloads = []
        for counter in range(1, total + 1):
            chunk = f"{node_id}:{counter}:" + "x" * CHUNK_PAD
            txn = Transaction(
                Dot(counter, self.node_id), self.node_id,
                Snapshot(VectorClock.zero(), []), CommitStamp(),
                [WriteOp(_edit_key(index, counter),
                         Operation("rga", "insert",
                                   {"anchor": [], "value": chunk}))])
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


def expected_edit_counts(total=TXNS_PER_INJECTOR):
    """Per-document edit counts implied by the injector schedule."""
    totals = {key: 0 for key in KEYS}
    for index in range(len(DC_IDS)):
        for counter in range(1, total + 1):
            totals[_edit_key(index, counter)] += 1
    return totals


def _build_mesh(sim: Simulation, replica_factor):
    """``replica_factor=None``: no shard map (full replication)."""
    shard_map = None
    if replica_factor is not None:
        shard_map = ShardMap(N_SHARDS, DC_IDS,
                             replica_factor=replica_factor)
    dcs = []
    for dc_id in DC_IDS:
        dc = sim.spawn(DataCenter, dc_id,
                       peer_dcs=[d for d in DC_IDS if d != dc_id],
                       n_shards=2, k_target=K_TARGET, shard_map=shard_map)
        dcs.append(dc)
    for a, b in DC_LINKS:
        if a < b:
            sim.network.set_link(a, b, LatencyModel(5.0))
    return dcs


def run_mode(replica_factor=None,
             txns_per_injector: int = TXNS_PER_INJECTOR,
             horizon_ms: float = HORIZON_MS):
    sim = Simulation(seed=42, default_latency=LatencyModel(1.0))
    dcs = _build_mesh(sim, replica_factor)
    # Warm-up: sync pings settle before the workload; snapshot so only
    # workload traffic counts.
    sim.run_for(WARMUP_MS)
    baseline = sim.network.stats.snapshot()
    for i, dc_id in enumerate(DC_IDS):
        sim.spawn(Injector, f"inj{i}", dc_id=dc_id, index=i,
                  total=txns_per_injector)
    start = time.perf_counter()
    sim.run_for(horizon_ms)
    wall_s = time.perf_counter() - start
    committed = sum(dc.stats["committed"] for dc in dcs)
    phase = sim.network.stats.since(baseline)
    dc_bytes = sum(phase.bytes_on(a, b) for a, b in DC_LINKS)
    dc_msgs = sum(phase.messages_on(a, b) for a, b in DC_LINKS)
    return {
        "mode": "full" if replica_factor is None else "partial",
        "replica_factor": replica_factor,
        "wall_seconds": wall_s,
        "committed": committed,
        "dc_link_bytes": dc_bytes,
        "dc_link_messages": dc_msgs,
        "bytes_per_txn": dc_bytes / committed if committed else 0.0,
        "repl_pruned_txns": sum(dc.stats["repl_pruned_txns"]
                                for dc in dcs),
        "repl_pruned_bytes": sum(dc.stats["repl_pruned_bytes"]
                                 for dc in dcs),
        "repl_backfills_out": sum(dc.stats["repl_backfills_out"]
                                  for dc in dcs),
        "link_counters": {dc.node_id: dc.repl_link_counters()
                          for dc in dcs},
        "digests": [sorted((repr(k), v)
                           for k, v in dc.state_digest().items())
                    for dc in dcs],
        "state_vectors": [dc.state_vector.to_dict() for dc in dcs],
        "_dcs": dcs,
    }


def run_traced_stability(replica_factor=None,
                         txns_per_injector: int = 60,
                         horizon_ms: float = 2500.0):
    """Commit -> K-stable latency at the origin DC, traced run.

    Separate (smaller) run so recorder overhead never pollutes the
    byte-measured sweep; the pipeline behaviour is identical because
    tracing is a pure observer.
    """
    sim = Simulation(seed=42, default_latency=LatencyModel(1.0))
    recorder = TraceRecorder()
    sim.network.obs = recorder
    _build_mesh(sim, replica_factor)
    sim.run_for(WARMUP_MS)
    for i, dc_id in enumerate(DC_IDS):
        sim.spawn(Injector, f"inj{i}", dc_id=dc_id, index=i,
                  total=txns_per_injector)
    sim.run_for(horizon_ms)
    latencies = []
    for _dot, spans in recorder.by_dot().items():
        commit = next((s for s in spans if s.kind == DC_COMMIT), None)
        if commit is None:
            continue
        stable = next((s for s in spans if s.kind == K_STABLE
                       and s.node == commit.node), None)
        if stable is not None:
            latencies.append(stable.t - commit.t)
    latencies.sort()
    if not latencies:
        return {"samples": 0}

    def pct(q):
        return latencies[min(len(latencies) - 1,
                             int(q * len(latencies)))]

    return {
        "samples": len(latencies),
        "mean_ms": sum(latencies) / len(latencies),
        "p50_ms": pct(0.50),
        "p95_ms": pct(0.95),
        "max_ms": latencies[-1],
    }


def check_interested_convergence(result):
    """Interested DCs hold complete, identical documents.

    For every document whose shard is in a DC's interest set: the DC
    materialised exactly the expected number of edits, and all
    interested DCs agree on the merged document byte for byte (origins
    additionally hold their own writes, which is allowed — the check is
    one-directional).
    """
    expected = expected_edit_counts()
    mismatches = []
    reference = {}
    for dc in result["_dcs"]:
        digest = dc.state_digest()
        interest = dc.interest_shards()
        for key, count in expected.items():
            if shard_of(key, N_SHARDS) not in interest:
                continue
            doc = digest.get(key) or []
            if len(doc) != count:
                mismatches.append((dc.node_id, repr(key),
                                   f"{len(doc)} edits", f"{count} edits"))
            elif key in reference and reference[key] != doc:
                mismatches.append((dc.node_id, repr(key),
                                   "diverged from sibling", ""))
            else:
                reference[key] = doc
    return mismatches


@pytest.mark.benchmark(group="partial-replication")
def test_replica_factor_sweep_recorded(benchmark):
    full = run_mode()
    all_int = run_mode(replica_factor=len(DC_IDS))
    rf3 = run_mode(replica_factor=3)
    rf1 = run_mode(replica_factor=1)

    expected = len(DC_IDS) * TXNS_PER_INJECTOR
    for result in (full, all_int, rf3, rf1):
        assert result["committed"] == expected, \
            f"{result['mode']} rf={result['replica_factor']} committed " \
            f"{result['committed']} != {expected}"

    # Equivalence: the explicit all-interested map must match no map
    # exactly — digests, frontiers, and the per-link frame counters
    # byte for byte.
    digest_parity = (full["digests"] == all_int["digests"]
                     and full["state_vectors"] == all_int["state_vectors"])
    frame_parity = full["link_counters"] == all_int["link_counters"]
    assert digest_parity, "all-interested map diverged from no map"
    assert frame_parity, \
        "all-interested map frames not byte-identical to no map"

    # Partial configurations: every interested DC converges to the
    # independently computed per-key totals, with no stream holes.
    for result in (rf3, rf1):
        mismatches = check_interested_convergence(result)
        assert not mismatches, \
            f"rf={result['replica_factor']}: {mismatches[:5]}"
        for dc in result["_dcs"]:
            assert dc.stream_gaps() == {}, (dc.node_id, dc.stream_gaps())
            assert dc.shard_stream_gaps() == {}, \
                (dc.node_id, dc.shard_stream_gaps())

    def reduction(result):
        return 1.0 - (result["bytes_per_txn"] / full["bytes_per_txn"])

    report = {
        "benchmark": "partial_replication",
        "workload": {"dcs": len(DC_IDS), "k_target": K_TARGET,
                     "n_shards": N_SHARDS, "keys": len(KEYS),
                     "txns": expected, "inject_batch": INJECT_BATCH,
                     "horizon_ms": HORIZON_MS},
        "modes": {
            name: {k: v for k, v in result.items()
                   if k not in ("digests", "_dcs", "link_counters")}
            for name, result in (("full", full),
                                 ("partial_rf10", all_int),
                                 ("partial_rf3", rf3),
                                 ("partial_rf1", rf1))
        },
        "digest_parity_all_interested": bool(digest_parity),
        "frame_parity_all_interested": bool(frame_parity),
        "byte_reduction_rf3": reduction(rf3),
        "byte_reduction_rf1": reduction(rf1),
        "stability_latency_ms": {
            "full": run_traced_stability(),
            "partial_rf3": run_traced_stability(replica_factor=3),
        },
    }
    out = Path(__file__).resolve().parents[1] / "BENCH_partial.json"
    out.write_text(json.dumps(report, indent=2) + "\n")

    benchmark(lambda: None)
    assert report["byte_reduction_rf3"] >= 0.50, \
        f"rf=3 only cut DC-link bytes/txn by " \
        f"{report['byte_reduction_rf3']:.0%}"
    assert report["byte_reduction_rf1"] > report["byte_reduction_rf3"], \
        "byte reduction must scale with replica factor"
