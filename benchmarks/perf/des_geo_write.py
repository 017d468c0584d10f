"""``des_geo_write``: write-only geo-replication through a 5-DC mesh.

Five DCs in a full mesh (``repro.serve.builder.DC_MESH`` links,
``k_target=3``), each built with the *default* replication arguments so
the workload survives a refactor of the replication modes.  One
injector actor per DC commits pre-built transactions straight at it in
32-transaction ``EdgeCommitBatch``es (as
``benchmarks/test_replication_pipeline.py`` does), on a schedule that
keeps each DC's client-facing service queue at 80 % utilisation.  Every
transaction increments one of 64 counters; every eighth also increments
its injector's probe counter, and two observer edges on different DCs
watch the probes.

Who does the work: the DC sequencer and 2PC, replication frame build
and apply, vector-clock algebra, K-stability and push build.  The edge
layer sees only the sampled probe transactions, groups and epaxos see
nothing, and the store is appended to but never materialised except for
the five probe counters.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from typing import Any, List

from repro.core import (CommitStamp, Dot, ObjectKey, Snapshot, Transaction,
                        VectorClock, WriteOp)
from repro.crdt.base import Operation
from repro.dc import DataCenter
from repro.dc.messages import EdgeCommitBatch
from repro.edge import EdgeNode
from repro.serve.builder import DC_MESH
from repro.serve.workload import Op
from repro.sim import LAN, LatencyModel
from repro.sim.actor import Actor

from .worlds import (DesWorld, Probe, SpeedMeter, Window, des_window, probe_key,
                     probe_op)

N_DCS = 5
N_KEYS = 64
INJECT_BATCH = 32
#: One probe per this many transactions of an injector's ordered stream.
PROBE_EVERY = 8
#: A DC charges ``SERVICE_TIME_MS`` per client-facing transaction; one
#: batch every 10 ms is 3 200 txn/s against a capacity of 4 000.
BATCH_PERIOD_MS = INJECT_BATCH * DataCenter.SERVICE_TIME_MS / 0.8
OBSERVER_DCS = (1, 3)
#: Simulated time at which the injectors start.
START_AT_MS = 600.0
#: Batches per injector per second of ``--seconds``, sized so that the
#: window takes about that long on the reference machine.
BATCHES_PER_RUN_SECOND = 13.0

KEYS = [ObjectKey("geo", f"k{i}") for i in range(N_KEYS)]


class Injector(Actor):
    """Commits pre-built batches at its DC, one per ``BATCH_PERIOD_MS``."""

    def __init__(self, node_id: str, transport: Any, network: Any,
                 dc_id: str, batches: List[EdgeCommitBatch],
                 rng: Any = None):
        super().__init__(node_id, transport, network, rng)
        self.dc_id = dc_id
        self.batches = batches
        self.sent = 0

    def start(self) -> None:
        self._tick()

    def _tick(self) -> None:
        if self.sent < len(self.batches):
            self.send(self.dc_id, self.batches[self.sent])
            self.sent += 1
            self.set_timer(BATCH_PERIOD_MS, self._tick)

    def on_message(self, message: Any, sender: str) -> None:
        pass  # CommitAcks need no action


@dataclass
class GeoWorld:
    des: DesWorld
    dcs: List[DataCenter]
    observers: List[EdgeNode]
    injectors: List[Injector]
    probes: List[Probe]
    ops: List[Op]
    n_txns: int


def _increment(key: ObjectKey) -> WriteOp:
    return WriteOp(key, Operation("counter", "increment", {"amount": 1}))


def prepare(seed: int, seconds: float, quick: bool, recorder: Any,
            meter: SpeedMeter) -> GeoWorld:
    """Spawn mesh, observers and loaded injectors; open the sessions."""
    batches_per_injector = 6 if quick \
        else max(1, round(BATCHES_PER_RUN_SECOND * seconds))
    des = DesWorld(seed, LatencyModel(1.0), recorder, meter)
    sim = des.sim
    dc_ids = [f"dc{i}" for i in range(N_DCS)]
    dcs = []
    for dc_id in dc_ids:
        dc = des.spawn(DataCenter, dc_id,
                       peer_dcs=[d for d in dc_ids if d != dc_id],
                       n_shards=2, k_target=3)
        dcs.append(dc)
        for shard in dc.shard_ids:
            sim.network.set_link(dc_id, shard, LAN)
    for a in dc_ids:
        for b in dc_ids:
            if a < b:
                sim.network.set_link(a, b, DC_MESH)
    observers = [des.spawn(EdgeNode, f"obs{i}", dc_id=dc_ids[i])
                 for i in OBSERVER_DCS]

    # Payloads are pre-built so the window measures the replication
    # machinery, not the generator.
    rng = random.Random(f"perf-geo/{seed}")
    injectors, ops = [], []
    per_injector = batches_per_injector * INJECT_BATCH
    for i, dc_id in enumerate(dc_ids):
        name = f"inj{i}"
        payloads = []
        for counter in range(1, per_injector + 1):
            key = rng.choice(KEYS)
            writes = [_increment(key)]
            ops.append(Op(0.0, name, key, "counter", "increment", (1,)))
            if counter % PROBE_EVERY == 0:
                writes.append(_increment(probe_key(name)))
                ops.append(probe_op(name))
            payloads.append(Transaction(
                Dot(counter, name), name, Snapshot(VectorClock.zero(), []),
                CommitStamp(), writes).to_dict())
        batches = [EdgeCommitBatch(tuple(payloads[j:j + INJECT_BATCH]))
                   for j in range(0, per_injector, INJECT_BATCH)]
        injectors.append(des.spawn(Injector, name, dc_id=dc_id,
                                   batches=batches))

    # The k-th probe of an injector rides in transaction 8k, which is in
    # batch (8k - 1) // 32, due one period after the previous batch.
    due = {inj.node_id: [START_AT_MS + ((k * PROBE_EVERY - 1) // INJECT_BATCH)
                         * BATCH_PERIOD_MS
                         for k in range(1, per_injector // PROBE_EVERY + 1)]
           for inj in injectors}
    probes = []
    for observer in observers:
        read = des.tracing.caller("store", "read_value", observer.read_value)
        probe = Probe(observer, lambda: sim.now, due, weight=PROBE_EVERY,
                      read=read)
        probe.watch(due)
        observer.connect()
        probes.append(probe)
    des.run_for(START_AT_MS)   # sessions open, sync pings flowing
    return GeoWorld(des, dcs, observers, injectors, probes, ops,
                    per_injector * N_DCS)


def measure(world: GeoWorld) -> Window:
    probes = world.probes
    for injector in world.injectors:
        injector.start()
    horizon = len(world.injectors[0].batches) * BATCH_PERIOD_MS
    common = des_window(
        world.des, world.dcs, [], world.observers, horizon,
        lambda: min(p.visible_txns for p in probes) >= world.n_txns,
        world.ops)
    return Window(
        submitted=world.n_txns, visible=min(p.visible_txns for p in probes),
        aborted=0,  # a DC never refuses an injected commit
        latencies_ms=[ms for p in probes for ms in p.latencies_ms],
        **common)
