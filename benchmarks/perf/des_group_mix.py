"""``des_group_mix``: two peer groups, readers beside writers.

One DC and two five-member peer groups on LAN links, one committing
with ``commit_variant="psi"`` (EPaxos on the critical path) and one with
``"tiga"`` (deadline fast path, EPaxos fallback).  Transactions arrive
on a schedule of 300 txn/s of simulated time, spread over the ten
members; 80 % are read-only (a growing ``orset`` document plus a
counter), 20 % add to the document, increment the counter and the
writer's probe.  An observer edge on the DC watches the probes.

The tiga group shares one document and one hot counter.  PSI aborts
write-write conflicts, and the workloads are chosen so that no
operation fails, so each psi member writes its own document and
counter and reads a random member's.

Who does the work: ``groups`` and ``epaxos`` (replica and
``TigaSequencer``), and under them the same ``store``/``core.journal``
layer ``des_geo_write`` only appends to — here it is read four times
for every write.  DC replication and the codec do almost nothing.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from typing import Any, Dict, List, Tuple

from repro.core import ObjectKey
from repro.dc import DataCenter
from repro.edge import EdgeNode
from repro.groups.peergroup import GroupMember, form_group
from repro.serve.workload import Op
from repro.sim import CELLULAR, ETHERNET, LAN

from .worlds import (DesWorld, Probe, SpeedMeter, Window, des_window, probe_key,
                     probe_op)

GROUPS = (("psi", "p"), ("tiga", "t"))
MEMBERS_PER_GROUP = 5
TXNS_PER_SIM_MS = 0.3
#: 80 % of all transactions are read-only.  The psi members write a
#: little more often than the tiga members (whose sync point ships at
#: most ~40 writes/s of simulated time): with five eighths of the probed
#: writes in the psi group, the pooled median of the two groups' very
#: different visibility latencies sits inside one mode, not between them.
READ_SHARE = {"psi": 0.75, "tiga": 0.85}
#: A member's next write is due no sooner than this after its previous
#: one: under PSI a write submitted while the member's previous write is
#: still in consensus (~0.4 ms, at most 1.4 ms here) conflicts with it.
MIN_WRITE_GAP_MS = 5.0
#: Simulated milliseconds of load per second of ``--seconds``, sized so
#: that the window takes about that long on the reference machine.
SIM_MS_PER_RUN_SECOND = 2000.0


Pair = Tuple[ObjectKey, ObjectKey]


@dataclass
class GroupWorld:
    des: DesWorld
    sim_ms: float
    dc: DataCenter
    members: List[GroupMember]
    observer: EdgeNode
    probe: Probe
    #: ``(offset_ms, member, ops, (document, counter) to read)``; ``ops``
    #: is empty for a read-only transaction.
    txns: List[Tuple[float, str, List[Op], Pair]]


def prepare(seed: int, seconds: float, quick: bool, recorder: Any,
            meter: SpeedMeter) -> GroupWorld:
    """Spawn the DC, form both groups, open the observer's session."""
    sim_ms = 1500.0 if quick else SIM_MS_PER_RUN_SECOND * seconds
    des = DesWorld(seed, CELLULAR, recorder, meter)
    sim = des.sim
    dc = des.spawn(DataCenter, "dc0", peer_dcs=[], n_shards=2, k_target=1)
    for shard in dc.shard_ids:
        sim.network.set_link("dc0", shard, LAN)
    members: List[GroupMember] = []
    #: member id -> pairs it may read; the first is the one it writes.
    objects: Dict[str, List[Pair]] = {}
    for variant, tag in GROUPS:
        names = [f"{tag}{i}" for i in range(MEMBERS_PER_GROUP)]
        if variant == "psi":
            pairs = [(ObjectKey("doc", n), ObjectKey("cnt", n))
                     for n in names]
        else:
            pairs = [(ObjectKey("doc", tag), ObjectKey("cnt", tag))]
        group = []
        for i, name in enumerate(names):
            member = des.spawn(GroupMember, name, dc_id="dc0",
                               group_id=tag, parent_id=names[0],
                               commit_variant=variant)
            for doc, counter in pairs:
                member.declare_interest(doc, "orset")
                member.declare_interest(counter, "counter")
            member.declare_interest(probe_key(name), "counter")
            # Own objects first; psi members write only those.
            objects[name] = pairs[i:] + pairs[:i] if variant == "psi" \
                else pairs
            group.append(member)
        for a in names:
            for b in names:
                if a < b:
                    sim.network.set_link(a, b, LAN)
        sim.network.set_link(names[0], "dc0", ETHERNET)
        form_group(group)
        members.extend(group)
    observer = des.spawn(EdgeNode, "observer", dc_id="dc0")
    read = des.tracing.caller("store", "read_value", observer.read_value)
    probe = Probe(observer, lambda: sim.now, {}, read=read)
    probe.watch(objects)
    observer.connect()
    des.run_for(1000.0)  # groups formed, sessions open, caches seeded
    return GroupWorld(des, sim_ms, dc, members, observer, probe,
                      _plan(seed, sim_ms, objects))


def _plan(seed: int, sim_ms: float, objects: Dict[str, List[Pair]]
          ) -> List[Tuple[float, str, List[Op], Pair]]:
    rng = random.Random(f"perf-group/{seed}")
    names = sorted(objects)
    read_share = {f"{tag}{i}": READ_SHARE[variant]
                  for variant, tag in GROUPS
                  for i in range(MEMBERS_PER_GROUP)}
    n_txns = max(1, round(sim_ms * TXNS_PER_SIM_MS))
    times = sorted(rng.uniform(0.0, sim_ms) for _ in range(n_txns))
    last_write = {name: -MIN_WRITE_GAP_MS for name in names}
    # Members take turns and a member's writes are spaced by its share,
    # so every seed has the same number of writes per member (the
    # consensus cost grows with the square of it); the seed draws the
    # times and the objects read.
    owed = {name: 0.0 for name in names}
    txns = []
    for i, at in enumerate(times):
        name = names[i % len(names)]
        reads = rng.choice(objects[name])
        owed[name] += 1.0 - read_share[name]
        if owed[name] < 1.0:
            txns.append((at, name, [], reads))
            continue
        owed[name] -= 1.0
        at = last_write[name] = max(at, last_write[name] + MIN_WRITE_GAP_MS)
        doc, counter = objects[name][0]
        txns.append((at, name, [
            Op(at, name, doc, "orset", "add", (f"{name}:{i}",)),
            Op(at, name, counter, "counter", "increment", (1,)),
            probe_op(name, at)], reads))
    return txns


def measure(world: GroupWorld) -> Window:
    des, sim, probe, txns = world.des, world.des.sim, world.probe, world.txns
    by_name = {m.node_id: m for m in world.members}
    aborted: List[Exception] = []
    reads_done: List[Any] = []
    commit_ms: List[float] = []
    start = sim.now

    def fire(member: GroupMember, ops: List[Op], pair: Pair) -> None:
        if ops:
            def body(tx):
                for op in ops:
                    yield tx.update(op.key, op.type_name, op.method,
                                    *op.args)
            member.run_transaction(
                body, on_done=lambda r, s: commit_ms.append(s.latency),
                on_abort=aborted.append)
        else:
            def body(tx):
                doc = yield tx.read(pair[0], "orset")
                hot = yield tx.read(pair[1], "counter")
                return len(doc), hot
            member.run_transaction(
                body, on_done=lambda r, s: reads_done.append(r),
                on_abort=aborted.append)

    submit = des.tracing.caller("groups", "run_transaction", fire)
    writes = 0
    for at, name, ops, pair in txns:
        if ops:
            probe.due.setdefault(name, []).append(start + at)
            writes += 1
        des.timers.schedule_at(
            start + at,
            lambda m=by_name[name], o=ops, p=pair: submit(m, o, p))

    common = des_window(
        des, [world.dc], world.members, [world.observer], world.sim_ms,
        lambda: (probe.visible_txns >= writes
                 and len(reads_done) + writes + len(aborted) >= len(txns)),
        [op for _, _, ops, _ in txns for op in ops])
    common["counts"]["groups.commits"] = len(commit_ms)
    return Window(submitted=len(txns),
                  visible=probe.visible_txns + len(reads_done),
                  aborted=len(aborted), latencies_ms=probe.latencies_ms,
                  series={"commit_ms": commit_ms}, **common)
