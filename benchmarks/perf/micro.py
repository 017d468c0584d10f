"""Micro-layer drivers: one fixed-input loop per layer, ops per second.

Each driver calls a layer's public functions directly, on inputs that
do not depend on the workload seed, and is sized to a fraction of a
second here.  They run once per traced invocation and are reported with
the per-layer numbers.  What a faster number should move end to end is
written next to each in the README: a faster ``transport.*_per_s``
moves ``txn_per_s`` on ``live_saturate`` by at most the codec's share of
its CPU, and nothing on ``des_*``; a faster ``core.vc_*`` moves
``des_sessions`` and ``des_geo_write``; a faster ``store.materialise_*``
moves ``des_group_mix`` only.
"""

from __future__ import annotations

import asyncio
from time import perf_counter
from typing import Any, Callable, Dict, List, Tuple

from repro.core import (CommitStamp, Dot, ObjectJournal, ObjectKey, Snapshot,
                        Transaction, VectorClock, WriteOp)
from repro.crdt import Counter, ORSet, RGASequence
from repro.dc import DataCenter
from repro.dc.messages import EdgeCommitBatch, ReplicateBatch, UpdatePush
from repro.edge import EdgeNode
from repro.epaxos import EPaxosReplica
from repro.epaxos.messages import TigaAck
from repro.epaxos.tiga import TigaSequencer
from repro.sim import (EventLoop, HybridLogicalClock, LatencyModel,
                       Simulation, SkewedClock)
from repro.sim.actor import Actor
from repro.store import MaterialisedCache
from repro.transport import decode_frame, encode_frame
from repro.transport.asyncio_backend import AsyncioTransport
from repro.transport.samples import all_samples, samples_by_class

from .spans import SpanRecorder
from .worlds import spin

KEY = ObjectKey("b", "x")


def _rate(n: int, fn: Callable[[], Any]) -> float:
    """``n`` operations done by one call of ``fn``, per second."""
    start = perf_counter()
    fn()
    return n / (perf_counter() - start)


def _increment_txn(i: int, stamp: Dict[str, int]) -> Transaction:
    return Transaction(Dot(i, "e"), "e", Snapshot(VectorClock()),
                       CommitStamp(stamp),
                       [WriteOp(KEY, Counter().prepare("increment", 1))])


def _hot_journal(entries: int = 300) -> ObjectJournal:
    journal = ObjectJournal(KEY, "counter")
    for i in range(1, entries + 1):
        journal.append(_increment_txn(i, {"dc0": i}))
    return journal


class _Sink(Actor):
    def on_message(self, message: Any, sender: str) -> None:
        pass


# -- sim ------------------------------------------------------------------

def sim_loop() -> Dict[str, float]:
    n = 200_000
    loop = EventLoop()

    def run() -> None:
        noop = lambda: None                             # noqa: E731
        for i in range(n):
            loop.schedule_fast(i * 0.01, noop)
        loop.run()
    return {"sim.loop_events_per_s": _rate(n, run)}


def sim_net() -> Dict[str, float]:
    n = 300_000
    sim = Simulation(seed=1, default_latency=LatencyModel(1.0, 0.5))
    sim.spawn(_Sink, "a")
    sim.spawn(_Sink, "b")
    send = sim.network.send

    def run() -> None:
        for i in range(n):
            send("a", "b", i, 64)
            if i % 1000 == 999:
                sim.run_for(1.0)
        sim.run_for(10.0)
    return {"sim.net_sends_per_s": _rate(n, run)}


# -- transport ------------------------------------------------------------

def codec() -> Dict[str, float]:
    corpus = all_samples()
    reps = 40
    frames: List[bytes] = []

    def encode() -> None:
        for _ in range(reps):
            frames[:] = [encode_frame("dc0", "dc1", m) for m in corpus]

    def decode() -> None:
        for _ in range(reps):
            for frame in frames:
                decode_frame(frame[4:])

    n = reps * len(corpus)
    enc = _rate(n, encode)
    mb = reps * sum(len(f) for f in frames) / 1e6
    dec = _rate(n, decode)
    return {"transport.encode_msgs_per_s": enc,
            "transport.encode_mb_per_s": enc * mb / n,
            "transport.decode_msgs_per_s": dec,
            "transport.decode_mb_per_s": dec * mb / n}


async def _tcp_frames(n: int) -> float:
    got = asyncio.Event()
    seen = [0]

    def sink(message: Any, sender: str) -> None:
        seen[0] += 1
        if seen[0] == n:
            got.set()

    homes = {"a": "A", "b": "B"}
    left = AsyncioTransport("A", homes=homes, listen=("127.0.0.1", 0))
    right = AsyncioTransport("B", homes=homes, listen=("127.0.0.1", 0))
    try:
        await left.start()
        await right.start()
        left.peer_addrs["B"] = right.listen_addr
        right.attach("b", sink)
        frame = samples_by_class()[ReplicateBatch][0]
        start = perf_counter()
        for _ in range(n):
            left.send("a", "b", frame)
        await asyncio.wait_for(got.wait(), 30.0)
        return n / (perf_counter() - start)
    finally:
        await left.stop()
        await right.stop()


def tcp() -> Dict[str, float]:
    return {"transport.tcp_frames_per_s": asyncio.run(_tcp_frames(3000))}


# -- core, store, crdt ----------------------------------------------------

def vector_clocks() -> Dict[str, float]:
    n = 100_000
    a = VectorClock({f"dc{i}": i for i in range(8)})
    b = VectorClock({f"dc{i}": 10 - i for i in range(8)})

    def merge() -> None:
        for _ in range(n):
            a.merge(b)

    def dominates() -> None:
        for _ in range(n):
            a.dominates(b)
    return {"core.vc_merge_per_s": _rate(n, merge),
            "core.vc_dominates_per_s": _rate(n, dominates)}


def journal() -> Dict[str, float]:
    txns = [_increment_txn(i, {}) for i in range(1, 201)]
    reps = 100

    def append() -> None:
        for _ in range(reps):
            fresh = ObjectJournal(KEY, "counter")
            for txn in txns:
                fresh.append(txn)
    return {"core.journal_append_per_s": _rate(reps * len(txns), append)}


def materialise() -> Dict[str, float]:
    hot = _hot_journal()
    vec = VectorClock({"dc0": 300})
    visible = lambda e: e.txn.commit.included_in(vec)   # noqa: E731

    def cold() -> None:
        for _ in range(100):
            hot.materialise(visible)

    cache = MaterialisedCache()
    token = ("bench", vec)
    cache.materialise(hot, visible, token=token)

    def hit() -> None:
        for _ in range(100_000):
            cache.materialise(hot, visible, token=token)

    def incremental() -> None:
        for i in range(301, 601):
            hot.append(_increment_txn(i, {"dc0": i}))
            at = VectorClock({"dc0": i})
            cache.materialise(hot, lambda e: e.txn.commit.included_in(at),
                              token=("bench", at))
    return {"store.materialise_cold_per_s": _rate(100, cold),
            "store.materialise_hit_per_s": _rate(100_000, hit),
            "store.materialise_incr_per_s": _rate(300, incremental)}


def crdt() -> Dict[str, float]:
    n = 5_000
    counter_ops = [Counter().prepare("increment", 1).with_tag((i, "a", 0))
                   for i in range(n)]
    probe_set = ORSet()
    set_ops = [probe_set.prepare("add", i % 500).with_tag((i, "a", 0))
               for i in range(n)]

    def run() -> None:
        counter, orset, seq = Counter(), ORSet(), RGASequence()
        for op in counter_ops:
            counter.apply(op)
        for op in set_ops:
            orset.apply(op)
        for i in range(n // 10):
            seq.apply(seq.prepare("append", i).with_tag((i + 1, "a", 0)))
    return {"crdt.apply_ops_per_s": _rate(2 * n + n // 10, run)}


# -- dc -------------------------------------------------------------------

def _dc_mesh(n_dcs: int, n_txns: int) -> float:
    sim = Simulation(seed=3, default_latency=LatencyModel(1.0))
    ids = [f"dc{i}" for i in range(n_dcs)]
    dcs = [sim.spawn(DataCenter, d, peer_dcs=[p for p in ids if p != d],
                     n_shards=2, k_target=n_dcs, service_time_ms=0.0)
           for d in ids]
    sim.spawn(_Sink, "inj")
    payloads = [Transaction(Dot(i, "inj"), "inj",
                            Snapshot(VectorClock.zero(), []), CommitStamp(),
                            [WriteOp(KEY, Counter().prepare("increment", 1))]
                            ).to_dict() for i in range(1, n_txns + 1)]
    sim.run_for(100.0)

    def run() -> None:
        for j in range(0, n_txns, 32):
            sim.network.send("inj", "dc0",
                             EdgeCommitBatch(tuple(payloads[j:j + 32])))
            sim.run_for(2.0)
        sim.run_for(200.0)
    rate = _rate(n_txns, run)
    if any(dc.stats["committed"] + dc.stats["replicated_in"] != n_txns
           for dc in dcs):
        raise RuntimeError("micro dc driver lost transactions")
    return rate


def dc() -> Dict[str, float]:
    return {"dc.commit_txns_per_s": _dc_mesh(1, 1600),
            "dc.repl_txns_per_s": _dc_mesh(2, 1600)}


# -- epaxos ---------------------------------------------------------------

def epaxos() -> Dict[str, float]:
    members = ["a", "b", "c"]
    n = 1500
    queue: List[Tuple[str, str, Any]] = []
    executed: List[int] = []
    replicas = {
        m: EPaxosReplica(
            m, members, keys_of=lambda c: c["keys"],
            on_execute=lambda c, i: executed.append(c["id"]),
            send=(lambda src: lambda dst, msg:
                  queue.append((src, dst, msg)))(m))
        for m in members}

    def run() -> None:
        for i in range(n):
            replicas[members[i % 3]].propose({"id": i, "keys": [f"k{i}"]})
            while queue:
                batch, queue[:] = list(queue), []
                for src, dst, msg in batch:
                    replicas[dst].handle(msg, src)
    rate = _rate(n, run)
    if len(executed) != 3 * n:
        raise RuntimeError("micro epaxos driver did not execute everywhere")
    return {"epaxos.instances_per_s": rate}


def tiga() -> Dict[str, float]:
    n = 3000
    loop = EventLoop()
    clock = SkewedClock(loop)
    commits: List[Any] = []
    seq = TigaSequencer(
        "a", ["a", "b", "c"], clock, HybridLogicalClock(clock, "a"),
        send=lambda to, msg: None,
        on_commit=lambda key, d: commits.append(key),
        on_release=lambda cmd, d, in_order: None,
        on_fallback=lambda key: None,
        set_timer=loop.schedule, now_fn=lambda: loop.now)

    def run() -> None:
        for i in range(1, n + 1):
            dot = {"counter": i, "origin": "a"}
            deadline = seq.propose({"dot": dot, "payload": "x"})
            seq.handle(TigaAck(dot, deadline, True, 0.0), "b")
            if i % 100 == 0:
                loop.run(until=loop.now + 1000.0)
    rate = _rate(n, run)
    if len(commits) != n:
        raise RuntimeError("micro tiga driver missed fast commits")
    return {"epaxos.tiga_rounds_per_s": rate}


# -- edge -----------------------------------------------------------------

def edge_push() -> Dict[str, float]:
    n = 4000
    sim = Simulation(seed=5, default_latency=LatencyModel(1.0))
    sim.spawn(DataCenter, "dc0", peer_dcs=[], n_shards=1, k_target=1)
    node = sim.spawn(EdgeNode, "e", dc_id="dc0")
    node.declare_interest(KEY, "counter")
    node.connect()
    sim.run_for(200.0)
    base = node.vector.to_dict().get("dc0", 0)
    pushes = []
    for i in range(1, n + 1):
        txn = Transaction(Dot(i, "w"), "w", Snapshot(VectorClock.zero(), []),
                          CommitStamp({"dc0": base + i}),
                          [WriteOp(KEY, Counter().prepare("increment", 1))])
        pushes.append(UpdatePush((txn.to_dict(),), {"dc0": base + i},
                                 {"dc0": base + i - 1}))

    def run() -> None:
        for push in pushes:
            node.on_message(push, "dc0")
    rate = _rate(n, run)
    if node.read_value(KEY, "counter") != n:
        raise RuntimeError("micro edge driver lost pushes")
    return {"edge.push_apply_per_s": rate}


# -- obs, bench -----------------------------------------------------------

def span_records() -> Dict[str, float]:
    n = 200_000
    recorder = SpanRecorder()
    acc = recorder.acc("bench", "noop")
    noop = lambda: None                                 # noqa: E731

    def run() -> None:
        call = recorder.call
        for _ in range(n):
            call(acc, noop)
    return {"obs.span_records_per_s": _rate(n, run)}


def calibration() -> Dict[str, float]:
    """The loop the ``SpeedMeter`` slices, for longer: the machine's
    fingerprint in iterations/s, stored with every ledger row."""
    n = 1_000_000
    return {"bench.calibration_score": _rate(n, lambda: spin(n))}


DRIVERS = (sim_loop, sim_net, codec, tcp, vector_clocks, journal,
           materialise, crdt, dc, epaxos, tiga, edge_push, span_records,
           calibration)


def run_all() -> Dict[str, float]:
    results: Dict[str, float] = {}
    for driver in DRIVERS:
        results.update(driver())
    return results


if __name__ == "__main__":
    for name, value in run_all().items():
        print(f"{name:36s} {value:14.1f} 1/s")
