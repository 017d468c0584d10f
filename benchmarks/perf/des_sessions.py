"""``des_sessions``: the 10^4-session scale point, measured end to end.

The world is ``repro.bench.scale.build_scale_world``'s, built from the
same ``ScaleConfig`` (4 DCs, 10^4 edge sessions in 25-node cells, a
counter per cell and per node, cellular access links) but over this
benchmark's transports, so it can be traced, plus one observer session
on the last DC (three quarters of the writers commit at another one).

Load: a small writer population (``ScaleConfig.resolved_writers``)
commits counter increments on an evenly spaced schedule, 75 % on the
shared cell counter.  Who does the work: each K-stable transaction advances the
stable vector at every DC, and every advance is pushed to all ~2 500
sessions of that DC — the timer wheel, ``Network.send``, the edge
``UpdatePush`` handler and its vector merges do nearly everything.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from typing import Any, List, Tuple

from repro.bench.scale import ScaleConfig
from repro.core import ObjectKey
from repro.dc import DataCenter
from repro.edge import EdgeNode
from repro.serve.workload import Op
from repro.sim import CELLULAR, ETHERNET, LAN, LatencyModel

from .worlds import (DesWorld, Probe, SpeedMeter, Window, des_window,
                     probe_op)

#: Cellular access link of an edge session (as in ``repro.bench.scale``).
ACCESS = LatencyModel(50.0, 10.0)
#: Write transactions per simulated millisecond (400 per second-long
#: window in the gated configuration).
TXNS_PER_SIM_MS = 0.4
#: Simulated milliseconds of load per second of ``--seconds``, sized so
#: that load plus drain take about that long on the reference machine.
SIM_MS_PER_RUN_SECOND = 33.0


@dataclass
class SessionsWorld:
    des: DesWorld
    config: ScaleConfig
    dcs: List[DataCenter]
    observer: EdgeNode
    #: ``(offset_ms, node index, ops)`` per scheduled transaction.
    txns: List[Tuple[float, int, List[Op]]]
    probe: Probe


def _build(seed: int, n_nodes: int, sim_ms: float, recorder: Any,
           meter: SpeedMeter) -> Tuple[DesWorld, ScaleConfig,
                                       List[DataCenter], EdgeNode]:
    """``build_scale_world`` over this benchmark's transports."""
    config = ScaleConfig(n_nodes=n_nodes, seed=seed, duration_ms=sim_ms,
                         max_writers=100)
    des = DesWorld(seed, CELLULAR, recorder, meter)
    sim = des.sim
    n_dcs = config.resolved_dcs()
    dc_ids = [f"dc{i}" for i in range(n_dcs)]
    dcs = []
    for dc_id in dc_ids:
        dc = des.spawn(DataCenter, dc_id,
                       peer_dcs=[d for d in dc_ids if d != dc_id],
                       n_shards=2, k_target=min(2, n_dcs))
        dcs.append(dc)
        for shard in dc.shard_ids:
            sim.network.set_link(dc_id, shard, LAN)
    for a in dc_ids:
        for b in dc_ids:
            if a < b:
                sim.network.set_link(a, b, ETHERNET)

    rng = random.Random(f"scale-build/{seed}")
    for index in range(n_nodes):
        cell = index // config.cell_size
        dc_id = dc_ids[cell % n_dcs]
        node = des.spawn(EdgeNode, f"n{index}", dc_id=dc_id)
        sim.network.set_link(node.node_id, dc_id, ACCESS)
        node.declare_interest(ObjectKey("scale", f"cell{cell}"), "counter")
        node.declare_interest(ObjectKey("scale", f"own{index}"), "counter")
        # Staggered, so the seed reads do not form one thundering herd.
        sim.loop.schedule(rng.uniform(0.0, config.settle_ms * 0.5),
                          node.connect)

    observer = des.spawn(EdgeNode, "observer", dc_id=dc_ids[-1])
    sim.network.set_link("observer", dc_ids[-1], ACCESS)
    return des, config, dcs, observer


def _plan(config: ScaleConfig) -> List[Tuple[float, int, List[Op]]]:
    rng = random.Random(f"perf-sessions/{config.seed}")
    n_txns = max(1, round(config.duration_ms * TXNS_PER_SIM_MS))
    writers = [rng.randrange(config.n_nodes)
               for _ in range(config.resolved_writers())]
    txns = []
    for i in range(n_txns):
        index = rng.choice(writers)
        cell = index // config.cell_size
        # 75 % on the shared cell counter (push fan-out within the cell).
        key = (ObjectKey("scale", f"cell{cell}") if rng.random() < 0.75
               else ObjectKey("scale", f"own{index}"))
        # Evenly spaced: how many transactions share a push round is
        # then a property of the system, not of the draw.
        at = (i + 0.5) * config.duration_ms / n_txns
        writer = f"n{index}"
        txns.append((at, index, [
            Op(at, writer, key, "counter", "increment", (1,)),
            probe_op(writer, at)]))
    return txns


def prepare(seed: int, seconds: float, quick: bool, recorder: Any,
            meter: SpeedMeter) -> SessionsWorld:
    """Build the world, open every session, then the observer's."""
    n_nodes = 500 if quick else 10_000
    des, config, dcs, observer = _build(
        seed, n_nodes, SIM_MS_PER_RUN_SECOND * seconds, recorder, meter)
    txns = _plan(config)
    sim = des.sim
    des.run_for(config.settle_ms)
    read = des.tracing.caller("store", "read_value", observer.read_value)
    probe = Probe(observer, lambda: sim.now, {}, read=read)
    probe.watch(sorted({ops[0].client for _, _, ops in txns}))
    observer.connect()
    des.run_for(300.0)
    return SessionsWorld(des, config, dcs, observer, txns, probe)


def measure(world: SessionsWorld) -> Window:
    des, sim, probe, txns = world.des, world.des.sim, world.probe, world.txns
    aborted: List[Exception] = []
    start = sim.now

    def fire(node: EdgeNode, ops: List[Op]) -> None:
        def body(tx):
            for op in ops:
                yield tx.update(op.key, op.type_name, op.method, *op.args)
        node.run_transaction(body, on_abort=aborted.append)

    submit = des.tracing.caller("edge", "run_transaction", fire)
    for at, index, ops in txns:
        probe.due.setdefault(ops[0].client, []).append(start + at)
        des.timers.schedule_at(
            start + at,
            lambda n=sim.actors[f"n{index}"], o=ops: submit(n, o))

    common = des_window(
        des, world.dcs, [sim.actors[w] for w in probe.seen],
        [world.observer], world.config.duration_ms,
        lambda: probe.visible_txns >= len(txns),
        [op for _, _, ops in txns for op in ops])
    return Window(submitted=len(txns), visible=probe.visible_txns,
                  aborted=len(aborted), latencies_ms=probe.latencies_ms,
                  **common)
