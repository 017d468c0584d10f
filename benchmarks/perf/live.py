"""``live_saturate`` and ``live_steady``: the asyncio TCP mesh in one process.

The ``examples/serve_3dc.toml`` shape, built in-process: three DCs
(``k_target=2``, two shards each), a three-member ``async`` peer group
and two writer edges on ``dc0``, and an observer edge on ``dc1``.  Every
site gets its own ``AsyncioTransport`` on an ephemeral ``127.0.0.1``
port, all on one asyncio loop: real sockets, real codec, real timers,
and no scheduler noise from eight processes on two cores.  Actors are
built with ``repro.serve.builder.build_site``/``bootstrap_group``.

Each transaction adds an element to one shared ``orset`` document and
increments its writer's probe.  Same mesh and mix, two loops:

* ``live_saturate`` is **closed**: ``WINDOW`` transactions in flight; a
  writer submits its next when one of its own becomes visible at the
  observer.  It measures capacity — CPU per transaction in the codec,
  the per-frame ``write``+``drain``, push build and edge apply.
* ``live_steady`` is **open**: transactions are due on a fixed schedule
  well below capacity and timed from the due time.  There the Nagle
  flush, ack coalescing, push-round timers and loop stalls set the
  latency, and a change that buys throughput by waiting shows its cost.
"""

from __future__ import annotations

import asyncio
import random
import time
from dataclasses import dataclass, field
from typing import Any, Callable, Dict, List, Optional

from repro.core import ObjectKey
from repro.serve.builder import bootstrap_group, build_site
from repro.serve.topology import Site, Topology
from repro.serve.workload import Op
from repro.transport.asyncio_backend import AsyncioTransport

from .spans import SpanRecorder
from .worlds import (Phase, Probe, SpeedMeter, Tracing, Window,
                     counts_since, digests_agree, probe_key, probe_op,
                     program_counts)

DOC = ObjectKey("app", "doc")
WRITERS = ("w0", "w1")
#: Transactions in flight in the closed loop, shared by the writers.
WINDOW = 16
#: Offered rate of the open loop (about 40 % of early-run capacity).
STEADY_TXN_PER_S = 80.0
#: Closed-loop transactions pushed through the mesh during set-up.
WARMUP_TXNS = 64
SETTLE_TIMEOUT_S = 10.0
#: Wall time after the end of the load within which every transaction
#: must be visible at the observer and the DCs must have converged.
DRAIN_DEADLINE_S = 10.0

ROLE_LAYER = {"dc": "dc", "edge": "edge", "member": "groups"}


def topology(seed: int) -> Topology:
    def site(name: str, role: str, **kwargs: Any) -> Site:
        return Site(name, role, "127.0.0.1", 0, **kwargs)

    sites = [site(f"dc{i}", "dc", n_shards=2, k_target=2) for i in range(3)]
    sites += [site(f"m{i}", "member", dc="dc0", group="g", parent="m0",
                   client=False) for i in range(3)]
    sites += [site(w, "edge", dc="dc0") for w in WRITERS]
    sites.append(site("obs", "edge", dc="dc1", client=False))
    keys = [(DOC, "orset")] + [(probe_key(w), "counter") for w in WRITERS]
    return Topology("perf-live", seed, sites, keys, n_txns=0,
                    window_ms=0.0, settle_max_ms=0.0,
                    supervisor_addr=("127.0.0.1", 0))


def now_ms() -> float:
    return time.perf_counter() * 1000.0


@dataclass
class LiveWorld:
    topo: Topology
    tracing: Tracing
    transports: Dict[str, AsyncioTransport]
    actors: Dict[str, Any]
    probe: Probe
    meter: SpeedMeter
    #: Runs a ``SpeedMeter`` slice on the loop every ``EVERY_S``.
    pacer: "asyncio.Task[None]"
    #: Every op submitted so far (warm-up included), for the digest.
    ops: List[Op] = field(default_factory=list)
    submitted: int = 0

    @property
    def dcs(self) -> List[Any]:
        return [self.actors[s.name] for s in self.topo.dcs]

    def net_totals(self) -> Dict[str, int]:
        stats = [t.stats for t in self.transports.values()]
        return {
            "net.msgs": sum(s.messages_sent for s in stats),
            "net.bytes": sum(s.bytes_sent for s in stats),
            "net.dropped": sum(s.messages_dropped for s in stats),
            "net.unroutable": sum(t.unroutable
                                  for t in self.transports.values()),
        }

    async def close(self) -> None:
        self.pacer.cancel()
        await asyncio.gather(self.pacer, return_exceptions=True)
        for transport in self.transports.values():
            await transport.stop()


async def _pace(meter: SpeedMeter) -> None:
    while True:
        await asyncio.sleep(meter.EVERY_S)
        meter.slice()


async def _until(ready: Callable[[], bool], timeout_s: float,
                 every_s: float = 0.002) -> bool:
    deadline = time.perf_counter() + timeout_s
    while not ready():
        if time.perf_counter() > deadline:
            return False
        await asyncio.sleep(every_s)
    return True


async def prepare(seed: int, recorder: Optional[SpanRecorder],
                  meter: SpeedMeter) -> LiveWorld:
    """Start every site, open the sessions, form the group, warm up.

    The warm-up pushes ``WARMUP_TXNS`` transactions through the closed
    loop, so that every TCP link is open (links connect on first use)
    and every cache is seeded before the measured window.
    """
    topo = topology(seed)
    tracing = Tracing(recorder, send_layer="transport")
    homes = {site.name: site.name for site in topo.sites}
    transports = {
        site.name: AsyncioTransport(site.name, seed=seed, homes=homes,
                                    listen=site.addr)
        for site in topo.sites}
    for transport in transports.values():
        await transport.start()
    addrs = {name: t.listen_addr for name, t in transports.items()}
    for transport in transports.values():
        transport.peer_addrs.update(addrs)

    # Shard ids ("dc0/shard1") are not in ``homes``: always local.
    actors = {
        site.name: build_site(
            tracing.wrap(transports[site.name], ROLE_LAYER[site.role],
                         is_remote=lambda dst, here=site.name:
                         homes.get(dst, here) != here),
            topo, site)
        for site in topo.sites}
    observer = actors["obs"]
    probe = Probe(observer, now_ms, {w: [] for w in WRITERS},
                  read=tracing.caller("store", "read_value",
                                      observer.read_value))
    probe.watch(WRITERS)
    world = LiveWorld(topo, tracing, transports, actors, probe, meter,
                      asyncio.get_running_loop().create_task(_pace(meter)))
    edges = [actors[s.name] for s in topo.sites if s.role == "edge"]
    members = [actors[s.name] for s in topo.sites if s.role == "member"]
    for edge in edges:
        edge.connect()
    for member in members:
        bootstrap_group(topo, member)
    settled = await _until(
        lambda: all(e.session_open for e in edges)
        and actors["m0"].session_open, SETTLE_TIMEOUT_S)
    if settled:
        await drive(world, seed, WARMUP_TXNS, None, SETTLE_TIMEOUT_S)
    if not settled or probe.visible_txns < WARMUP_TXNS:
        await world.close()
        raise RuntimeError("live mesh did not settle")
    probe.latencies_ms.clear()
    return world


async def drive(world: LiveWorld, seed: int, n_txns: int,
                rate_per_s: Optional[float], deadline_s: float,
                window: int = WINDOW) -> Dict[str, List[Any]]:
    """Submit ``n_txns`` and wait until all are visible at the observer.

    Closed loop if ``rate_per_s`` is None (``window`` in flight, a
    writer submits its next when one of its own becomes visible), else
    open at that rate, each transaction timed from when it was due.
    Transactions not visible within ``deadline_s`` are left missing.
    """
    loop = asyncio.get_running_loop()
    probe = world.probe
    first = world.submitted
    world.submitted += n_txns
    rng = random.Random(f"perf-live/{seed}/{first}")
    writer_of = {i: rng.choice(WRITERS) for i in range(first, first + n_txns)}
    backlog = {w: [i for i, name in writer_of.items() if name == w]
               for w in WRITERS}
    aborted: List[Exception] = []
    late_ms: List[float] = []
    target = probe.visible_txns + n_txns
    finished = asyncio.Event()

    def fire(index: int, due_ms: Optional[float]) -> None:
        writer = writer_of[index]
        if due_ms is None:
            due_ms = now_ms()
        else:
            late_ms.append(now_ms() - due_ms)
        probe.due[writer].append(due_ms)
        ops = [Op(0.0, writer, DOC, "orset", "add", (f"{writer}:{index}",)),
               probe_op(writer)]
        world.ops.extend(ops)

        def body(tx):
            for op in ops:
                yield tx.update(op.key, op.type_name, op.method, *op.args)
        world.actors[writer].run_transaction(body, on_abort=aborted.append)

    submit = world.tracing.caller("edge", "run_transaction", fire)

    def on_visible(writer: str, count: int) -> None:
        if rate_per_s is None:
            for _ in range(min(count, len(backlog[writer]))):
                submit(backlog[writer].pop(0), None)
        if probe.visible_txns + len(aborted) >= target:
            finished.set()

    probe.on_visible = on_visible
    if rate_per_s is None:
        for writer in WRITERS:
            for _ in range(min(window // len(WRITERS),
                               len(backlog[writer]))):
                submit(backlog[writer].pop(0), None)
    else:
        t0 = loop.time() + 0.01
        base_ms = now_ms() + 10.0
        for k, index in enumerate(writer_of):
            loop.call_at(t0 + k / rate_per_s, submit, index,
                         base_ms + k * 1000.0 / rate_per_s)
    try:
        await asyncio.wait_for(finished.wait(), deadline_s)
    except asyncio.TimeoutError:
        pass
    probe.on_visible = None
    return {"aborted": aborted, "gen_late_ms": late_ms}


async def measure(world: LiveWorld, seed: int, n_txns: int,
                  rate_per_s: Optional[float], deadline_s: float,
                  window: int = WINDOW) -> Window:
    observer = world.actors["obs"]
    txn_nodes = [world.actors[w] for w in WRITERS]
    visible_before = world.probe.visible_txns
    counts_before = program_counts(world.dcs, txn_nodes, [observer])
    net_before = world.net_totals()
    with Phase(world.meter) as watch:
        outcome = await drive(world, seed, n_txns, rate_per_s, deadline_s,
                              window)
    counts = counts_since(
        program_counts(world.dcs, txn_nodes, [observer]), counts_before)
    counts.update(counts_since(world.net_totals(), net_before))

    keys = world.topo.keys
    await _until(lambda: digests_agree(world.dcs, keys, world.ops),
                 DRAIN_DEADLINE_S, every_s=0.1)
    return Window(
        submitted=n_txns, visible=world.probe.visible_txns - visible_before,
        aborted=len(outcome["aborted"]),
        wall_s=watch.wall_s if rate_per_s is None else watch.elapsed_s,
        cpu_s=watch.cpu_s, speed=watch.speed, simulated=False,
        scheduled=rate_per_s is not None,
        link_bytes=int(counts.pop("net.bytes")),
        latencies_ms=world.probe.latencies_ms,
        digests_ok=digests_agree(world.dcs, keys, world.ops), counts=counts,
        series={"gen_late_ms": outcome["gen_late_ms"]})
