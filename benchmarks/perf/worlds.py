"""World plumbing shared by the workloads: transports, probes, results.

A *world* hands every actor its transport.  Untraced, that is the real
``SimTransport``/``AsyncioTransport`` and nothing of the benchmark sits
between the actors and it; traced, it is one ``SpanTransport`` view per
layer over the same transport (see :mod:`benchmarks.perf.spans`).
"""

from __future__ import annotations

import resource
import time
from dataclasses import dataclass, field
from typing import (Any, Callable, Dict, Iterable, List, Optional, Sequence,
                    Tuple)

from repro.core import ObjectKey
from repro.serve.workload import Op, canonical_digest, expected_state
from repro.sim import LatencyModel, Simulation

from .spans import Acc, SpanRecorder, SpanTransport, layer_of


class Tracing:
    """The optional recorder plus the two things a workload does with it:
    wrap a transport per layer, and book its own calls into a layer."""

    def __init__(self, recorder: Optional[SpanRecorder], send_layer: str):
        self.recorder = recorder
        self.send_layer = send_layer

    def wrap(self, inner: Any, layer: str,
             is_remote: Optional[Callable[[str], bool]] = None) -> Any:
        if self.recorder is None:
            return inner
        return SpanTransport(inner, self.recorder, layer, self.send_layer,
                             is_remote)

    def caller(self, layer: str, name: str,
               fn: Callable[..., Any]) -> Callable[..., Any]:
        """``fn``, run inside a ``call:<name>`` span of ``layer`` if traced."""
        rec = self.recorder
        if rec is None:
            return fn
        acc: Acc = rec.acc(layer, "call:" + name)
        return lambda *args: rec.call(acc, fn, *args)


def spin(iterations: int) -> None:
    """The calibration loop: fixed pure-Python work, no allocation to
    speak of, the same on every machine and for every seed."""
    total, table = 0, {}
    for i in range(iterations):
        total = (total + (i ^ (total >> 3))) & 0xFFFFFFFF
        table[i & 1023] = total


class SpeedMeter:
    """The machine's speed while a phase ran, from interleaved slices.

    This VM's speed wanders by +-25 % over minutes and +-15 % within a
    second (a fixed pure-Python loop timed over 12 s windows for 20
    minutes: quartiles 15 % apart, extremes 62 %), which no window a
    run can afford averages out.  A slice is ~2 ms of ``spin``, run every ``EVERY_S`` *between* pieces of the measured work;
    dividing the same 12 s windows by their slices' mean brings the
    quartiles within 2 %.  Every duration the benchmark reports end to
    end is therefore scaled to the reference machine, the one that runs
    a slice in ``REFERENCE_SLICE_S``; the raw machine speed is reported
    as ``bench.machine_speed``.  Slice time is the benchmark's own and
    is taken out of the phase's wall and CPU time.
    """

    SLICE_ITERATIONS = 16_000
    REFERENCE_SLICE_S = 0.002
    EVERY_S = 0.1

    def __init__(self) -> None:
        self.slice_s = 0.0
        self.slices = 0
        self._due = 0.0

    def slice(self) -> None:
        start = time.perf_counter()
        spin(self.SLICE_ITERATIONS)
        end = time.perf_counter()
        self.slice_s += end - start
        self.slices += 1
        self._due = end + self.EVERY_S

    def poll(self) -> None:
        """Run a slice if one is due (cheap enough to call very often)."""
        if time.perf_counter() >= self._due:
            self.slice()

    def take(self) -> Tuple[float, float]:
        """End a phase: ``(seconds its slices took, machine speed)`` since
        the last call, the speed relative to the reference machine.  One
        closing slice is sampled (and not charged to the phase)."""
        spent = self.slice_s
        self.slice()
        speed = self.slices * self.REFERENCE_SLICE_S / self.slice_s
        self.slice_s, self.slices = 0.0, 0
        return spent, speed


class Phase:
    """Wall and CPU seconds of a ``with`` block, less the meter's slices,
    and the machine speed while it ran.  ``elapsed_s`` is the wall time
    slices included: the length of a window whose end a schedule sets."""

    def __init__(self, meter: SpeedMeter):
        self.meter = meter

    def __enter__(self) -> "Phase":
        self.meter.take()
        self.cpu_s = time.process_time()
        self.wall_s = time.perf_counter()
        return self

    def __exit__(self, *exc: Any) -> None:
        self.elapsed_s = time.perf_counter() - self.wall_s
        cpu = time.process_time() - self.cpu_s
        spent, self.speed = self.meter.take()
        # A slice is a busy loop: its CPU time is its wall time.
        self.wall_s, self.cpu_s = self.elapsed_s - spent, cpu - spent


class DesWorld:
    """A ``Simulation`` whose actors are built over per-layer transports."""

    #: The simulation advances in steps this long, with a ``SpeedMeter``
    #: poll between steps; a drain therefore ends within one step of the
    #: last transaction becoming visible.
    STEP_MS = 2.0

    def __init__(self, seed: int, default_latency: LatencyModel,
                 recorder: Optional[SpanRecorder], meter: SpeedMeter):
        self.sim = Simulation(seed=seed, default_latency=default_latency)
        self.tracing = Tracing(recorder, send_layer="sim")
        self.meter = meter
        self._inner = self.sim.network.transport_view(self.sim.loop)
        self._views: Dict[str, Any] = {}

    def run_for(self, duration_ms: float,
                until: Optional[Callable[[], bool]] = None) -> None:
        """``sim.run_for`` in metered steps; stops early once ``until()``."""
        sim, poll = self.sim, self.meter.poll
        end = sim.now + duration_ms
        while sim.now < end and not (until is not None and until()):
            sim.run(until=min(end, sim.now + self.STEP_MS))
            poll()

    def transport(self, layer: str) -> Any:
        view = self._views.get(layer)
        if view is None:
            view = self._views[layer] = self.tracing.wrap(self._inner, layer)
        return view

    def spawn(self, cls: type, node_id: str, **kwargs: Any) -> Any:
        """``Simulation.spawn`` over this world's transport for the class.

        The actor derives its RNG from ``f"{seed}/{node_id}"`` exactly as
        ``Simulation.spawn`` does, so a world built here is the world the
        simulator façade would have built.
        """
        actor = cls(node_id, self.transport(layer_of(cls)), None, **kwargs)
        self.sim.actors[node_id] = actor
        return actor

    @property
    def timers(self) -> Any:
        """The load generator's timer facet (layer ``bench``)."""
        return self.transport("bench").timers


# ---------------------------------------------------------------------------
# the visibility probe
# ---------------------------------------------------------------------------

def probe_key(writer: str) -> ObjectKey:
    return ObjectKey("probe", writer)


def probe_op(writer: str, at_ms: float = 0.0) -> Op:
    """The probe increment riding in one of ``writer``'s transactions."""
    return Op(at_ms, writer, probe_key(writer), "counter", "increment", (1,))


class Probe:
    """Commit -> visible latency at one observer edge node.

    Every probed transaction of a writer also increments that writer's
    probe counter, atomically, so the probe's visibility is the
    transaction's.  The observer subscribes to the probe keys; when a
    callback reads *n*, the writer's probed transactions ``1..n`` are
    visible now.  ``due[writer][i]`` is the time (ms, on ``clock``) the
    i-th was due (open loop) or submitted (closed loop), and
    ``weight`` is how many transactions one probe stands for (a writer
    may probe only every k-th transaction of an ordered stream).
    """

    def __init__(self, observer: Any, clock: Callable[[], float],
                 due: Dict[str, List[float]], weight: int = 1,
                 read: Optional[Callable[..., Any]] = None,
                 on_visible: Optional[Callable[[str, int], None]] = None):
        self.observer = observer
        self.clock = clock
        self.due = due
        self.weight = weight
        self.read = read or observer.read_value
        self.on_visible = on_visible
        self.seen: Dict[str, int] = {}
        self.latencies_ms: List[float] = []

    def watch(self, writers: Iterable[str]) -> None:
        """Declare interest in, and subscribe to, the writers' probes."""
        for writer in writers:
            key = probe_key(writer)
            self.seen[writer] = 0
            self.observer.declare_interest(key, "counter")
            self.observer.subscribe(key, self._changed)

    def _changed(self, key: ObjectKey) -> None:
        writer = key.key
        count = self.read(key, "counter") or 0
        seen = self.seen[writer]
        if count <= seen:
            return
        now = self.clock()
        due = self.due[writer]
        self.latencies_ms.extend(now - due[i] for i in range(seen, count))
        self.seen[writer] = count
        if self.on_visible is not None:
            self.on_visible(writer, count - seen)

    @property
    def visible_txns(self) -> int:
        return sum(self.seen.values()) * self.weight


# ---------------------------------------------------------------------------
# correctness and the result record
# ---------------------------------------------------------------------------

def dc_digest(dc: Any) -> str:
    """``canonical_digest`` of a DC's state, each key read at its owner.

    ``DataCenter.state_digest()`` walks every shard and lets the last
    one win, but a shard applies a multi-shard transaction whole, so a
    shard that does not own a key can hold a partial journal of it.
    Every transaction here writes a payload key and a probe key, which
    usually live on different shards; the owner's journal is the DC's
    answer to a read, so that is what is digested.
    """
    state = {}
    for shard_id, shard in dc.shards.items():
        for key in shard.store.keys():
            if dc.ring.lookup(key) == shard_id:
                journal = shard.store.journal(key)
                if journal is not None:
                    state[key] = journal.materialise(None).value()
    return canonical_digest(state)


def digests_agree(dcs: Sequence[Any], keys: Sequence[Any],
                  ops: Sequence[Op]) -> bool:
    """Every DC holds the analytic fold of the generated op list."""
    expect = canonical_digest(expected_state(keys, ops))
    return all(dc_digest(dc) == expect for dc in dcs)


def program_counts(dcs: Sequence[Any], txn_nodes: Sequence[Any],
                   observers: Sequence[Any]) -> Dict[str, float]:
    """Cumulative counters from the public stats the program keeps.

    ``txn_nodes`` are the edge nodes / group members that run
    transactions (their materialisations are the ``edge.*`` numbers);
    ``observers`` are the nodes the benchmark reads directly (``store.*``).
    A window's counts are the difference of two calls.
    """
    links = [counters for dc in dcs
             for counters in dc.repl_link_counters().values()]
    tiga = [node.tiga_stats for node in txn_nodes
            if hasattr(node, "tiga_stats")]

    def mat(nodes: Sequence[Any], *fields: str) -> int:
        return sum(getattr(node.cache.stats, f)
                   for node in nodes for f in fields)

    every = ("mat_hits", "mat_incremental", "mat_misses")
    return {
        "dc.committed": sum(dc.stats["committed"] for dc in dcs),
        "dc.repl_batches_out": sum(dc.stats["repl_batches_out"]
                                   for dc in dcs),
        "dc.repl_dup_in": sum(dc.stats["repl_dup_in"] for dc in dcs),
        "dc.repl_txns_out": sum(c["txns_sent"] for c in links),
        "dc.rewinds": sum(c["rewinds"] for c in links),
        "edge.mat_fast": mat(txn_nodes, "mat_hits", "mat_incremental"),
        "edge.mat_total": mat(txn_nodes, *every),
        "store.mat_fast": mat(observers, "mat_hits", "mat_incremental"),
        "store.mat_total": mat(observers, *every),
        "store.mat_rebuilds": mat(observers, "mat_misses"),
        "epaxos.tiga_fast": sum(t["fast_commits"] for t in tiga),
        "epaxos.tiga_fallbacks": sum(t["fallbacks"] for t in tiga),
    }


def counts_since(now: Dict[str, float],
                 before: Dict[str, float]) -> Dict[str, float]:
    return {name: value - before[name] for name, value in now.items()}


#: Simulated time after the end of the scheduled load within which every
#: transaction must be visible at the observer (and the DCs must have
#: converged); what is later counts as failed.
DES_DRAIN_DEADLINE_MS = 5000.0


def des_window(des: DesWorld, dcs: Sequence[Any], txn_nodes: Sequence[Any],
               observers: Sequence[Any], load_ms: float,
               all_visible: Callable[[], bool],
               ops: Sequence[Op]) -> Dict[str, Any]:
    """Run a DES workload's measured window; the common ``Window`` fields.

    The world is frozen out of cyclic-GC scanning as ``run_scale`` does,
    the load runs for ``load_ms``, then the simulation drains until
    ``all_visible()`` or the deadline.  Convergence of the DCs to the
    analytic fold of ``ops`` is awaited after the window: anti-entropy
    may still be shipping the tail to DCs off the K-stable path.
    """
    sim = des.sim
    counts_before = program_counts(dcs, txn_nodes, observers)
    events_before = sim.loop.processed_events
    net_before = sim.network.stats.snapshot()
    with sim.frozen_world(), Phase(des.meter) as phase_time:
        des.run_for(load_ms)
        des.run_for(DES_DRAIN_DEADLINE_MS, until=all_visible)
    phase = sim.network.stats.since(net_before)
    counts = counts_since(program_counts(dcs, txn_nodes, observers),
                          counts_before)
    counts.update({
        "sim.events": sim.loop.processed_events - events_before,
        "net.msgs": phase.messages_sent,
        "net.dropped": phase.messages_dropped,
        "net.unroutable": 0,
    })
    keys = sorted({(op.key, op.type_name) for op in ops},
                  key=lambda kt: (kt[0].bucket, kt[0].key))
    deadline = sim.now + DES_DRAIN_DEADLINE_MS
    while not digests_agree(dcs, keys, ops) and sim.now < deadline:
        sim.run_for(250.0)
    return {"wall_s": phase_time.wall_s, "cpu_s": phase_time.cpu_s,
            "speed": phase_time.speed, "simulated": True,
            "link_bytes": phase.bytes_sent, "counts": counts,
            "digests_ok": digests_agree(dcs, keys, ops)}


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


@dataclass
class Window:
    """What one measured window yields, before it is turned into metrics."""

    submitted: int
    visible: int
    aborted: int
    #: Wall and CPU seconds of the window as this machine ran it, and
    #: this machine's speed meanwhile (see ``SpeedMeter``).
    wall_s: float
    cpu_s: float
    speed: float
    #: Latencies are simulated milliseconds (not scaled by ``speed``).
    simulated: bool
    link_bytes: int
    latencies_ms: List[float]
    digests_ok: bool
    #: The window's length was set by an open loop's schedule, not by
    #: how fast the machine got through the work.
    scheduled: bool = False
    #: Counts and ratios read from the program's public stats.
    counts: Dict[str, float] = field(default_factory=dict)
    #: Informational series (generator lateness, commit latencies, …).
    series: Dict[str, List[float]] = field(default_factory=dict)
