"""Per-actor physical clocks with skew, and hybrid logical clocks.

The simulation's event loop is the one *true* clock; real deployments
have no such thing.  Each actor instead reads a :class:`SkewedClock` — a
view of true time distorted by a constant offset, a rate error (drift)
and step jumps (an NTP re-sync, a VM migration) — so protocols that
bet on synchronized clocks (the Tiga-style ``commit_variant="tiga"``
fast path) can be tested under the clock conditions that break them.

:class:`HybridLogicalClock` layers HLC merge rules (Kulkarni et al.)
over a skewed clock: timestamps are ``(ms, counter, node_id)`` tuples,
totally ordered by tuple comparison, never running backwards even when
the physical clock steps backwards, and advancing past every remote
timestamp observed — so deadline order extends happened-before.

All clock state is reached through the network's :class:`ClockService`,
which is also the hook chaos uses to inject skew faults.
"""

from __future__ import annotations

from typing import Dict, Tuple

from .events import EventLoop

#: HLC timestamp: (physical-ish milliseconds, logical counter, node id).
#: Tuple comparison gives a total order; the node id breaks exact ties
#: between distinct nodes, the counter between same-node same-ms stamps.
HlcTimestamp = Tuple[float, int, str]


class SkewedClock:
    """A physical clock as one node sees it: true time plus error.

    ``now() = anchor_value + (loop.now - anchor_time) * (1 + drift)``.
    ``step`` jumps the clock (either direction); ``set_drift`` re-anchors
    first so the reading stays continuous while the *rate* changes.
    """

    __slots__ = ("_loop", "_anchor_time", "_anchor_value", "drift")

    def __init__(self, loop: EventLoop, offset_ms: float = 0.0,
                 drift: float = 0.0):
        self._loop = loop
        self._anchor_time = loop.now
        self._anchor_value = loop.now + offset_ms
        self.drift = drift

    def now(self) -> float:
        return self._anchor_value + \
            (self._loop.now - self._anchor_time) * (1.0 + self.drift)

    @property
    def offset_ms(self) -> float:
        """Current error relative to true (loop) time."""
        return self.now() - self._loop.now

    def step(self, delta_ms: float) -> None:
        """Jump the clock by ``delta_ms`` (negative steps go backwards)."""
        self._anchor_value += delta_ms

    def set_drift(self, drift: float) -> None:
        """Change the rate error without a discontinuity in ``now()``."""
        value = self.now()
        self._anchor_time = self._loop.now
        self._anchor_value = value
        self.drift = drift


class HybridLogicalClock:
    """HLC over a skewed physical clock.

    ``now()`` returns a fresh timestamp strictly greater than every
    timestamp this clock has produced or observed — monotone even if the
    underlying physical clock steps backwards (the logical component
    absorbs the regression, clamping the skew).
    """

    __slots__ = ("clock", "node_id", "_l", "_c")

    def __init__(self, clock: SkewedClock, node_id: str):
        self.clock = clock
        self.node_id = node_id
        self._l = 0.0
        self._c = 0

    def now(self) -> HlcTimestamp:
        pt = self.clock.now()
        if pt > self._l:
            self._l = pt
            self._c = 0
        else:
            self._c += 1
        return (self._l, self._c, self.node_id)

    def observe(self, ts: HlcTimestamp) -> None:
        """Merge a remote timestamp (message receipt, deadline seen)."""
        pt = self.clock.now()
        merged = max(self._l, ts[0], pt)
        if merged == self._l and merged == ts[0]:
            self._c = max(self._c, ts[1]) + 1
        elif merged == self._l:
            self._c += 1
        elif merged == ts[0]:
            self._c = ts[1] + 1
        else:
            self._c = 0
        self._l = merged

    def peek(self) -> HlcTimestamp:
        """Last issued/merged timestamp, without advancing."""
        return (self._l, self._c, self.node_id)


class ClockService:
    """Registry of per-actor skewed clocks, hanging off the network.

    Every actor's clock defaults to zero skew (perfect synchronisation),
    so nothing changes for code that never reads it.  Chaos reaches in
    here to inject per-actor offsets, bounded drift, and step jumps.
    """

    __slots__ = ("_loop", "_clocks")

    def __init__(self, loop: EventLoop):
        self._loop = loop
        self._clocks: Dict[str, SkewedClock] = {}

    def clock_for(self, node_id: str) -> SkewedClock:
        clock = self._clocks.get(node_id)
        if clock is None:
            clock = self._clocks[node_id] = SkewedClock(self._loop)
        return clock

    # -- skew injection (chaos / scenario setup) -----------------------
    def step(self, node_id: str, delta_ms: float) -> None:
        self.clock_for(node_id).step(delta_ms)

    def set_drift(self, node_id: str, drift: float) -> None:
        self.clock_for(node_id).set_drift(drift)

    def set_offset(self, node_id: str, offset_ms: float) -> None:
        clock = self.clock_for(node_id)
        clock.step(offset_ms - clock.offset_ms)

    def max_offset_ms(self) -> float:
        """Largest pairwise clock divergence right now (skew bound)."""
        if not self._clocks:
            return 0.0
        offsets = [c.offset_ms for c in self._clocks.values()]
        return max(max(offsets), 0.0) - min(min(offsets), 0.0)
