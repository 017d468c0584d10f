"""Transaction dots: unique identifiers with a total arbitration order.

A *dot* (paper sections 3.4-3.5, after Almeida et al.) uniquely identifies a
transaction and arbitrates between concurrent ones.  We realise it as
``(counter, origin)`` where ``counter`` comes from the origin node's Lamport
clock, so the total order on dots linearly extends happened-before.

``DotTracker`` implements the duplicate-suppression rule of section 3.8:
"every node keeps track of the highest dot assigned by another node, and
ignores a transaction whose dot is less or equal this value".  Because each
node assigns counters sequentially and (re)transmits its transactions in
order, a per-origin high-watermark suffices; we also keep an exact set for
out-of-order deliveries injected by tests.
"""

from __future__ import annotations

from dataclasses import dataclass
from types import MappingProxyType
from typing import Any, Dict, Iterable, Set, Tuple

#: The shared value of a map that is made on its first write, until
#: then: read-only, so a write that forgets to make the map fails.
#: What most sessions of a large world never fill starts as this one
#: value (DESIGN §17).  ``Any``, so that a map annotated as what it is
#: written as may start as it.
EMPTY_MAP: Any = MappingProxyType({})


@dataclass(frozen=True, order=True)
class Dot:
    """Globally unique transaction id; tuple order = arbitration order."""

    counter: int
    origin: str

    def as_tuple(self) -> Tuple[int, str]:
        return (self.counter, self.origin)

    def to_dict(self) -> Dict[str, Any]:
        return {"counter": self.counter, "origin": self.origin}

    @classmethod
    def from_dict(cls, data: Dict[str, Any]) -> "Dot":
        return cls(data["counter"], data["origin"])

    def __repr__(self) -> str:
        return f"{self.origin}@{self.counter}"


class DotTracker:
    """Tracks delivered dots to filter duplicates.

    A per-origin watermark covers the contiguous run of counters from 1;
    a dot above it is kept in an explicit set until the gap below it
    closes.  Dots are Lamport-based (:mod:`repro.core.clock`), so an
    origin's counters skip every value its clock jumped past on seeing
    a higher one, and such a gap never closes: from an origin's first
    jump on, every one of its dots stays in ``_pending``.  The tracker
    is compact only for origins whose clocks never jump — a session
    that writes alone; a group member, whose clock follows its peers',
    costs a set entry per dot (ROADMAP item 4).  Both maps start as one
    shared empty value and are made on their first write: most edge
    sessions of a large world never see a gap, many never see a dot.
    """

    __slots__ = ("_watermark", "_pending")

    def __init__(self) -> None:
        self._watermark: Dict[str, int] = EMPTY_MAP
        self._pending: Dict[str, Set[int]] = EMPTY_MAP

    def seen(self, dot: Dot) -> bool:
        """Has this dot already been delivered?"""
        if dot.counter <= self._watermark.get(dot.origin, 0):
            return True
        return dot.counter in self._pending.get(dot.origin, ())

    def observe(self, dot: Dot) -> bool:
        """Record a delivery.  Returns False if it was a duplicate."""
        if self.seen(dot):
            return False
        origin = dot.origin
        mark = self._watermark.get(origin, 0)
        if dot.counter != mark + 1:
            # A gap below: held until the watermark reaches it.
            if self._pending is EMPTY_MAP:
                self._pending = {}
            self._pending.setdefault(origin, set()).add(dot.counter)
            return True
        # Contiguous: advance, closing the gaps this dot fills.
        mark += 1
        pending = self._pending.get(origin)
        if pending:
            while mark + 1 in pending:
                mark += 1
                pending.remove(mark)
            if not pending:
                del self._pending[origin]
        if self._watermark is EMPTY_MAP:
            self._watermark = {}
        self._watermark[origin] = mark
        return True

    def watermark(self, origin: str) -> int:
        return self._watermark.get(origin, 0)

    def observed_dots(self) -> Set[Dot]:
        """All dots recorded (watermarks expanded); test/debug helper."""
        out: Set[Dot] = set()
        for origin, mark in self._watermark.items():
            out.update(Dot(i, origin) for i in range(1, mark + 1))
        for origin, pending in self._pending.items():
            out.update(Dot(i, origin) for i in pending)
        return out

    def merge(self, dots: Iterable[Dot]) -> None:
        for dot in dots:
            self.observe(dot)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (f"DotTracker(watermark={self._watermark},"
                f" pending={self._pending})")
