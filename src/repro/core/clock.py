"""Vector timestamps sized by the number of data centres.

Colony bounds causal metadata by treating each DC as one sequential process
(an SI zone): a vector with one 8-byte entry per DC suffices to name a point
in the inter-DC causal order (paper sections 3.3-3.4).  Component ``V[i]``
counts the transactions committed at DC ``i``.

``VectorClock`` is an immutable mapping from DC identifier to a monotonic
integer; absent entries read as zero, so clocks over different DC sets
compare sensibly (a freshly added DC starts at zero).

``LamportClock`` backs transaction *dots*: a scalar clock merged on every
receive, so that dot order is a linear extension of happened-before.  That
is exactly what the paper's arbitration relation requires (CC invariant:
happened-before is contained in arbitration), and it lets the journal apply
updates sorted by dot.
"""

from __future__ import annotations

from typing import Any, Dict, Iterable, Iterator, Mapping, Optional


class VectorClock(Mapping[Any, int]):
    """Immutable vector timestamp keyed by DC id; missing entries are 0."""

    __slots__ = ("_entries",)

    _entries: Dict[Any, int]

    def __new__(cls, entries: Optional[Mapping[Any, int]] = None) \
            -> "VectorClock":
        """A clock of ``entries``; every empty one is :meth:`zero`."""
        if not entries:
            return _ZERO
        return cls._wrap({k: int(v) for k, v in entries.items() if v})

    @classmethod
    def _wrap(cls, entries: Dict[Any, int]) -> "VectorClock":
        """Adopt ``entries`` without re-validating (internal fast path).

        Callers must guarantee the invariant the public constructor
        enforces: int values, no zero entries, ownership of the dict.
        """
        if not entries:
            return _ZERO
        clock = object.__new__(cls)
        clock._entries = entries
        return clock

    def __reduce__(self) -> Any:
        # Copies and pickles go through the constructor: the default
        # protocol would fill in the shared empty clock.
        return (VectorClock, (self._entries,))

    # -- Mapping interface ---------------------------------------------------
    def __getitem__(self, key: Any) -> int:
        return self._entries.get(key, 0)

    def get(self, key: Any, default: int = 0) -> int:
        return self._entries.get(key, default)

    def __iter__(self) -> Iterator[Any]:
        return iter(self._entries)

    def __len__(self) -> int:
        return len(self._entries)

    def __contains__(self, key: object) -> bool:
        return key in self._entries

    # -- lattice operations ----------------------------------------------------
    def merge(self, other: "VectorClock") -> "VectorClock":
        """Least upper bound: component-wise maximum (paper section 3.4).

        Returns ``self`` when ``other`` adds nothing, and ``other`` when
        this clock is empty: clocks are immutable, so sharing is safe.
        """
        mine = self._entries
        if not mine:
            return other
        merged: Optional[Dict[Any, int]] = None
        for key, val in other._entries.items():
            if val > mine.get(key, 0):
                if merged is None:
                    merged = dict(mine)
                merged[key] = val
        return self if merged is None else VectorClock._wrap(merged)

    def meet(self, other: "VectorClock") -> "VectorClock":
        """Greatest lower bound: component-wise minimum."""
        theirs = other._entries
        return VectorClock._wrap({
            key: min(val, theirs[key])
            for key, val in self._entries.items() if key in theirs})

    def advance(self, key: Any, value: Optional[int] = None) -> "VectorClock":
        """Copy with ``key`` advanced to ``value`` (default: +1)."""
        new_value = self[key] + 1 if value is None else int(value)
        if new_value < self[key]:
            raise ValueError(
                f"clock entry {key!r} may not move backwards"
                f" ({self[key]} -> {new_value})")
        entries = dict(self._entries)
        if new_value:
            entries[key] = new_value
        return VectorClock._wrap(entries)

    def merge_dict(self, raw: Mapping[Any, int]) -> "VectorClock":
        """Merge with a raw wire mapping, without wrapping it first.

        Equivalent to ``self.merge(VectorClock(raw))`` but skips the
        intermediate clock, and returns ``self`` itself when nothing
        advances — clocks are immutable, so sharing is safe (the same
        contract ``from_delta`` relies on).  This is the edge's
        per-push path: most pushes advance a single component.
        """
        mine = self._entries
        merged: Optional[Dict[Any, int]] = None
        for key, val in raw.items():
            if val > mine.get(key, 0):
                if merged is None:
                    merged = dict(mine)
                merged[key] = int(val)
        return self if merged is None else VectorClock._wrap(merged)

    def dominates_dict(self, raw: Mapping[Any, int]) -> bool:
        """True when a raw wire mapping is <= this clock component-wise.

        Equivalent to ``VectorClock(raw).leq(self)`` without building
        the temporary clock (zero entries in ``raw`` never dominate).
        """
        mine = self._entries
        for key, val in raw.items():
            if val > mine.get(key, 0):
                return False
        return True

    def leq(self, other: "VectorClock") -> bool:
        """True when this clock is <= other component-wise."""
        theirs = other._entries
        for key, val in self._entries.items():
            if val > theirs.get(key, 0):
                return False
        return True

    def lt(self, other: "VectorClock") -> bool:
        return self.leq(other) and self != other

    def concurrent(self, other: "VectorClock") -> bool:
        return not self.leq(other) and not other.leq(self)

    def dominates(self, other: "VectorClock") -> bool:
        return other.leq(self)

    # -- delta encoding --------------------------------------------------------
    def delta_from(self, base: "VectorClock") -> Dict[Any, int]:
        """Sparse encoding of this clock against ``base``.

        Returns only the entries that differ from ``base``; an entry the
        base carries but this clock lacks is encoded as an explicit zero
        (the constructor strips zeros, so absence alone cannot express
        "went back to nothing" relative to a base).  Batched replication
        frames use this to ship per-transaction snapshot vectors as a
        handful of bytes against the link's last-acknowledged frontier.
        """
        delta = {k: v for k, v in self._entries.items() if base[k] != v}
        for k in base:
            if k not in self._entries:
                delta[k] = 0
        return delta

    @classmethod
    def from_delta(cls, base: "VectorClock",
                   delta: Mapping[Any, int]) -> "VectorClock":
        """Reconstruct the clock that ``delta_from(base)`` encoded.

        An empty delta returns ``base`` itself — clocks are immutable,
        so sharing is safe, and chained batch decoding hits this path
        for every entry whose snapshot equals its predecessor's.
        """
        if not delta:
            return base
        entries = dict(base._entries)
        entries.update(delta)
        return cls(entries)

    # -- misc -----------------------------------------------------------------
    def to_dict(self) -> Dict[Any, int]:
        return dict(self._entries)

    @classmethod
    def zero(cls) -> "VectorClock":
        """The empty clock: one shared value, since a clock is immutable."""
        return _ZERO

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, VectorClock):
            return NotImplemented
        return self._entries == other._entries

    def __hash__(self) -> int:
        return hash(frozenset(self._entries.items()))

    def __repr__(self) -> str:
        inner = ", ".join(f"{k}:{v}" for k, v in sorted(
            self._entries.items(), key=lambda kv: repr(kv[0])))
        return f"VC[{inner}]"


_ZERO = object.__new__(VectorClock)
_ZERO._entries = {}


def lub(clocks: Iterable[VectorClock]) -> VectorClock:
    """Least upper bound of any number of clocks."""
    result = VectorClock.zero()
    for clock in clocks:
        result = result.merge(clock)
    return result


class LamportClock:
    """Scalar logical clock used to assign dot counters.

    ``tick`` produces a fresh local timestamp; ``observe`` merges a remote
    timestamp so that subsequent local events order after it.  This makes
    dot order consistent with happened-before.
    """

    __slots__ = ("_time",)

    def __init__(self, start: int = 0):
        self._time = int(start)

    def tick(self) -> int:
        self._time += 1
        return self._time

    def observe(self, remote_time: int) -> None:
        if remote_time > self._time:
            self._time = remote_time

    @property
    def time(self) -> int:
        return self._time

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"LamportClock({self._time})"
