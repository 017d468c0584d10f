"""Transaction records and their consistency metadata.

Per paper section 3.5 a transaction ``T`` carries:

* a *snapshot vector* ``T.S`` naming the DC-committed transactions it read
  from, plus — at the edge — the dots of local transactions whose commit
  vectors are still symbolic (the ``[alpha, beta, gamma]`` placeholders of
  section 3.7);
* a *commit stamp* ``T.C``: symbolic until some DC assigns a concrete
  timestamp; after migration it may hold up to N equivalent entries, one per
  DC that accepted the transaction, stored sparsely (section 3.8);
* a unique *dot* ``T.D`` arbitrating concurrent transactions.

Every part of a transaction is an immutable value once built:
``writes`` is a tuple of frozen :class:`WriteOp`, the snapshot is never
mutated, and neither is a stamp.  A stamp grows by replacement — the
holder assigns ``txn.commit = txn.commit.with_entry(dc, ts)`` — so a
transaction handed to another actor goes through
:meth:`Transaction.handoff`, which shares the body and the stamp and
gives the receiver its own :class:`Transaction` shell: growth at one
holder replaces only that holder's ``commit``.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Dict, FrozenSet, Iterable, List, Optional, Tuple

from ..crdt.base import Operation
from .clock import VectorClock
from .dot import Dot


@dataclass(frozen=True)
class ObjectKey:
    """Names a CRDT object: a bucket (namespace) and a key within it."""

    bucket: str
    key: str

    def to_dict(self) -> Dict[str, str]:
        return {"bucket": self.bucket, "key": self.key}

    @classmethod
    def from_dict(cls, data: Dict[str, str]) -> "ObjectKey":
        return cls(data["bucket"], data["key"])

    def __repr__(self) -> str:
        return f"{self.bucket}/{self.key}"


_NO_DEPS: FrozenSet[Dot] = frozenset()


class Snapshot:
    """A causally closed read point: DC vector + unacknowledged local dots.

    ``vector`` bounds the DC-committed transactions included; ``local_deps``
    are edge-local transactions included by dot because their commit vectors
    are still symbolic.  The pair realises read-my-writes (section 3.8).
    """

    __slots__ = ("vector", "local_deps")

    def __init__(self, vector: VectorClock,
                 local_deps: Iterable[Dot] = ()):
        self.vector = vector
        # Most snapshots have no symbolic deps; a fresh empty frozenset
        # apiece was the largest single line of a replication window's
        # heap growth.
        self.local_deps: FrozenSet[Dot] = \
            frozenset(local_deps) if local_deps else _NO_DEPS

    def satisfied_by(self, state_vector: VectorClock,
                     known_dots) -> bool:
        """Can a node with this state serve every read of the snapshot?

        ``known_dots`` is anything supporting ``seen(dot)`` (a DotTracker)
        or ``__contains__``.
        """
        if not self.vector.leq(state_vector):
            return False
        if not self.local_deps:
            return True
        if hasattr(known_dots, "seen"):
            return all(known_dots.seen(d) for d in self.local_deps)
        return all(d in known_dots for d in self.local_deps)

    def to_dict(self) -> Dict[str, Any]:
        return {"vector": self.vector.to_dict(),
                "local_deps": [d.to_dict() for d in sorted(self.local_deps)]}

    @classmethod
    def from_dict(cls, data: Dict[str, Any]) -> "Snapshot":
        return cls(VectorClock(data["vector"]),
                   [Dot.from_dict(d) for d in data["local_deps"]])

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Snapshot):
            return NotImplemented
        return (self.vector == other.vector
                and self.local_deps == other.local_deps)

    def __hash__(self) -> int:
        return hash((self.vector, self.local_deps))

    def __repr__(self) -> str:
        if self.local_deps:
            return f"Snap({self.vector} +{sorted(self.local_deps)})"
        return f"Snap({self.vector})"


class CommitStamp:
    """Commit timestamp; symbolic until at least one DC accepts the txn.

    ``entries`` maps each accepting DC to the timestamp it assigned.  All
    entries denote the *same* point of the causal order (the paper declares
    them equivalent); storing only significant components realises the
    memory optimisation of section 3.8.

    A value: nothing mutates a stamp or its ``entries`` once built, so
    every holder of a transaction may share it.  :meth:`with_entry`
    returns the grown stamp.
    """

    __slots__ = ("entries",)

    def __init__(self, entries: Optional[Dict[str, int]] = None):
        self.entries: Dict[str, int] = dict(entries or {})

    @property
    def is_symbolic(self) -> bool:
        return not self.entries

    def with_entry(self, dc_id: str, timestamp: int) -> "CommitStamp":
        """This stamp plus ``dc_id``'s entry (itself when already held)."""
        existing = self.entries.get(dc_id, timestamp)
        if existing != timestamp:
            raise ValueError(
                f"DC {dc_id} already assigned timestamp {existing}")
        return self if dc_id in self.entries \
            else CommitStamp({**self.entries, dc_id: timestamp})

    def included_in(self, state_vector: VectorClock) -> bool:
        """True when any equivalent entry is covered by ``state_vector``."""
        return any(state_vector[dc] >= ts
                   for dc, ts in self.entries.items())

    def as_vector(self, snapshot_vector: VectorClock) -> VectorClock:
        """Full commit vector: the snapshot advanced at the accepting DCs."""
        vector = snapshot_vector
        for dc, ts in self.entries.items():
            if ts > vector[dc]:
                vector = vector.advance(dc, ts)
        return vector

    def to_dict(self) -> Dict[str, Any]:
        return {"entries": dict(self.entries)}

    @classmethod
    def from_dict(cls, data: Dict[str, Any]) -> "CommitStamp":
        return cls(data["entries"])

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, CommitStamp):
            return NotImplemented
        return self.entries == other.entries

    def __repr__(self) -> str:
        if self.is_symbolic:
            return "Commit(symbolic)"
        inner = ", ".join(f"{k}:{v}" for k, v in sorted(self.entries.items()))
        return f"Commit({inner})"


@dataclass(frozen=True, slots=True)
class WriteOp:
    """One CRDT update within a transaction."""

    key: ObjectKey
    op: Operation
    # The wire codec's size of the fields, once computed: a write is
    # frozen, and every receiver of its transaction shares it.
    _record_bytes: Optional[int] = field(default=None, init=False,
                                         repr=False, compare=False)

    def to_dict(self) -> Dict[str, Any]:
        return {"key": self.key.to_dict(), "op": self.op.to_dict()}

    @classmethod
    def from_dict(cls, data: Dict[str, Any]) -> "WriteOp":
        return cls(ObjectKey.from_dict(data["key"]),
                   Operation.from_dict(data["op"]))


@dataclass(slots=True)
class Transaction:
    """A committed update transaction travelling through the system."""

    dot: Dot
    origin: str
    snapshot: Snapshot
    commit: CommitStamp
    writes: Tuple[WriteOp, ...] = ()
    issuer: Optional[str] = None  # user identity, for ACL checks
    # The wire codec's size of every field but the stamp, once computed:
    # the body is immutable, and ``handoff()`` carries it along.
    _body_bytes: Optional[int] = field(default=None, init=False,
                                       repr=False, compare=False)
    # ``key_set``, once computed (a slotted class has no ``__dict__``
    # for ``cached_property``); ``handoff()`` carries it too.
    _key_set: Optional[FrozenSet[ObjectKey]] = field(
        default=None, init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        if type(self.writes) is not tuple:
            self.writes = tuple(self.writes)

    def handoff(self) -> "Transaction":
        """This transaction for another actor: a shell of its own around
        the same immutable body and stamp.  A stamp grows by replacing
        the holder's ``commit``, so neither side sees the other's grow.
        Every message that carries a transaction gets it from here
        (colony-lint M203)."""
        copy = Transaction(self.dot, self.origin, self.snapshot,
                           self.commit, self.writes, self.issuer)
        copy._body_bytes = self._body_bytes
        copy._key_set = self._key_set
        return copy

    def tag_for(self, index: int) -> Tuple[int, str, int]:
        """Arbitration tag for the ``index``-th write (dot + position)."""
        return (self.dot.counter, self.dot.origin, index)

    def tagged_writes(self) -> List[WriteOp]:
        """Writes with their operations tagged for CRDT application."""
        return [WriteOp(w.key, w.op.with_tag(self.tag_for(i)))
                for i, w in enumerate(self.writes)]

    @property
    def keys(self) -> List[ObjectKey]:
        return [w.key for w in self.writes]

    @property
    def key_set(self) -> FrozenSet[ObjectKey]:
        """The written keys; ``writes`` is fixed once a txn is built."""
        keys = self._key_set
        if keys is None:
            keys = self._key_set = frozenset(w.key for w in self.writes)
        return keys

    def touches(self, key: ObjectKey) -> bool:
        return key in self.key_set

    def conflicts_with(self, other: "Transaction") -> bool:
        """Write-write interference, used by EPaxos and PSI commit."""
        return not self.key_set.isdisjoint(other.key_set)

    def to_dict(self) -> Dict[str, Any]:
        return {
            "dot": self.dot.to_dict(),
            "origin": self.origin,
            "snapshot": self.snapshot.to_dict(),
            "commit": self.commit.to_dict(),
            "writes": [w.to_dict() for w in self.writes],
            "issuer": self.issuer,
        }

    @classmethod
    def from_dict(cls, data: Dict[str, Any]) -> "Transaction":
        return cls(
            dot=Dot.from_dict(data["dot"]),
            origin=data["origin"],
            snapshot=Snapshot.from_dict(data["snapshot"]),
            commit=CommitStamp.from_dict(data["commit"]),
            writes=tuple(WriteOp.from_dict(w) for w in data["writes"]),
            issuer=data.get("issuer"),
        )

    def __repr__(self) -> str:
        return (f"Txn({self.dot} S={self.snapshot}"
                f" C={self.commit} |w|={len(self.writes)})")


@dataclass(frozen=True, slots=True)
class StreamEntry:
    """One transaction as a full entry of a replication frame.

    The snapshot vector travels as ``sv``, a delta against a base the
    frame supplies, and the stream origin's commit entry is implicit in
    the frame position: ``cx`` holds only the *other* equivalent
    entries (present after a migration).  ``deps`` are the snapshot's
    local dots, sorted.  Built and read by :mod:`repro.dc.replog`.
    """

    dot: Dot
    origin: str
    issuer: Optional[str]
    sv: Dict[str, int]
    deps: Tuple[Dot, ...]
    cx: Dict[str, int]
    writes: Tuple[WriteOp, ...]
    # The wire codec's size of the fields, once computed (frozen).
    _record_bytes: Optional[int] = field(default=None, init=False,
                                         repr=False, compare=False)
