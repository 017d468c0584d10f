"""Per-object versioned storage: base version + journal of updates.

Paper section 4.1: "Colony stores an object persistently as a base version
and a journal of updates since the base version.  To materialise an
arbitrary object version, the cache first reads the base version from the
store, and applies the missing updates from the journal.  Occasionally, the
system advances the base version."

Journal entries are applied in dot order.  Dots are Lamport-based
(:mod:`repro.core.clock`), so dot order linearly extends happened-before;
causally ordered updates therefore apply in order, and concurrent updates —
whose CRDT effects commute — apply in the same (arbitrary but deterministic)
order at every replica, giving strong convergence.
"""

from __future__ import annotations

from bisect import bisect_left, insort
from dataclasses import dataclass, field
from operator import attrgetter
from typing import (AbstractSet, Any, Callable, Dict, FrozenSet, Iterable,
                    List, Optional, Sequence, Set, Tuple)

from ..crdt.base import OpBasedCRDT, Operation, new_crdt, state_from_dict
from .clock import VectorClock
from .dot import EMPTY_MAP, Dot
from .txn import ObjectKey, Transaction


class JournalEntry:
    """One transaction's updates to one object."""

    __slots__ = ("dot", "txn", "ops", "order")

    def __init__(self, txn: Transaction, ops: Sequence[Operation],
                 order: Optional[Tuple[int, str]] = None):
        self.dot = txn.dot
        self.txn = txn
        self.ops = ops  # already tagged
        #: Journal position: the dot as a plain tuple, built once so
        #: ordering an entry never calls back into Python.
        self.order = order or txn.dot.as_tuple()

    def __lt__(self, other: "JournalEntry") -> bool:
        return self.order < other.order

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"JournalEntry({self.dot}, {len(self.ops)} ops)"


# A predicate deciding whether a journal entry is visible to a reader.
EntryFilter = Callable[[JournalEntry], bool]

_ORDER = attrgetter("order")
_NO_DOTS: FrozenSet[Dot] = frozenset()
_NO_ENTRIES: Tuple[JournalEntry, ...] = ()


@dataclass(frozen=True, slots=True)
class Visibility:
    """The one visibility rule every read applies — a read at a
    snapshot, a seed for whoever hangs below us, compaction's stable
    prefix, a shard's snapshot read, security's unmasked view: an entry
    is visible when its dot is one of ``deps`` or its stamp is included
    in ``vector`` (never a symbolic one), and never when ``masked``.

    A value: two equal views show the same entries of a journal, so a
    view is its own materialisation-cache token.  A view :meth:`widens`
    another when it shows at least what the other showed of the dots a
    reader applied — the cache then tests only what it has not applied
    (:mod:`repro.store.matcache`).
    """

    vector: VectorClock
    deps: FrozenSet[Dot] = _NO_DOTS
    masked: FrozenSet[Dot] = _NO_DOTS

    def __call__(self, entry: JournalEntry) -> bool:
        dot = entry.dot
        if self.masked and dot in self.masked:
            return False
        if self.deps and dot in self.deps:
            return True
        return entry.txn.commit.included_in(self.vector)

    def widens(self, other: "Visibility", applied: AbstractSet[Dot]) -> bool:
        """Does every entry ``other`` showed through its vector stay
        visible here: a vector at least ``other``'s (stamps only grow)
        and no dot of ``applied`` newly masked?  What ``other`` showed
        only through a dep is the caller's to check."""
        if not other.vector.leq(self.vector):
            return False
        masked = self.masked
        return not masked or masked == other.masked \
            or (masked - other.masked).isdisjoint(applied)

class ObjectJournal:
    """Base version + ordered journal for a single object."""

    __slots__ = ("key", "type_name", "_base", "_base_dots",
                 "_base_dots_view", "_entries", "version",
                 "base_version", "views", "_arrivals", "_trimmed")

    def __init__(self, key: ObjectKey, type_name: str):
        self.key = key
        self.type_name = type_name
        self._base: OpBasedCRDT = new_crdt(type_name)
        # Until the first fold every journal shares one empty set (and
        # ``frozenset()`` of it is itself: the view).
        self._base_dots: AbstractSet[Dot] = _NO_DOTS
        self._base_dots_view: Optional[FrozenSet[Dot]] = None
        # Sorted by ``order``: membership is a bisect.
        self._entries: List[JournalEntry] = []
        #: Bumped on every append/compaction; readers use it to cache
        #: materialised versions.
        self.version = 0
        #: Bumped only when the base version advances (compaction or a
        #: snapshot install): a cached materialisation survives appends
        #: but must re-check its applied set against the new base.
        self.base_version = 0
        #: What ``store.matcache.MaterialisedCache`` materialised from
        #: this journal, one view per scope (``None``, ``"seed"``,
        #: ``"raw"``): a journal that replaces this one, or none, has
        #: none of them.
        self.views: Dict[Optional[str], Any] = EMPTY_MAP
        # The arrival log: entries in the order they were appended, the
        # folded prefix trimmed at compaction (``_trimmed`` of them so
        # far).  Started by the first :meth:`arrival_mark`, so a journal
        # no cache reads pays nothing for it.
        self._arrivals: Optional[List[JournalEntry]] = None
        self._trimmed = 0

    # -- writes ---------------------------------------------------------------
    def append(self, txn: Transaction) -> bool:
        """Record a transaction's tagged ops for this object.

        Returns False when the transaction was already journalled (or
        folded into the base), making delivery idempotent.
        """
        dot = txn.dot
        order = (dot.counter, dot.origin)
        entries = self._entries
        # A stream delivers in dot order, so the new entry nearly always
        # belongs after the tail; anything else (a concurrent origin, a
        # resend) is looked up and placed by bisects over the
        # precomputed tuples.
        tail = not entries or order > entries[-1].order
        if (self._base_dots and dot in self._base_dots) \
                or (not tail and self.find(dot) is not None):
            return False
        key = self.key
        # Only this object's writes, tagged as tagged_writes() would.
        ops = tuple([w.op.with_tag((*order, i))
                     for i, w in enumerate(txn.writes) if w.key == key])
        if not ops:
            return False
        entry = JournalEntry(txn, ops, order)
        if tail:
            entries.append(entry)
        else:
            insort(entries, entry, key=_ORDER)
        if self._arrivals is not None:
            self._arrivals.append(entry)
        self.version += 1
        return True

    def has(self, dot: Dot) -> bool:
        return self.find(dot) is not None or dot in self._base_dots

    def holds(self, entry: JournalEntry) -> bool:
        """Is ``entry`` still journalled — not folded into the base?"""
        return self.find(entry.dot) is not None

    def find(self, dot: Dot) -> Optional[JournalEntry]:
        """The journalled entry of ``dot``, if any."""
        order = dot.as_tuple()
        entries = self._entries
        index = bisect_left(entries, order, key=_ORDER)
        if index < len(entries) and entries[index].order == order:
            return entries[index]
        return None

    # -- the arrival log ------------------------------------------------------
    def arrival_mark(self) -> int:
        """Where the arrival log ends now: a reader that has seen every
        entry so far passes it to :meth:`arrivals_since` later.  The
        first call starts the log."""
        if self._arrivals is None:
            self._arrivals = []
        return self._trimmed + len(self._arrivals)

    def arrivals_since(self, mark: int) -> Optional[Sequence[JournalEntry]]:
        """The entries appended after ``mark``, in arrival order; None
        when compaction trimmed some of them from the log (they were
        folded into the base unseen)."""
        start = mark - self._trimmed
        arrivals = self._arrivals
        if start < 0 or arrivals is None:
            return None
        return arrivals[start:] if start < len(arrivals) else _NO_ENTRIES

    # -- reads ------------------------------------------------------------------
    def materialise(self, visible: Optional[EntryFilter] = None) \
            -> OpBasedCRDT:
        """Build the object version exposing entries accepted by ``visible``.

        With no filter, every journalled update is applied (the backend
        view).  The visibility layer passes a TCC+/security filter.
        """
        state = self._base.clone()
        for entry in self._entries:
            if visible is None or visible(entry):
                for op in entry.ops:
                    state.apply(op)
        return state

    def visible_dots(self, visible: Optional[EntryFilter] = None) \
            -> Set[Dot]:
        """Dots contributing to the materialisation (incl. base)."""
        dots = set(self._base_dots)
        for entry in self._entries:
            if visible is None or visible(entry):
                dots.add(entry.dot)
        return dots

    def replay(self, visible: Optional[EntryFilter] = None) \
            -> Tuple[OpBasedCRDT, Set[Dot], List[JournalEntry]]:
        """:meth:`materialise` and :meth:`visible_dots` in one pass over
        the journal, plus the entries ``visible`` hid."""
        state = self._base.clone()
        dots = set(self._base_dots)
        hidden = []
        for entry in self._entries:
            if visible is None or visible(entry):
                for op in entry.ops:
                    state.apply(op)
                dots.add(entry.dot)
            else:
                hidden.append(entry)
        return state, dots, hidden

    # -- compaction ----------------------------------------------------------------
    def advance_base(self, stable: EntryFilter) -> int:
        """Fold entries accepted by ``stable`` into the base version.

        Only a *prefix* in dot order may be folded: folding an entry while
        an earlier-dot entry stays journalled would re-order application.
        Returns the number of entries folded.
        """
        entries = self._entries
        folded = 0
        while folded < len(entries) and stable(entries[folded]):
            folded += 1
        if not folded:
            return 0
        base_dots = self._base_dots
        if not isinstance(base_dots, set):
            base_dots = self._base_dots = set()
        for entry in entries[:folded]:
            for op in entry.ops:
                self._base.apply(op)
            base_dots.add(entry.dot)
        self._entries = entries[folded:]
        arrivals = self._arrivals
        if arrivals:
            cut = 0
            while cut < len(arrivals) and not self.holds(arrivals[cut]):
                cut += 1
            del arrivals[:cut]
            self._trimmed += cut
        self._base_dots_view = None
        self.version += 1
        self.base_version += 1
        return folded

    def applied_dots(self) -> List[Dot]:
        """Every dot applied to this object, *with multiplicity*.

        The base set and the entry list each deduplicate on their own,
        but nothing structurally prevents one dot from being folded into
        the base and journalled again (e.g. by a buggy re-seed after
        migration).  Invariant checkers scan this census for duplicates.
        """
        dots = sorted(self._base_dots)
        dots.extend(entry.dot for entry in self._entries)
        return dots

    @property
    def journal_length(self) -> int:
        return len(self._entries)

    @property
    def base_dots(self) -> FrozenSet[Dot]:
        """Dots already folded into the base version (read-only view)."""
        if self._base_dots_view is None:
            self._base_dots_view = frozenset(self._base_dots)
        return self._base_dots_view

    def entries(self) -> List[JournalEntry]:
        return list(self._entries)

    def iter_entries(self) -> Iterable[JournalEntry]:
        """The live entry list, sorted by dot.  Callers must not mutate."""
        return self._entries

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (f"ObjectJournal({self.key}, base_dots="
                f"{len(self._base_dots)}, journal={len(self._entries)})")


@dataclass(frozen=True, slots=True)
class ObjectState:
    """An object version as seeds, fetches and shard reads carry it: the
    state and the dots folded into it, which become a receiver's journal
    base (:meth:`journal`).  ``base`` is the CRDT's ``to_dict()`` form,
    the one copy a receiver installs (``from_dict`` shares nothing with
    it), so one state may go to several receivers."""

    key: ObjectKey
    type_name: str
    base: Dict[str, Any]
    base_dots: Tuple[Dot, ...]      # sorted
    # The wire codec's size of the fields, once computed (frozen).
    _record_bytes: Optional[int] = field(default=None, init=False,
                                         repr=False, compare=False)

    @classmethod
    def of(cls, key: ObjectKey, type_name: str, state: OpBasedCRDT,
           dots: Iterable[Dot]) -> "ObjectState":
        return cls(key, type_name, state.to_dict(), tuple(sorted(dots)))

    def journal(self) -> ObjectJournal:
        """A fresh journal whose base is this version."""
        journal = ObjectJournal(self.key, self.type_name)
        journal._base = state_from_dict(self.base)
        if self.base_dots:
            journal._base_dots = set(self.base_dots)
        return journal
