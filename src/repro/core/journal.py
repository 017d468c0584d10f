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

import itertools
from bisect import insort
from dataclasses import dataclass
from operator import attrgetter
from typing import (Any, Callable, Dict, FrozenSet, Iterable, List,
                    Optional, Set, Tuple)

from ..crdt.base import OpBasedCRDT, Operation, new_crdt, state_from_dict
from .dot import Dot
from .txn import ObjectKey, Transaction


class JournalEntry:
    """One transaction's updates to one object."""

    __slots__ = ("dot", "txn", "ops", "order")

    def __init__(self, txn: Transaction, ops: List[Operation]):
        dot = self.dot = txn.dot
        self.txn = txn
        self.ops = ops  # already tagged
        #: Journal position: the dot as a plain tuple, built once so
        #: ordering an entry never calls back into Python.
        self.order = (dot.counter, dot.origin)

    def __lt__(self, other: "JournalEntry") -> bool:
        return self.order < other.order

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"JournalEntry({self.dot}, {len(self.ops)} ops)"


# A predicate deciding whether a journal entry is visible to a reader.
EntryFilter = Callable[[JournalEntry], bool]

_ORDER = attrgetter("order")

_JOURNAL_UIDS = itertools.count()


class ObjectJournal:
    """Base version + ordered journal for a single object."""

    def __init__(self, key: ObjectKey, type_name: str):
        self.key = key
        self.type_name = type_name
        self._base: OpBasedCRDT = new_crdt(type_name)
        self._base_dots: Set[Dot] = set()
        self._base_dots_view: Optional[FrozenSet[Dot]] = None
        self._entries: List[JournalEntry] = []  # kept sorted by dot
        # ``order`` of every journalled entry: tuples hash in C, a Dot
        # through a Python ``__hash__``.
        self._index: Set[Tuple[int, str]] = set()
        #: Bumped on every append/compaction; readers use it to cache
        #: materialised versions.  ``uid`` distinguishes journal
        #: incarnations after a drop/reinstall.
        self.version = 0
        #: Bumped only when the base version advances (compaction or a
        #: snapshot install): a cached materialisation survives appends
        #: but must re-check its applied set against the new base.
        self.base_version = 0
        self.uid = next(_JOURNAL_UIDS)

    # -- writes ---------------------------------------------------------------
    def append(self, txn: Transaction) -> bool:
        """Record a transaction's tagged ops for this object.

        Returns False when the transaction was already journalled (or
        folded into the base), making delivery idempotent.
        """
        dot = txn.dot
        order = (dot.counter, dot.origin)
        if order in self._index or (self._base_dots
                                    and dot in self._base_dots):
            return False
        key = self.key
        # Only this object's writes, tagged as tagged_writes() would.
        ops = [w.op.with_tag((*order, i))
               for i, w in enumerate(txn.writes) if w.key == key]
        if not ops:
            return False
        entry = JournalEntry(txn, ops)
        entries = self._entries
        # A stream delivers in dot order, so the new entry nearly always
        # belongs after the tail; anything else (a concurrent origin, a
        # resend) is placed by a bisect over the precomputed tuples.
        if not entries or order > entries[-1].order:
            entries.append(entry)
        else:
            insort(entries, entry, key=_ORDER)
        self._index.add(order)
        self.version += 1
        return True

    def has(self, dot: Dot) -> bool:
        return dot.as_tuple() in self._index or dot in self._base_dots

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
        for entry in entries[:folded]:
            self._index.remove(entry.order)
            for op in entry.ops:
                self._base.apply(op)
            self._base_dots.add(entry.dot)
        self._entries = entries[folded:]
        self._base_dots_view = None
        self.version += 1
        self.base_version += 1
        return folded

    def applied_dots(self) -> List[Dot]:
        """Every dot applied to this object, *with multiplicity*.

        The base set and the entry index each deduplicate on their own,
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

    @classmethod
    def of(cls, key: ObjectKey, type_name: str, state: OpBasedCRDT,
           dots: Iterable[Dot]) -> "ObjectState":
        return cls(key, type_name, state.to_dict(), tuple(sorted(dots)))

    def journal(self) -> ObjectJournal:
        """A fresh journal whose base is this version."""
        journal = ObjectJournal(self.key, self.type_name)
        journal._base = state_from_dict(self.base)
        journal._base_dots = set(self.base_dots)
        return journal
