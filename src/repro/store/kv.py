"""What a replica holds: one map, object key → journal.

This is the *backend* layer of the paper's state/visibility split: each
journal is a base version plus the updates since (section 4.1), stored
without judging correctness; readers materialise versions through a
visibility filter, and each journal carries the views materialised
from it (``ObjectJournal.views``), so dropping or replacing a journal
drops its views.

A DC shard journals every transaction it is handed.  An edge replica
caches its interest set (section 4.2): it journals only the keys it
holds, a held key's type is its journal's ``type_name``, and the
interest set is the map's keys, in the order they were first held.
Under a ``capacity`` a read moves its key to the end of that order, and
holding a key beyond the capacity evicts the least recently used one
(the caller unsubscribes it, section 5.1.2).  The security objects are
held for the replica's own protocol: they are neither counted nor
evicted.
"""

from __future__ import annotations

from typing import (AbstractSet, Dict, Hashable, List, Optional, Set,
                    Tuple)

from ..core.dot import Dot
from ..core.journal import EntryFilter, ObjectJournal
from ..core.txn import ObjectKey, Transaction
from ..crdt.base import OpBasedCRDT, new_crdt
from ..security.enforcement import SECURITY_OBJECTS
from .matcache import CacheStats, MaterialisedCache


class VersionedStore:
    """Maps object keys to their journals; applies whole transactions.

    Every read of a held key goes through the materialisation cache
    (:class:`~repro.store.matcache.MaterialisedCache`), incrementally
    replaying what changed since the view it keeps on the journal.
    """

    __slots__ = ("_journals", "capacity", "_mat")

    def __init__(self, capacity: Optional[int] = None) -> None:
        self._journals: Dict[ObjectKey, ObjectJournal] = {}
        self.capacity = capacity
        self._mat = MaterialisedCache()

    @property
    def stats(self) -> CacheStats:
        """Hits, misses and evictions of :meth:`read_held`, and how each
        read was materialised."""
        return self._mat.stats

    # -- what is held -------------------------------------------------------
    def __contains__(self, key: ObjectKey) -> bool:
        return key in self._journals

    def __len__(self) -> int:
        return len(self._journals)

    def keys(self) -> Set[ObjectKey]:
        return set(self._journals)

    def journal(self, key: ObjectKey) -> Optional[ObjectJournal]:
        return self._journals.get(key)

    def interest(self) -> Tuple[Tuple[ObjectKey, str], ...]:
        """The held keys with their types, in the map's order: what an
        interest list on the wire carries."""
        return tuple((key, journal.type_name)
                     for key, journal in self._journals.items())

    def hold(self, key: ObjectKey, type_name: str) -> List[ObjectKey]:
        """Hold ``key`` (an empty journal when new); returns the keys
        that evicted."""
        if key in self._journals:
            return []
        self._journals[key] = ObjectJournal(key, type_name)
        if self.capacity is None:
            return []
        spare = [k for k in self._journals if k not in SECURITY_OBJECTS]
        evicted = spare[:max(0, len(spare) - self.capacity)]
        for victim in evicted:
            del self._journals[victim]
        self.stats.evictions += len(evicted)
        return evicted

    def install(self, journal: ObjectJournal) -> None:
        """Replace the journal under ``journal.key`` in place (a seed):
        the key keeps its position, and the replaced journal's views
        go with it."""
        self._journals[journal.key] = journal

    def drop(self, key: ObjectKey) -> None:
        """Stop holding ``key`` (a retract or an eviction)."""
        self._journals.pop(key, None)

    # -- writes ---------------------------------------------------------------
    def apply_transaction(self, txn: Transaction) -> bool:
        """Journal a transaction's updates under every touched key (a
        shard).

        Idempotent per key (duplicate dots are ignored); returns True if
        any journal accepted the entry.
        """
        accepted = False
        for write in txn.writes:
            journal = self._journals.get(write.key)
            if journal is None:
                journal = self._journals[write.key] = ObjectJournal(
                    write.key, write.op.type_name)
            if journal.append(txn):
                accepted = True
        return accepted

    def apply_held(self, txn: Transaction) -> bool:
        """Journal a transaction's updates under the keys held (an edge
        replica); returns True if any journal accepted the entry."""
        accepted = False
        for write in txn.writes:
            journal = self._journals.get(write.key)
            if journal is not None and journal.append(txn):
                accepted = True
        return accepted

    # -- reads ------------------------------------------------------------------
    def read(self, key: ObjectKey,
             visible: Optional[EntryFilter] = None,
             type_name: Optional[str] = None,
             token: Optional[Hashable] = None,
             scope: Optional[str] = None) -> OpBasedCRDT:
        """Materialise the version of ``key`` selected by ``visible``.

        Reading an unknown key returns the type's initial state when
        ``type_name`` is given (objects start in a known initial state,
        paper section 3.1), else raises ``KeyError``.

        The result is the *shared* cached state — callers must not
        mutate it, and it is valid only until the next read of ``key``
        in the same ``scope``.  ``token`` is the reader's frontier
        descriptor (see :meth:`MaterialisedCache.materialise`);
        ``scope`` names the family of views the read belongs to.
        """
        return self.read_with_dots(key, visible, type_name=type_name,
                                   token=token, scope=scope)[0]

    def read_with_dots(self, key: ObjectKey,
                       visible: Optional[EntryFilter] = None,
                       type_name: Optional[str] = None,
                       token: Optional[Hashable] = None,
                       scope: Optional[str] = None) \
            -> Tuple[OpBasedCRDT, AbstractSet[Dot]]:
        """Like :meth:`read`, also returning the visible dot set."""
        journal = self._journals.get(key)
        if journal is None:
            if type_name is None:
                raise KeyError(f"unknown object {key}")
            return new_crdt(type_name), frozenset()
        return self._mat.materialise(journal, visible, token=token,
                                     scope=scope)

    def read_held(self, key: ObjectKey, visible: Optional[EntryFilter],
                  scope: Optional[str] = None) -> Optional[OpBasedCRDT]:
        """A replica's read of what it holds: None (a miss) when ``key``
        is not held.  Counts hits and misses; under a capacity a hit
        makes ``key`` the most recently used."""
        journal = self._journals.get(key)
        stats = self._mat.stats
        if journal is None:
            stats.misses += 1
            return None
        stats.hits += 1
        if self.capacity is not None:
            self._journals[key] = self._journals.pop(key)
        return self._mat.materialise(journal, visible, scope=scope)[0]

    # -- maintenance -----------------------------------------------------------------
    def compact(self, stable: EntryFilter) -> int:
        """Advance base versions over the stable prefix of every journal."""
        return sum(journal.advance_base(stable)
                   for journal in self._journals.values())

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (f"VersionedStore({len(self._journals)} objects,"
                f" cap={self.capacity})")
