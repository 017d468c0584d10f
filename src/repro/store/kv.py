"""Versioned object store: one base-plus-journal per object.

This is the *backend* layer of the paper's state/visibility split: it
stores every journalled update it is handed, without judging correctness;
readers materialise versions through a visibility filter.
"""

from __future__ import annotations

from typing import (AbstractSet, Dict, Hashable, List, Optional, Set,
                    Tuple, TYPE_CHECKING)

from ..core.dot import Dot
from ..core.journal import EntryFilter, ObjectJournal
from ..core.txn import ObjectKey, Transaction
from ..crdt.base import OpBasedCRDT, new_crdt

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from .matcache import MaterialisedCache


class VersionedStore:
    """Maps object keys to their journals; applies whole transactions.

    When ``mat_cache`` is attached (a
    :class:`~repro.store.matcache.MaterialisedCache`), reads that carry
    a frontier ``token`` are served from it with incremental replay;
    reads without a token still go through it unless the caller opts
    out, and ``drop`` invalidates every cached view of the object.
    """

    def __init__(self, mat_cache: Optional["MaterialisedCache"] = None) \
            -> None:
        self._journals: Dict[ObjectKey, ObjectJournal] = {}
        self.mat_cache = mat_cache

    # -- writes ---------------------------------------------------------------
    def apply_transaction(self, txn: Transaction) -> bool:
        """Journal a transaction's updates under every touched key.

        Idempotent per key (duplicate dots are ignored); returns True if
        any journal accepted the entry.
        """
        accepted = False
        for write in txn.writes:
            journal = self._journal_for(write.key, write.op.type_name)
            if journal.append(txn):
                accepted = True
        return accepted

    def _journal_for(self, key: ObjectKey, type_name: str) -> ObjectJournal:
        journal = self._journals.get(key)
        if journal is None:
            journal = ObjectJournal(key, type_name)
            self._journals[key] = journal
        return journal

    def ensure_object(self, key: ObjectKey, type_name: str) \
            -> ObjectJournal:
        """Create (empty) or fetch the journal for ``key``."""
        return self._journal_for(key, type_name)

    # -- reads ------------------------------------------------------------------
    def has_object(self, key: ObjectKey) -> bool:
        return key in self._journals

    def journal(self, key: ObjectKey) -> Optional[ObjectJournal]:
        return self._journals.get(key)

    def read(self, key: ObjectKey,
             visible: Optional[EntryFilter] = None,
             type_name: Optional[str] = None,
             token: Optional[Hashable] = None,
             cache_key: Optional[Hashable] = None) -> OpBasedCRDT:
        """Materialise the version of ``key`` selected by ``visible``.

        Reading an unknown key returns the type's initial state when
        ``type_name`` is given (objects start in a known initial state,
        paper section 3.1), else raises ``KeyError``.

        With an attached materialisation cache the result is the
        *shared* cached state — callers must not mutate it, and it is
        valid only until the next read under the same ``cache_key``.
        ``token`` is the reader's frontier descriptor (see
        :meth:`MaterialisedCache.materialise`); ``cache_key`` scopes the
        cached view (defaults to ``key``).
        """
        return self.read_with_dots(key, visible, type_name=type_name,
                                   token=token, cache_key=cache_key)[0]

    def read_with_dots(self, key: ObjectKey,
                       visible: Optional[EntryFilter] = None,
                       type_name: Optional[str] = None,
                       token: Optional[Hashable] = None,
                       cache_key: Optional[Hashable] = None) \
            -> Tuple[OpBasedCRDT, AbstractSet[Dot]]:
        """Like :meth:`read`, also returning the visible dot set."""
        journal = self._journals.get(key)
        if journal is None:
            if type_name is None:
                raise KeyError(f"unknown object {key}")
            return new_crdt(type_name), frozenset()
        if self.mat_cache is not None:
            return self.mat_cache.materialise(journal, visible,
                                              token=token, key=cache_key)
        return journal.materialise(visible), journal.visible_dots(visible)

    def keys(self) -> Set[ObjectKey]:
        return set(self._journals)

    def transactions_for(self, key: ObjectKey) -> List[Transaction]:
        """Journalled (not yet compacted) transactions touching ``key``."""
        journal = self._journals.get(key)
        if journal is None:
            return []
        return [entry.txn for entry in journal.entries()]

    # -- maintenance -----------------------------------------------------------------
    def compact(self, stable: EntryFilter) -> int:
        """Advance base versions over the stable prefix of every journal."""
        return sum(journal.advance_base(stable)
                   for journal in self._journals.values())

    def journal_lengths(self) -> Dict[ObjectKey, int]:
        return {key: j.journal_length for key, j in self._journals.items()}

    def drop(self, key: ObjectKey) -> None:
        """Evict an object entirely (edge cache eviction)."""
        self._journals.pop(key, None)
        if self.mat_cache is not None:
            self.mat_cache.invalidate_object(key)

    def __len__(self) -> int:
        return len(self._journals)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"VersionedStore({len(self._journals)} objects)"
