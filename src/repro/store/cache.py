"""Edge cache with interest sets and eviction policies (paper section 4.2).

An edge node cannot replicate the whole database; clients *declare interest*
in objects, which subscribes them to updates from the connected DC (and,
inside a peer group, from neighbours).  Objects evicted from the cache are
unsubscribed to save resources (section 5.1.2).
"""

from __future__ import annotations

from collections import OrderedDict
from typing import (AbstractSet, Callable, FrozenSet, Hashable, List,
                    Optional, Tuple)

from ..core.dot import Dot
from ..core.journal import EntryFilter
from ..core.txn import ObjectKey, Transaction
from ..crdt.base import OpBasedCRDT
from .kv import VersionedStore


class CacheStats:
    """Hit/miss counters for the latency benchmarks.

    ``hits``/``misses`` count interest-set membership (was the object
    cached at all?).  The ``mat_*`` counters break down how hits were
    *materialised*: served verbatim from the materialisation cache
    (``mat_hits``), by incremental replay of the delta on top of a
    cached state (``mat_incremental``), or by a full rebuild from the
    base version (``mat_misses``).
    """

    def __init__(self) -> None:
        self.hits = 0
        self.misses = 0
        self.evictions = 0
        self.mat_hits = 0
        self.mat_incremental = 0
        self.mat_misses = 0

    @property
    def hit_ratio(self) -> float:
        total = self.hits + self.misses
        return self.hits / total if total else 0.0

    @property
    def mat_hit_ratio(self) -> float:
        """Share of materialisations that avoided a full rebuild."""
        total = self.mat_hits + self.mat_incremental + self.mat_misses
        return (self.mat_hits + self.mat_incremental) / total \
            if total else 0.0

    def publish(self, registry, prefix: str = "cache") -> None:
        """Export the current totals into a MetricsRegistry.

        Gauges, because these are point-in-time captures of cumulative
        totals (see ``NetworkStats.publish`` for the rationale).
        """
        registry.gauge(f"{prefix}.hits").set(self.hits)
        registry.gauge(f"{prefix}.misses").set(self.misses)
        registry.gauge(f"{prefix}.evictions").set(self.evictions)
        registry.gauge(f"{prefix}.mat_hits").set(self.mat_hits)
        registry.gauge(f"{prefix}.mat_incremental").set(
            self.mat_incremental)
        registry.gauge(f"{prefix}.mat_misses").set(self.mat_misses)
        registry.gauge(f"{prefix}.hit_ratio").set(self.hit_ratio)
        registry.gauge(f"{prefix}.mat_hit_ratio").set(self.mat_hit_ratio)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (f"CacheStats(hits={self.hits}, misses={self.misses},"
                f" evictions={self.evictions}, mat_hits={self.mat_hits},"
                f" mat_incremental={self.mat_incremental},"
                f" mat_misses={self.mat_misses})")


class InterestCache:
    """LRU-bounded cache of journalled objects keyed by interest set."""

    def __init__(self, capacity: Optional[int] = None,
                 on_evict: Optional[Callable[[ObjectKey], None]] = None):
        self.stats = CacheStats()
        # Local import: matcache imports CacheStats from this module.
        from .matcache import MaterialisedCache
        self.store = VersionedStore(
            mat_cache=MaterialisedCache(stats=self.stats))
        self.capacity = capacity
        self._interest: "OrderedDict[ObjectKey, None]" = OrderedDict()
        self._interest_view: Optional[FrozenSet[ObjectKey]] = None
        self._on_evict = on_evict

    # -- interest management ---------------------------------------------------
    def declare_interest(self, key: ObjectKey, type_name: str) -> None:
        """Add an object to the interest set (and the cache)."""
        if key not in self._interest:
            self._interest[key] = None
            self._interest_view = None
            self.store.ensure_object(key, type_name)
            self._evict_overflow()
        else:
            self._interest.move_to_end(key)

    def retract_interest(self, key: ObjectKey) -> None:
        if key in self._interest:
            del self._interest[key]
            self._interest_view = None
            self.store.drop(key)

    @property
    def interest_set(self) -> FrozenSet[ObjectKey]:
        """Current interest set (read-only view)."""
        if self._interest_view is None:
            self._interest_view = frozenset(self._interest)
        return self._interest_view

    def interested_in(self, key: ObjectKey) -> bool:
        return key in self._interest

    def _evict_overflow(self) -> None:
        while self.capacity is not None \
                and len(self._interest) > self.capacity:
            victim, _ = self._interest.popitem(last=False)
            self._interest_view = None
            self.store.drop(victim)
            self.stats.evictions += 1
            if self._on_evict is not None:
                self._on_evict(victim)

    # -- data path -----------------------------------------------------------------
    def apply_transaction(self, txn: Transaction) -> bool:
        """Journal updates for cached keys only; returns True if any."""
        accepted = False
        for write in txn.writes:
            if write.key in self._interest:
                journal = self.store.ensure_object(write.key,
                                                   write.op.type_name)
                if journal.append(txn):
                    accepted = True
        return accepted

    def read(self, key: ObjectKey, visible: Optional[EntryFilter],
             type_name: str, token: Optional[Hashable] = None,
             cache_key: Optional[Hashable] = None) \
            -> Optional[OpBasedCRDT]:
        """Materialise from cache; None (a miss) when not cached.

        ``token``/``cache_key`` pass through to the materialisation
        cache; the returned state is shared with it — do not mutate it,
        and use it before the next read of the same ``cache_key``.
        """
        if key not in self._interest:
            self.stats.misses += 1
            return None
        self._interest.move_to_end(key)
        self.stats.hits += 1
        return self.store.read(key, visible, type_name=type_name,
                               token=token, cache_key=cache_key)

    def read_with_dots(self, key: ObjectKey,
                       visible: Optional[EntryFilter], type_name: str,
                       token: Optional[Hashable] = None,
                       cache_key: Optional[Hashable] = None) \
            -> Optional[Tuple[OpBasedCRDT, AbstractSet[Dot]]]:
        """Like :meth:`read`, also returning the visible dot set."""
        if key not in self._interest:
            self.stats.misses += 1
            return None
        self._interest.move_to_end(key)
        self.stats.hits += 1
        return self.store.read_with_dots(key, visible,
                                         type_name=type_name,
                                         token=token,
                                         cache_key=cache_key)

    def transactions_for(self, key: ObjectKey) -> List[Transaction]:
        return self.store.transactions_for(key)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (f"InterestCache({len(self._interest)} objects,"
                f" cap={self.capacity})")
