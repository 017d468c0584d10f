"""Materialisation cache with incremental journal replay.

``ObjectJournal.materialise`` rebuilds an object version from scratch on
every read: clone the base CRDT, then replay the whole journal through a
per-entry visibility callback.  Every read path in the system — edge
cache hits, DC shard snapshot reads, PoP and peer-group seeds — pays
that cost, which grows linearly with the journal.

``MaterialisedCache`` memoises, per journal incarnation, the last
materialised state *plus* the exact dot set it reflects.  A later read
then falls into one of three paths:

* **hit** — the reader presents the same frontier ``token`` against an
  unchanged journal version: the cached state is returned as-is, with no
  clone, no replay and no callback evaluation;
* **incremental** — the journal gained entries and/or the reader's
  frontier advanced: only the new or newly-visible entries are applied,
  **in place**, on top of the cached state (legal because visibility
  grows along causal order, so anything newly visible is concurrent
  with or causally after what the cached state already reflects — and
  CRDT effects of concurrent operations commute);
* **miss** — nothing usable is cached, the journal is a different
  incarnation (``uid`` changed after a drop/re-ensure), compaction
  folded an entry the cached state had *not* applied, or the reader's
  frontier regressed below the cached one: full rebuild from the base.

Invalidation rules:

* ``uid`` mismatch (drop + re-``ensure_object``) always misses;
* ``base_version`` mismatch (``advance_base`` ran) re-checks that every
  base dot is inside the cached dot set — compaction only folds entries
  that were stable, so a reasonably fresh cached state survives it;
* a visibility *regression* (an applied dot no longer visible — e.g. a
  security mask landed, or a reader at an older snapshot) forces a full
  rebuild rather than producing a superset state.

Callers that serve several distinct frontier families for the same
object (a node's own snapshot reads vs. the pure-vector seeds it cuts
for children, or ACL-masked vs. raw security reads) should pass a
distinct ``key`` per family so the families do not evict each other.

**Validity contract.**  The returned state and dot set *are* the cached
ones: callers must not mutate them, and they are valid only until the
next ``materialise`` under the same cache key, which may advance them
in place (a rebuild leaves the old objects alone, but do not count on
it).  A caller that keeps a state across such a call clones it.  Every
reader in the system uses the result synchronously — it serialises it,
takes its ``value()`` (a copy), or prepares an update against it — and
a transaction suspended on a fetch restarts with a fresh buffer, so
nothing pays for a copy per read of a large object.
"""

from __future__ import annotations

from typing import AbstractSet, Dict, Hashable, Optional, Set, Tuple

from ..core.dot import Dot
from ..core.journal import EntryFilter, ObjectJournal
from ..crdt.base import OpBasedCRDT
from .cache import CacheStats


class _CachedVersion:
    """One memoised materialisation of one journal incarnation."""

    __slots__ = ("uid", "version", "base_version", "token", "dots",
                 "state")

    def __init__(self, uid: int, version: int, base_version: int,
                 token: Optional[Hashable], dots: Set[Dot],
                 state: OpBasedCRDT):
        self.uid = uid
        self.version = version
        self.base_version = base_version
        self.token = token
        self.dots = dots
        self.state = state


class MaterialisedCache:
    """Memoises materialised object versions, replaying only deltas.

    One cached version is kept per ``key`` (latest frontier wins, which
    matches the monotonic frontiers every node exposes).  ``stats`` is a
    :class:`~repro.store.cache.CacheStats`; the cache bumps its
    ``mat_hits`` / ``mat_incremental`` / ``mat_misses`` counters.
    """

    def __init__(self, stats: Optional[CacheStats] = None):
        self._versions: Dict[Hashable, _CachedVersion] = {}
        self.stats = stats if stats is not None else CacheStats()

    def __len__(self) -> int:
        return len(self._versions)

    # -- reads ------------------------------------------------------------
    def materialise(self, journal: ObjectJournal,
                    visible: Optional[EntryFilter] = None,
                    token: Optional[Hashable] = None,
                    key: Optional[Hashable] = None) \
            -> Tuple[OpBasedCRDT, AbstractSet[Dot]]:
        """Materialise ``journal`` under ``visible``; returns (state, dots).

        Both are live views of the cache (see the module's validity
        contract).  ``dots`` is the full visible dot set (base + applied
        entries), equal to ``journal.visible_dots(visible)``.  ``token``
        is any hashable descriptor of the reader's frontier: presenting an
        equal token twice MUST denote an identical visible set (e.g. the
        tuple of everything a filter closure captures, as
        ``EdgeNode._snapshot_view`` builds).  ``None`` disables the token fast
        path but still replays incrementally.
        """
        cache_key = key if key is not None else journal.key
        cached = self._versions.get(cache_key)
        if cached is None or cached.uid != journal.uid \
                or not self._base_still_covered(cached, journal):
            return self._rebuild(cache_key, journal, visible, token)
        if token is not None and cached.token == token \
                and cached.version == journal.version:
            self.stats.mat_hits += 1
            return cached.state, cached.dots
        # Single scan: collect the newly visible entries, and detect a
        # visibility regression (an already-applied entry now hidden).
        to_apply = []
        applied = cached.dots
        for entry in journal.iter_entries():
            if visible is None or visible(entry):
                if entry.dot not in applied:
                    to_apply.append(entry)
            elif entry.dot in applied:
                return self._rebuild(cache_key, journal, visible, token)
        if not to_apply:
            # Same visible set as cached; remember the (possibly newer)
            # journal version and token so the next read is a pure hit.
            cached.version = journal.version
            cached.token = token
            self.stats.mat_hits += 1
            return cached.state, cached.dots
        state = cached.state
        for entry in to_apply:
            for op in entry.ops:
                state.apply(op)
            applied.add(entry.dot)
        cached.version = journal.version
        cached.base_version = journal.base_version
        cached.token = token
        self.stats.mat_incremental += 1
        return cached.state, cached.dots

    def _base_still_covered(self, cached: _CachedVersion,
                            journal: ObjectJournal) -> bool:
        """After compaction, is every folded entry already applied?"""
        if cached.base_version == journal.base_version:
            return True
        if journal.base_dots <= cached.dots:
            cached.base_version = journal.base_version
            return True
        return False

    def _rebuild(self, cache_key: Hashable, journal: ObjectJournal,
                 visible: Optional[EntryFilter],
                 token: Optional[Hashable]) \
            -> Tuple[OpBasedCRDT, AbstractSet[Dot]]:
        state = journal.materialise(visible)
        dots = journal.visible_dots(visible)
        self._versions[cache_key] = _CachedVersion(
            journal.uid, journal.version, journal.base_version, token,
            dots, state)
        self.stats.mat_misses += 1
        return state, dots

    # -- invalidation ------------------------------------------------------
    def invalidate(self, key: Hashable) -> None:
        """Drop the cached version for one exact cache key."""
        self._versions.pop(key, None)

    def invalidate_object(self, key: Hashable) -> None:
        """Drop every cached version derived from object ``key``.

        Covers both the plain entry and scoped entries keyed as
        ``(key, scope)`` tuples (seed views, security views).
        """
        stale = [k for k in self._versions
                 if k == key or (isinstance(k, tuple) and k
                                 and k[0] == key)]
        for k in stale:
            del self._versions[k]

    def clear(self) -> None:
        self._versions.clear()
