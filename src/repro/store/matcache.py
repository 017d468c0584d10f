"""Materialisation cache with incremental journal replay.

``ObjectJournal.materialise`` rebuilds an object version from scratch on
every read: clone the base CRDT, then replay the whole journal through a
per-entry visibility callback.  Every read path in the system — edge
cache hits, DC shard snapshot reads, PoP and peer-group seeds — pays
that cost, which grows linearly with the journal.

``MaterialisedCache`` memoises, per journal incarnation, the last
materialised state *plus* the exact dot set it reflects.  A later read
then falls into one of four paths:

* **hit** — the reader presents an equal view (a
  :class:`~repro.core.journal.Visibility` is its own token; an opaque
  callable brings a ``token``) against an unchanged journal version:
  the cached state is returned as-is, with no clone, no replay and no
  callback evaluation;
* **delta** — the reader's view *widens* the cached one: its vector is
  at least the cached vector, no applied dot is newly masked, and every
  entry applied only through a dep is still visible or folded.  Nothing
  applied can have become hidden, so only the entries not applied can
  change: the cached version's *pending* entries (journalled, not
  applied), the journal's arrivals since the last read, and those
  by-dep entries are tested.  The newly visible ones are applied **in
  place**, in dot order (legal because visibility grows along causal
  order, so anything newly visible is concurrent with or causally after
  what the cached state already reflects — and CRDT effects of
  concurrent operations commute).  An entry folded meanwhile counts as
  visible: it is in the base a fresh materialisation starts from;
* **scan** — a view that does not widen (a reader at an older vector, a
  new mask) or an opaque callable: one pass over the whole journal
  collects the visible entries not applied, and detects a regression (an
  applied entry now hidden), which rebuilds;
* **rebuild** — nothing usable is cached, the journal is a different
  incarnation (``uid`` changed after a drop/re-ensure), compaction
  folded an entry the cached state had neither applied nor can still
  find (trimmed from the arrival log before this key read again), or a
  regression: one pass from the base.

Invalidation rules:

* ``uid`` mismatch (drop + re-``ensure_object``) always rebuilds;
* ``base_version`` mismatch (``advance_base`` ran) re-checks that every
  base dot is inside the cached dot set — after the delta has applied
  its folded candidates, or before a scan;
* a visibility *regression* forces a rebuild rather than producing a
  superset state.

Callers that serve several distinct view families for the same object
(a node's own snapshot reads vs. the pure-vector seeds it cuts for
children, or ACL-masked vs. raw security reads) should pass a distinct
``key`` per family so the families do not evict each other.

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

from operator import attrgetter
from typing import (AbstractSet, Dict, Hashable, List, Optional, Set,
                    Tuple)

from ..core.dot import EMPTY_MAP, Dot
from ..core.journal import (EntryFilter, JournalEntry, ObjectJournal,
                            Visibility)
from ..crdt.base import OpBasedCRDT
from .cache import CacheStats

_ORDER = attrgetter("order")


class _CachedVersion:
    """One memoised materialisation of one journal incarnation.

    Built under a :class:`Visibility` (its ``view``), it also keeps what
    a delta read tests: the arrival-log ``mark`` it has seen up to, the
    ``pending`` entries (journalled, not applied) and the ``by_dep``
    entries (applied, shown only through a dep)."""

    __slots__ = ("uid", "version", "base_version", "token", "dots",
                 "state", "view", "mark", "pending", "by_dep")

    def __init__(self, uid: int, version: int, base_version: int,
                 token: Optional[Hashable], dots: Set[Dot],
                 state: OpBasedCRDT):
        self.uid = uid
        self.version = version
        self.base_version = base_version
        self.token = token
        self.dots = dots
        self.state = state
        self.view: Optional[Visibility] = None
        self.mark = 0
        self.pending: List[JournalEntry] = []
        self.by_dep: List[JournalEntry] = []

    def track(self, journal: ObjectJournal, view: Optional[Visibility],
              hidden: List[JournalEntry]) -> None:
        """After a full pass: what a delta read under ``view`` starts
        from (nothing, for an opaque filter)."""
        self.view = view
        if view is None:
            return
        self.mark = journal.arrival_mark()
        self.pending = hidden
        self.by_dep = _by_dep(journal, view)


def _by_dep(journal: ObjectJournal, view: Visibility) -> List[JournalEntry]:
    """The journalled entries ``view`` shows only through a dep."""
    found = []
    for dot in view.deps:
        entry = journal.find(dot)
        if entry is not None and view(entry) \
                and not entry.txn.commit.included_in(view.vector):
            found.append(entry)
    return found


class MaterialisedCache:
    """Memoises materialised object versions, replaying only deltas.

    One cached version is kept per ``key`` (latest view wins, which
    matches the monotonic frontiers every node exposes).  ``stats`` is a
    :class:`~repro.store.cache.CacheStats`; the cache bumps its
    ``mat_hits`` (hits, and deltas or scans that found nothing new) /
    ``mat_incremental`` / ``mat_misses`` (rebuilds) counters.  The map
    of versions is made on the first rebuild: a cache that never reads
    (an idle edge session's) holds none.
    """

    __slots__ = ("_versions", "stats")

    def __init__(self, stats: Optional[CacheStats] = None):
        self._versions: Dict[Hashable, _CachedVersion] = EMPTY_MAP
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
        entries), equal to ``journal.visible_dots(visible)``.  A
        :class:`Visibility` is its own token and may take the delta
        path.  Any other callable may bring a ``token``: any hashable
        descriptor of the reader's frontier, where presenting an equal
        token twice MUST denote an identical visible set.  ``None``
        disables the hit path but still replays incrementally.
        """
        cache_key = key if key is not None else journal.key
        view = visible if type(visible) is Visibility else None
        if view is not None:
            token = view
        cached = self._versions.get(cache_key)
        if cached is None or cached.uid != journal.uid:
            return self._rebuild(cache_key, journal, visible, token, view)
        if token is not None and cached.version == journal.version \
                and cached.token == token:
            self.stats.mat_hits += 1
            return cached.state, cached.dots
        if view is not None and cached.view is not None \
                and self._widens(cached.view, cached, view, journal):
            if self._delta(cached, journal, view):
                return cached.state, cached.dots
            return self._rebuild(cache_key, journal, visible, token, view)
        return self._scan(cache_key, cached, journal, visible, token, view)

    @staticmethod
    def _widens(old: Visibility, cached: _CachedVersion, view: Visibility,
                journal: ObjectJournal) -> bool:
        """Does ``view`` show everything ``cached``, read under ``old``,
        applied?"""
        if old is view:
            return True
        if not view.widens(old, cached.dots):
            return False
        for entry in cached.by_dep:
            if not (view(entry) or not journal.holds(entry)):
                return False
        return True

    def _delta(self, cached: _CachedVersion, journal: ObjectJournal,
               view: Visibility) -> bool:
        """Apply what became visible among the entries not applied;
        False when compaction folded one this version can no longer
        find (the caller rebuilds)."""
        arrived = journal.arrivals_since(cached.mark)
        if arrived is None:
            return False
        holds = journal.holds
        pending = cached.pending
        shown: Optional[List[JournalEntry]] = None
        for i, entry in enumerate(cached.pending):
            if view(entry) or not holds(entry):
                if shown is None:
                    shown, pending = [], pending[:i]
                shown.append(entry)
            elif shown is not None:
                pending.append(entry)
        for entry in arrived:
            if view(entry) or not holds(entry):
                if shown is None:
                    shown = []
                shown.append(entry)
            else:
                pending.append(entry)
        cached.pending = pending
        cached.mark += len(arrived)
        vector = view.vector
        by_dep = cached.by_dep
        if by_dep and cached.view is not view:
            by_dep[:] = [entry for entry in by_dep if holds(entry)
                         and not entry.txn.commit.included_in(vector)]
        if shown:
            if len(shown) > 1:
                shown.sort(key=_ORDER)
            state, dots = cached.state, cached.dots
            for entry in shown:
                for op in entry.ops:
                    state.apply(op)
                dots.add(entry.dot)
                if holds(entry) \
                        and not entry.txn.commit.included_in(vector):
                    by_dep.append(entry)
        if cached.base_version != journal.base_version:
            if not journal.base_dots <= cached.dots:
                return False
            cached.base_version = journal.base_version
        cached.version = journal.version
        cached.token = cached.view = view
        if shown:
            self.stats.mat_incremental += 1
        else:
            self.stats.mat_hits += 1
        return True

    def _scan(self, cache_key: Hashable, cached: _CachedVersion,
              journal: ObjectJournal, visible: Optional[EntryFilter],
              token: Optional[Hashable], view: Optional[Visibility]) \
            -> Tuple[OpBasedCRDT, AbstractSet[Dot]]:
        """One pass over the whole journal: apply the visible entries
        not applied, or rebuild on a regression."""
        if not self._base_still_covered(cached, journal):
            return self._rebuild(cache_key, journal, visible, token, view)
        to_apply = []
        hidden = []
        applied = cached.dots
        for entry in journal.iter_entries():
            if visible is None or visible(entry):
                if entry.dot not in applied:
                    to_apply.append(entry)
            elif entry.dot in applied:
                return self._rebuild(cache_key, journal, visible, token,
                                     view)
            else:
                hidden.append(entry)
        state = cached.state
        for entry in to_apply:
            for op in entry.ops:
                state.apply(op)
            applied.add(entry.dot)
        cached.version = journal.version
        cached.base_version = journal.base_version
        cached.token = token
        cached.track(journal, view, hidden)
        if to_apply:
            self.stats.mat_incremental += 1
        else:
            # Same visible set as cached; the next read with this token
            # is a pure hit.
            self.stats.mat_hits += 1
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
                 token: Optional[Hashable],
                 view: Optional[Visibility]) \
            -> Tuple[OpBasedCRDT, AbstractSet[Dot]]:
        state, dots, hidden = journal.replay(visible)
        if self._versions is EMPTY_MAP:
            self._versions = {}
        cached = self._versions[cache_key] = _CachedVersion(
            journal.uid, journal.version, journal.base_version, token,
            dots, state)
        cached.track(journal, view, hidden)
        self.stats.mat_misses += 1
        return state, dots

    # -- invalidation ------------------------------------------------------
    def invalidate(self, key: Hashable) -> None:
        """Drop the cached version for one exact cache key."""
        if key in self._versions:
            del self._versions[key]

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
        self._versions = EMPTY_MAP
