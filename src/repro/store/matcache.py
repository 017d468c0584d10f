"""Materialisation cache with incremental journal replay.

``ObjectJournal.materialise`` rebuilds an object version from scratch on
every read: clone the base CRDT, then replay the whole journal through a
per-entry visibility callback.  Every read path in the system — edge
cache hits, DC shard snapshot reads, PoP and peer-group seeds — pays
that cost, which grows linearly with the journal.

``MaterialisedCache`` memoises, on the journal itself, the last
materialised state *plus* the exact dot set it reflects, one view per
scope (``ObjectJournal.views``).  A later read then falls into one of
four paths:

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
* **rebuild** — nothing usable is cached (a journal that replaced
  another starts with no views), compaction folded an entry the cached
  state had neither applied nor can still find (trimmed from the
  arrival log before this key read again), or a regression: one pass
  from the base.

Invalidation rules:

* a dropped or replaced journal takes its views with it;
* ``base_version`` mismatch (``advance_base`` ran) re-checks that every
  base dot is inside the cached dot set — after the delta has applied
  its folded candidates, or before a scan;
* a visibility *regression* forces a rebuild rather than producing a
  superset state.

Callers that serve several distinct view families for the same object
(a node's own snapshot reads vs. the pure-vector seeds it cuts for
children, or ACL-masked vs. raw security reads) pass a distinct
``scope`` per family so the families do not evict each other.

**Validity contract.**  The returned state and dot set *are* the cached
ones: callers must not mutate them, and they are valid only until the
next ``materialise`` of the same journal in the same scope, which may
advance them in place (a rebuild leaves the old objects alone, but do
not count on it).  A caller that keeps a state across such a call
clones it.  Every reader in the system uses the result synchronously —
it serialises it, takes its ``value()`` (a copy), or prepares an update
against it — and a transaction suspended on a fetch restarts with a
fresh buffer, so nothing pays for a copy per read of a large object.
"""

from __future__ import annotations

from operator import attrgetter
from typing import AbstractSet, Hashable, List, Optional, Set, Tuple

from ..core.dot import EMPTY_MAP, Dot
from ..core.journal import (EntryFilter, JournalEntry, ObjectJournal,
                            Visibility)
from ..crdt.base import OpBasedCRDT

_ORDER = attrgetter("order")


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

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (f"CacheStats(hits={self.hits}, misses={self.misses},"
                f" evictions={self.evictions}, mat_hits={self.mat_hits},"
                f" mat_incremental={self.mat_incremental},"
                f" mat_misses={self.mat_misses})")


class _CachedVersion:
    """One memoised materialisation of one journal, in one scope.

    Built under a :class:`Visibility` (its ``view``), it also keeps what
    a delta read tests: the arrival-log ``mark`` it has seen up to, the
    ``pending`` entries (journalled, not applied) and the ``by_dep``
    entries (applied, shown only through a dep)."""

    __slots__ = ("version", "base_version", "token", "dots", "state",
                 "view", "mark", "pending", "by_dep")

    def __init__(self, version: int, base_version: int,
                 token: Optional[Hashable], dots: Set[Dot],
                 state: OpBasedCRDT):
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

    One cached version is kept per journal and ``scope`` (latest view
    wins, which matches the monotonic frontiers every node exposes), in
    the journal's ``views``: the cache itself holds only ``stats``, a
    :class:`CacheStats` whose ``mat_hits`` (hits, and
    deltas or scans that found nothing new) / ``mat_incremental`` /
    ``mat_misses`` (rebuilds) counters it bumps.
    """

    __slots__ = ("stats",)

    def __init__(self, stats: Optional[CacheStats] = None):
        self.stats = stats if stats is not None else CacheStats()

    # -- reads ------------------------------------------------------------
    def materialise(self, journal: ObjectJournal,
                    visible: Optional[EntryFilter] = None,
                    token: Optional[Hashable] = None,
                    scope: Optional[str] = None) \
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
        view = visible if type(visible) is Visibility else None
        if view is not None:
            token = view
        cached = journal.views.get(scope)
        if cached is None:
            return self._rebuild(scope, journal, visible, token, view)
        if token is not None and cached.version == journal.version \
                and cached.token == token:
            self.stats.mat_hits += 1
            return cached.state, cached.dots
        if view is not None and cached.view is not None \
                and self._widens(cached.view, cached, view, journal):
            if self._delta(cached, journal, view):
                return cached.state, cached.dots
            return self._rebuild(scope, journal, visible, token, view)
        return self._scan(scope, cached, journal, visible, token, view)

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
            if not journal.folded <= cached.dots:
                return False
            cached.base_version = journal.base_version
        cached.version = journal.version
        cached.token = cached.view = view
        if shown:
            self.stats.mat_incremental += 1
        else:
            self.stats.mat_hits += 1
        return True

    def _scan(self, scope: Optional[str], cached: _CachedVersion,
              journal: ObjectJournal, visible: Optional[EntryFilter],
              token: Optional[Hashable], view: Optional[Visibility]) \
            -> Tuple[OpBasedCRDT, AbstractSet[Dot]]:
        """One pass over the whole journal: apply the visible entries
        not applied, or rebuild on a regression."""
        if not self._base_still_covered(cached, journal):
            return self._rebuild(scope, journal, visible, token, view)
        to_apply = []
        hidden = []
        applied = cached.dots
        for entry in journal.iter_entries():
            if visible is None or visible(entry):
                if entry.dot not in applied:
                    to_apply.append(entry)
            elif entry.dot in applied:
                return self._rebuild(scope, journal, visible, token, view)
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
        if journal.folded <= cached.dots:
            cached.base_version = journal.base_version
            return True
        return False

    def _rebuild(self, scope: Optional[str], journal: ObjectJournal,
                 visible: Optional[EntryFilter],
                 token: Optional[Hashable],
                 view: Optional[Visibility]) \
            -> Tuple[OpBasedCRDT, AbstractSet[Dot]]:
        state, dots, hidden = journal.replay(visible)
        if journal.views is EMPTY_MAP:
            journal.views = {}
        cached = journal.views[scope] = _CachedVersion(
            journal.version, journal.base_version, token, dots, state)
        cached.track(journal, view, hidden)
        self.stats.mat_misses += 1
        return state, dots
