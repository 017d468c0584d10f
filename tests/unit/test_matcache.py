"""MaterialisedCache: hits, incremental replay, invalidation rules."""

from repro.core import (CommitStamp, Dot, ObjectKey, ObjectJournal,
                        Snapshot, Transaction, VectorClock, Visibility,
                        WriteOp)
from repro.crdt import Counter, ORSet
from repro.store import CacheStats, MaterialisedCache, VersionedStore


KEY = ObjectKey("b", "x")


def counter_txn(counter, origin="e", amount=1, key=KEY, entries=None):
    op = Counter().prepare("increment", amount)
    return Transaction(
        dot=Dot(counter, origin), origin=origin,
        snapshot=Snapshot(VectorClock()),
        commit=CommitStamp(entries),
        writes=[WriteOp(key, op)])


def orset_txn(counter, element, origin="e", key=KEY, entries=None):
    op = ORSet().prepare("add", element)
    return Transaction(
        dot=Dot(counter, origin), origin=origin,
        snapshot=Snapshot(VectorClock()),
        commit=CommitStamp(entries),
        writes=[WriteOp(key, op)])


def vector_filter(vec):
    def visible(entry):
        return entry.txn.commit.included_in(vec)
    return visible


class TestBasics:
    def test_first_read_is_a_miss(self):
        cache = MaterialisedCache()
        j = ObjectJournal(KEY, "counter")
        j.append(counter_txn(1, amount=5, entries={"dc0": 1}))
        state, dots = cache.materialise(j)
        assert state.value() == 5
        assert dots == {Dot(1, "e")}
        assert cache.stats.mat_misses == 1

    def test_same_token_same_version_is_a_pure_hit(self):
        cache = MaterialisedCache()
        j = ObjectJournal(KEY, "counter")
        j.append(counter_txn(1, entries={"dc0": 1}))
        vec = VectorClock({"dc0": 1})
        token = ("t", vec)
        first, _ = cache.materialise(j, vector_filter(vec), token=token)
        second, _ = cache.materialise(j, vector_filter(vec), token=token)
        assert second is first  # no clone, shared state
        assert cache.stats.mat_hits == 1
        assert cache.stats.mat_misses == 1

    def test_no_token_unchanged_view_still_avoids_rebuild(self):
        cache = MaterialisedCache()
        j = ObjectJournal(KEY, "counter")
        j.append(counter_txn(1, entries={"dc0": 1}))
        vec = VectorClock({"dc0": 1})
        cache.materialise(j, vector_filter(vec))
        state, _ = cache.materialise(j, vector_filter(vec))
        assert state.value() == 1
        assert cache.stats.mat_misses == 1
        assert cache.stats.mat_hits == 1

    def test_incremental_applies_only_new_entries(self):
        cache = MaterialisedCache()
        j = ObjectJournal(KEY, "counter")
        j.append(counter_txn(1, amount=2, entries={"dc0": 1}))
        vec1 = VectorClock({"dc0": 1})
        cache.materialise(j, vector_filter(vec1), token=("t", vec1))
        j.append(counter_txn(2, amount=3, entries={"dc0": 2}))
        vec2 = VectorClock({"dc0": 2})
        state, dots = cache.materialise(j, vector_filter(vec2),
                                        token=("t", vec2))
        assert state.value() == 5
        assert dots == {Dot(1, "e"), Dot(2, "e")}
        assert cache.stats.mat_incremental == 1
        assert cache.stats.mat_misses == 1

    def test_incremental_result_matches_fresh_materialise(self):
        cache = MaterialisedCache()
        j = ObjectJournal(KEY, "orset")
        j.append(orset_txn(1, "a", entries={"dc0": 1}))
        vec1 = VectorClock({"dc0": 1})
        cache.materialise(j, vector_filter(vec1), token=("t", vec1))
        j.append(orset_txn(2, "b", entries={"dc0": 2}))
        j.append(orset_txn(3, "c", entries={"dc0": 3}))
        vec2 = VectorClock({"dc0": 3})
        state, dots = cache.materialise(j, vector_filter(vec2),
                                        token=("t", vec2))
        fresh = j.materialise(vector_filter(vec2))
        assert state.value() == fresh.value()
        assert dots == j.visible_dots(vector_filter(vec2))

    def test_returned_state_valid_until_next_materialise_of_its_key(self):
        """The validity contract: an incremental read advances the cached
        state in place, so a state kept across it must have been cloned;
        reads under another cache key leave it alone."""
        cache = MaterialisedCache()
        j = ObjectJournal(KEY, "counter")
        j.append(counter_txn(1, amount=2, entries={"dc0": 1}))
        vec1 = VectorClock({"dc0": 1})
        old, old_dots = cache.materialise(j, vector_filter(vec1),
                                          token=("t", vec1))
        kept = old.clone()
        j.append(counter_txn(2, amount=3, entries={"dc0": 2}))
        vec2 = VectorClock({"dc0": 2})
        other, _ = cache.materialise(j, vector_filter(vec2),
                                     token=("t", vec2), scope="seed")
        assert other.value() == 5
        assert old.value() == 2  # a different scope: untouched
        new, new_dots = cache.materialise(j, vector_filter(vec2),
                                          token=("t", vec2))
        assert new is old and new_dots is old_dots  # advanced in place
        assert new.value() == 5
        assert new_dots == {Dot(1, "e"), Dot(2, "e")}
        assert kept.value() == 2  # the caller's own copy
        assert cache.stats.mat_incremental == 1

    def test_visibility_regression_forces_rebuild(self):
        cache = MaterialisedCache()
        j = ObjectJournal(KEY, "counter")
        j.append(counter_txn(1, entries={"dc0": 1}))
        j.append(counter_txn(2, entries={"dc0": 2}))
        vec2 = VectorClock({"dc0": 2})
        cache.materialise(j, vector_filter(vec2), token=("t", vec2))
        vec1 = VectorClock({"dc0": 1})
        state, dots = cache.materialise(j, vector_filter(vec1),
                                        token=("t", vec1))
        assert state.value() == 1
        assert dots == {Dot(1, "e")}
        assert cache.stats.mat_misses == 2

    def test_scoped_keys_do_not_thrash(self):
        cache = MaterialisedCache()
        j = ObjectJournal(KEY, "counter")
        j.append(counter_txn(1, entries={"dc0": 1}))
        vec = VectorClock({"dc0": 1})
        zero = VectorClock()
        cache.materialise(j, vector_filter(vec), token=("a", vec),
                          scope="a")
        cache.materialise(j, vector_filter(zero), token=("b", zero),
                          scope="b")
        cache.materialise(j, vector_filter(vec), token=("a", vec),
                          scope="a")
        cache.materialise(j, vector_filter(zero), token=("b", zero),
                          scope="b")
        assert cache.stats.mat_misses == 2
        assert cache.stats.mat_hits == 2


class TestInvalidation:
    def test_compaction_of_applied_prefix_keeps_cache(self):
        cache = MaterialisedCache()
        j = ObjectJournal(KEY, "counter")
        j.append(counter_txn(1, entries={"dc0": 1}))
        j.append(counter_txn(2, entries={"dc0": 2}))
        vec = VectorClock({"dc0": 2})
        cache.materialise(j, vector_filter(vec), token=("t", vec))
        assert j.advance_base(lambda e: True) == 2
        state, dots = cache.materialise(j, vector_filter(vec),
                                        token=("t", vec))
        assert state.value() == 2
        assert dots == {Dot(1, "e"), Dot(2, "e")}
        assert cache.stats.mat_misses == 1  # survived the fold

    def test_compaction_past_cached_view_invalidates(self):
        cache = MaterialisedCache()
        j = ObjectJournal(KEY, "counter")
        j.append(counter_txn(1, entries={"dc0": 1}))
        j.append(counter_txn(2, entries={"dc0": 2}))
        vec1 = VectorClock({"dc0": 1})
        cache.materialise(j, vector_filter(vec1), token=("t", vec1))
        # Fold BOTH entries: the cached view (1 entry applied) is now
        # behind the base and must not be reused.
        assert j.advance_base(lambda e: True) == 2
        state, dots = cache.materialise(j, vector_filter(vec1),
                                        token=("t", vec1))
        assert state.value() == 2  # folded entries are in the base
        assert dots == {Dot(1, "e"), Dot(2, "e")}
        assert cache.stats.mat_misses == 2

    def test_a_replaced_journal_starts_with_no_views(self):
        store = VersionedStore()
        store.hold(KEY, "counter")
        store.apply_held(counter_txn(1, amount=7, entries={"dc0": 1}))
        assert store.read(KEY).value() == 7
        assert store.read(KEY, scope="seed").value() == 7
        store.install(ObjectJournal(KEY, "counter"))
        assert store.journal(KEY).views == {}
        assert store.read(KEY).value() == 0
        assert store.stats.mat_misses == 3
        store.drop(KEY)
        store.hold(KEY, "counter")
        assert store.journal(KEY).views == {}
        assert store.read(KEY).value() == 0
        assert store.stats.mat_misses == 4

    def test_drop_invalidates_scoped_views_too(self):
        store = VersionedStore()
        store.hold(KEY, "counter")
        store.read(KEY)
        store.read(KEY, scope="seed")
        dropped = store.journal(KEY)
        assert set(dropped.views) == {None, "seed"}
        store.drop(KEY)
        store.hold(KEY, "counter")
        store.read(KEY, scope="seed")
        assert set(store.journal(KEY).views) == {"seed"}
        assert store.stats.mat_misses == 3

    def test_stats_can_be_shared(self):
        stats = CacheStats()
        cache = MaterialisedCache(stats=stats)
        j = ObjectJournal(KEY, "counter")
        j.append(counter_txn(1, entries={"dc0": 1}))
        cache.materialise(j)
        assert stats.mat_misses == 1
        assert 0.0 <= stats.mat_hit_ratio <= 1.0


class TestVisibleStateToken:
    """The edge's frontier token, as ``EdgeNode._snapshot_view`` builds
    it: the read vector and the dots visible by id."""

    @staticmethod
    def frontier_filter(vec, dots):
        def visible(entry):
            return entry.dot in dots or entry.txn.commit.included_in(vec)
        return visible

    def test_read_token_changes_with_frontier(self):
        cache = MaterialisedCache()
        j = ObjectJournal(KEY, "counter")
        j.append(counter_txn(1, entries={"dc0": 1}))
        j.append(counter_txn(2, origin="f"))
        token = (VectorClock({"dc0": 1}), frozenset())
        state, _ = cache.materialise(j, self.frontier_filter(*token),
                                     token=token)
        assert state.value() == 1
        # Admitting the symbolic dot moves the frontier: a new token, and
        # the cached view catches up instead of being served stale.
        admitted = (token[0], frozenset({Dot(2, "f")}))
        assert admitted != token
        state, _ = cache.materialise(j, self.frontier_filter(*admitted),
                                     token=admitted)
        assert state.value() == 2
        assert cache.stats.mat_hits == 0

    def test_token_stable_without_progress(self):
        cache = MaterialisedCache()
        j = ObjectJournal(KEY, "counter")
        j.append(counter_txn(1, entries={"dc0": 1}))
        vec = VectorClock({"dc0": 1})
        token = (vec, frozenset())
        first, _ = cache.materialise(j, self.frontier_filter(*token),
                                     token=token)
        # Progress already covered leaves the vector, hence the token.
        same = (vec.merge(VectorClock({"dc0": 1})), frozenset())
        assert same == token
        second, _ = cache.materialise(j, self.frontier_filter(*same),
                                      token=same)
        assert second is first
        assert cache.stats.mat_hits == 1


class TestDeltaReads:
    """A :class:`Visibility` is its own token, and a view that widens the
    cached one tests only the entries the cached version has not
    applied."""

    def test_an_equal_view_is_a_pure_hit(self):
        cache = MaterialisedCache()
        j = ObjectJournal(KEY, "counter")
        j.append(counter_txn(1, entries={"dc0": 1}))
        vec = VectorClock({"dc0": 1})
        first, _ = cache.materialise(j, Visibility(vec))
        second, _ = cache.materialise(j, Visibility(VectorClock({"dc0": 1})))
        assert second is first
        assert cache.stats.mat_hits == 1

    def test_a_widening_view_applies_the_new_entries_in_place(self):
        cache = MaterialisedCache()
        j = ObjectJournal(KEY, "counter")
        j.append(counter_txn(1, amount=2, entries={"dc0": 1}))
        j.append(counter_txn(2, amount=3, entries={"dc0": 2}))
        first, _ = cache.materialise(j, Visibility(VectorClock({"dc0": 1})))
        j.append(counter_txn(3, amount=4, origin="f"))
        own = frozenset({Dot(3, "f")})
        state, dots = cache.materialise(
            j, Visibility(VectorClock({"dc0": 2}), own))
        assert state is first and state.value() == 9
        assert dots == {Dot(1, "e"), Dot(2, "e"), Dot(3, "f")}
        assert cache.stats.mat_incremental == 1
        assert cache.stats.mat_misses == 1

    def test_a_dep_retired_while_uncovered_rebuilds(self):
        cache = MaterialisedCache()
        j = ObjectJournal(KEY, "counter")
        j.append(counter_txn(1, origin="f"))
        vec = VectorClock({"dc0": 1})
        cache.materialise(j, Visibility(vec, frozenset({Dot(1, "f")})))
        state, dots = cache.materialise(j, Visibility(vec))
        assert state.value() == 0 and not dots
        assert cache.stats.mat_misses == 2

    def test_a_newly_masked_applied_dot_rebuilds(self):
        cache = MaterialisedCache()
        j = ObjectJournal(KEY, "counter")
        j.append(counter_txn(1, entries={"dc0": 1}))
        vec = VectorClock({"dc0": 1})
        cache.materialise(j, Visibility(vec))
        state, _ = cache.materialise(
            j, Visibility(vec, masked=frozenset({Dot(1, "e")})))
        assert state.value() == 0
        assert cache.stats.mat_misses == 2

    def test_survives_a_compaction_that_folds_its_pending_entries(self):
        """A cached version that has seen every arrival keeps its state
        when compaction folds entries it holds pending: they are in the
        base now, so they count as visible and are applied."""
        cache = MaterialisedCache()
        j = ObjectJournal(KEY, "counter")
        for i in (1, 2, 3):
            j.append(counter_txn(i, amount=i, entries={"dc0": i}))
        view = Visibility(VectorClock({"dc0": 1}))
        first, _ = cache.materialise(j, view)
        assert first.value() == 1
        assert j.advance_base(Visibility(VectorClock({"dc0": 3}))) == 3
        state, dots = cache.materialise(j, view)
        assert state is first and state.value() == 6
        assert dots == {Dot(1, "e"), Dot(2, "e"), Dot(3, "e")}
        assert cache.stats.mat_misses == 1

    def test_an_arrival_folded_unseen_rebuilds(self):
        cache = MaterialisedCache()
        j = ObjectJournal(KEY, "counter")
        view = Visibility(VectorClock({"dc0": 1}))
        cache.materialise(j, view)
        j.append(counter_txn(1, entries={"dc0": 1}))
        j.append(counter_txn(2, entries={"dc0": 2}))
        j.advance_base(Visibility(VectorClock({"dc0": 2})))
        state, _ = cache.materialise(j, view)
        assert state.value() == 2
        assert cache.stats.mat_misses == 2

    def test_only_a_journal_a_cache_read_keeps_an_arrival_log(self):
        j = ObjectJournal(KEY, "counter")
        j.append(counter_txn(1, entries={"dc0": 1}))
        assert j.arrivals_since(0) is None
        mark = j.arrival_mark()
        j.append(counter_txn(2, entries={"dc0": 2}))
        assert [e.dot for e in j.arrivals_since(mark)] == [Dot(2, "e")]
        j.advance_base(lambda e: True)
        assert j.arrivals_since(mark) is None
        assert list(j.arrivals_since(j.arrival_mark())) == []

    def test_replay_is_materialise_and_visible_dots_in_one_pass(self):
        j = ObjectJournal(KEY, "counter")
        j.append(counter_txn(1, amount=2, entries={"dc0": 1}))
        j.append(counter_txn(2, amount=3, entries={"dc0": 2}))
        view = Visibility(VectorClock({"dc0": 1}))
        state, dots, hidden = j.replay(view)
        assert state.value() == j.materialise(view).value() == 2
        assert dots == j.visible_dots(view)
        assert [e.dot for e in hidden] == [Dot(2, "e")]
