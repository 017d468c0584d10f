"""MaterialisedCache: hits, incremental replay, invalidation rules."""

from repro.core import (CommitStamp, Dot, ObjectKey, ObjectJournal,
                        Snapshot, Transaction, VectorClock, WriteOp)
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
                                     token=("t", vec2), key=(KEY, "seed"))
        assert other.value() == 5
        assert old.value() == 2  # a different cache key: untouched
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
                          key=(KEY, "a"))
        cache.materialise(j, vector_filter(zero), token=("b", zero),
                          key=(KEY, "b"))
        cache.materialise(j, vector_filter(vec), token=("a", vec),
                          key=(KEY, "a"))
        cache.materialise(j, vector_filter(zero), token=("b", zero),
                          key=(KEY, "b"))
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

    def test_uid_change_invalidates(self):
        cache = MaterialisedCache()
        store = VersionedStore(mat_cache=cache)
        store.ensure_object(KEY, "counter")
        store.apply_transaction(counter_txn(1, amount=7,
                                            entries={"dc0": 1}))
        assert store.read(KEY).value() == 7
        store.drop(KEY)
        store.ensure_object(KEY, "counter")
        assert store.read(KEY).value() == 0
        assert cache.stats.mat_misses == 2

    def test_drop_invalidates_scoped_views_too(self):
        cache = MaterialisedCache()
        store = VersionedStore(mat_cache=cache)
        store.ensure_object(KEY, "counter")
        store.read(KEY, cache_key=(KEY, "seed"))
        assert len(cache) == 1
        store.drop(KEY)
        assert len(cache) == 0

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
