"""Storage substrate tests: versioned store, hash ring, and the store
as an edge replica's interest cache."""

import pytest

from repro.core import (CommitStamp, Dot, ObjectKey, Snapshot, Transaction,
                        VectorClock, WriteOp)
from repro.core.journal import ObjectState
from repro.crdt import Counter
from repro.security.enforcement import SECURITY_OBJECTS
from repro.store import HashRing, VersionedStore


def txn(counter, key=ObjectKey("b", "x"), origin="e", entries=None):
    op = Counter().prepare("increment", 1)
    return Transaction(Dot(counter, origin), origin,
                       Snapshot(VectorClock()), CommitStamp(entries),
                       [WriteOp(key, op)])


class TestVersionedStore:
    def test_apply_and_read(self):
        store = VersionedStore()
        store.apply_transaction(txn(1))
        assert store.read(ObjectKey("b", "x")).value() == 1

    def test_read_unknown_key_with_type(self):
        store = VersionedStore()
        state = store.read(ObjectKey("b", "nope"), type_name="counter")
        assert state.value() == 0

    def test_read_unknown_key_without_type_raises(self):
        with pytest.raises(KeyError):
            VersionedStore().read(ObjectKey("b", "nope"))

    def test_duplicate_txn_idempotent(self):
        store = VersionedStore()
        t = txn(1)
        assert store.apply_transaction(t)
        assert not store.apply_transaction(t)
        assert store.read(ObjectKey("b", "x")).value() == 1

    def test_multi_key_txn_journalled_everywhere(self):
        store = VersionedStore()
        op1 = Counter().prepare("increment", 1)
        op2 = Counter().prepare("increment", 2)
        t = Transaction(Dot(1, "e"), "e", Snapshot(VectorClock()),
                        CommitStamp(),
                        [WriteOp(ObjectKey("b", "x"), op1),
                         WriteOp(ObjectKey("b", "y"), op2)])
        store.apply_transaction(t)
        assert store.read(ObjectKey("b", "x")).value() == 1
        assert store.read(ObjectKey("b", "y")).value() == 2

    def test_compact(self):
        store = VersionedStore()
        store.apply_transaction(txn(1, entries={"dc0": 1}))
        store.apply_transaction(txn(2, entries={"dc0": 2}))
        vec = VectorClock({"dc0": 1})
        folded = store.compact(lambda e: e.txn.commit.included_in(vec))
        assert folded == 1
        assert store.journal(ObjectKey("b", "x")).journal_length == 1

    def test_drop(self):
        store = VersionedStore()
        store.apply_transaction(txn(1))
        store.drop(ObjectKey("b", "x"))
        assert ObjectKey("b", "x") not in store


class TestHashRing:
    def test_lookup_deterministic(self):
        ring = HashRing()
        for i in range(4):
            ring.add_server(f"s{i}")
        key = ObjectKey("b", "k")
        assert ring.lookup(key) == ring.lookup(key)

    def test_distribution_roughly_even(self):
        ring = HashRing(vnodes=128)
        for i in range(4):
            ring.add_server(f"s{i}")
        counts = {}
        for i in range(2000):
            owner = ring.lookup(ObjectKey("b", f"k{i}"))
            counts[owner] = counts.get(owner, 0) + 1
        assert len(counts) == 4
        assert min(counts.values()) > 200

    def test_remove_server_moves_only_its_keys(self):
        ring = HashRing()
        for i in range(4):
            ring.add_server(f"s{i}")
        before = {i: ring.lookup(ObjectKey("b", f"k{i}"))
                  for i in range(500)}
        ring.remove_server("s0")
        moved = sum(1 for i in range(500)
                    if ring.lookup(ObjectKey("b", f"k{i}")) != before[i])
        was_on_s0 = sum(1 for owner in before.values() if owner == "s0")
        assert moved == was_on_s0

    def test_preference_list_distinct(self):
        ring = HashRing()
        for i in range(5):
            ring.add_server(f"s{i}")
        plist = ring.preference_list(ObjectKey("b", "k"), 3)
        assert len(plist) == len(set(plist)) == 3

    def test_preference_list_starts_with_owner(self):
        ring = HashRing()
        for i in range(5):
            ring.add_server(f"s{i}")
        key = ObjectKey("b", "k")
        assert ring.preference_list(key, 3)[0] == ring.lookup(key)

    def test_partition_groups_by_owner(self):
        ring = HashRing()
        for i in range(3):
            ring.add_server(f"s{i}")
        keys = [ObjectKey("b", f"k{i}") for i in range(50)]
        shards = ring.partition(keys)
        assert sum(len(v) for v in shards.values()) == 50

    def test_empty_ring_lookup_fails(self):
        with pytest.raises(LookupError):
            HashRing().lookup(ObjectKey("b", "k"))

    def test_duplicate_server_rejected(self):
        ring = HashRing()
        ring.add_server("s0")
        with pytest.raises(ValueError):
            ring.add_server("s0")

    @staticmethod
    def fresh(servers):
        ring = HashRing()
        for server in servers:
            ring.add_server(server)
        return ring

    def test_owner_memo_dropped_when_a_server_joins(self):
        keys = [ObjectKey("b", f"k{i}") for i in range(300)]
        ring = self.fresh(["s0", "s1"])
        before = {key: ring.lookup(key) for key in keys}   # memo warm
        ring.add_server("s2")
        grown = self.fresh(["s0", "s1", "s2"])
        assert any(grown.lookup(key) != before[key] for key in keys)
        assert all(ring.lookup(key) == grown.lookup(key) for key in keys)
        assert ring.partition(keys) == grown.partition(keys)

    def test_owner_memo_dropped_when_a_server_leaves(self):
        keys = [ObjectKey("b", f"k{i}") for i in range(300)]
        ring = self.fresh(["s0", "s1", "s2"])
        assert ring.partition(keys)["s1"]                   # memo warm
        ring.remove_server("s1")
        shrunk = self.fresh(["s0", "s2"])
        assert ring.partition(keys) == shrunk.partition(keys)
        assert all(ring.lookup(key) == shrunk.lookup(key) for key in keys)

    def test_emptied_ring_lookup_fails_despite_earlier_lookups(self):
        ring = self.fresh(["s0"])
        key = ObjectKey("b", "k")
        assert ring.lookup(key) == "s0"
        ring.remove_server("s0")
        with pytest.raises(LookupError):
            ring.lookup(key)
        with pytest.raises(LookupError):
            ring.partition([key])


class TestInterestCache:
    """The store as an edge replica's interest cache: ``hold``,
    ``apply_held``, ``read_held``, ``drop``."""

    def test_declare_and_read(self):
        cache = VersionedStore()
        key = ObjectKey("b", "x")
        cache.hold(key, "counter")
        cache.apply_held(txn(1))
        assert cache.read_held(key, None).value() == 1
        assert cache.stats.hits == 1
        assert cache.interest() == ((key, "counter"),)

    def test_uninterested_txn_not_journalled(self):
        cache = VersionedStore()
        assert not cache.apply_held(txn(1))
        assert len(cache) == 0

    def test_miss_counted(self):
        cache = VersionedStore()
        assert cache.read_held(ObjectKey("b", "x"), None) is None
        assert cache.stats.misses == 1

    def test_lru_eviction(self):
        cache = VersionedStore(capacity=2)
        keys = [ObjectKey("b", f"k{i}") for i in range(3)]
        evicted = [cache.hold(key, "counter") for key in keys]
        assert evicted == [[], [], [keys[0]]]
        assert cache.keys() == {keys[1], keys[2]}
        assert cache.stats.evictions == 1

    def test_read_refreshes_lru(self):
        cache = VersionedStore(capacity=2)
        k0, k1, k2 = (ObjectKey("b", f"k{i}") for i in range(3))
        cache.hold(k0, "counter")
        cache.hold(k1, "counter")
        cache.read_held(k0, None)      # k0 becomes most recent
        assert cache.hold(k2, "counter") == [k1]
        assert k0 in cache
        assert k1 not in cache

    def test_without_a_capacity_reads_keep_the_declaration_order(self):
        cache = VersionedStore()
        k0, k1 = (ObjectKey("b", f"k{i}") for i in range(2))
        cache.hold(k0, "counter")
        cache.hold(k1, "orset")
        cache.read_held(k0, None)
        assert cache.interest() == ((k0, "counter"), (k1, "orset"))

    def test_the_security_objects_are_neither_counted_nor_evicted(self):
        cache = VersionedStore(capacity=1)
        for key, type_name in SECURITY_OBJECTS.items():
            assert cache.hold(key, type_name) == []
        k0, k1 = (ObjectKey("b", f"k{i}") for i in range(2))
        assert cache.hold(k0, "counter") == []
        assert cache.hold(k1, "counter") == [k0]
        assert cache.keys() == set(SECURITY_OBJECTS) | {k1}

    def test_retract_interest_drops_object(self):
        cache = VersionedStore()
        key = ObjectKey("b", "x")
        cache.hold(key, "counter")
        cache.drop(key)
        assert key not in cache
        assert cache.read_held(key, None) is None

    def test_hit_ratio(self):
        cache = VersionedStore()
        key = ObjectKey("b", "x")
        cache.hold(key, "counter")
        cache.read_held(key, None)
        cache.read_held(ObjectKey("b", "miss"), None)
        assert cache.stats.hit_ratio == 0.5

    def test_install_replaces_the_journal_in_place(self):
        cache = VersionedStore()
        k0, k1 = (ObjectKey("b", f"k{i}") for i in range(2))
        cache.hold(k0, "counter")
        cache.hold(k1, "counter")
        cache.apply_held(txn(1, key=k0))
        assert cache.read_held(k0, None).value() == 1
        seed = ObjectState.of(k0, "counter", Counter(), ()).journal()
        cache.install(seed)
        assert cache.journal(k0) is seed
        assert seed.views == {}
        assert [k for k, _t in cache.interest()] == [k0, k1]
        assert cache.read_held(k0, None).value() == 0

    def test_materialisation_counters(self):
        cache = VersionedStore()
        key = ObjectKey("b", "x")
        cache.hold(key, "counter")
        cache.apply_held(txn(1))
        token = ("t", 1)
        cache.read(key, None, token=token)
        cache.read(key, None, token=token)
        assert cache.stats.mat_misses == 1
        assert cache.stats.mat_hits == 1
        cache.apply_held(txn(2))
        cache.read(key, None, token=token)
        assert cache.stats.mat_incremental == 1
        assert cache.stats.mat_hit_ratio == 2 / 3

    def test_read_with_dots(self):
        cache = VersionedStore()
        key = ObjectKey("b", "x")
        cache.hold(key, "counter")
        cache.apply_held(txn(1))
        state, dots = cache.read_with_dots(key, None)
        assert state.value() == 1
        assert dots == {Dot(1, "e")}
        state, dots = cache.read_with_dots(ObjectKey("b", "nope"), None,
                                           "counter")
        assert (state.value(), dots) == (0, frozenset())
