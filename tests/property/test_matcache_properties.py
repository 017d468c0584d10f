"""Property: a cached read always equals a fresh materialisation.

Random interleavings of ``append`` / ``admit`` / ``advance_vector`` /
``advance_base`` (compaction) / ``drop``+re-``ensure`` must never make
the incremental materialisation cache diverge from a from-scratch
``ObjectJournal.materialise`` — same CRDT value and same visible dots —
no matter which path (pure hit, incremental replay, rebuild) served it.
The incremental path advances the cached state **in place**: it must
land on the very state a fresh materialisation builds (internal tags
included), hand back the same object, and never clone.
"""

from unittest import mock

from hypothesis import given, settings, strategies as st

from repro.core import (CommitStamp, Dot, ObjectKey, Snapshot,
                        Transaction, VectorClock, WriteOp)
from repro.crdt import Counter, ORSet
from repro.store import MaterialisedCache, VersionedStore


KEY = ObjectKey("b", "x")
ORIGINS = ["a", "b", "c"]
N_TXNS = 12


def _counter_txns():
    txns = []
    for i in range(1, N_TXNS + 1):
        op = Counter().prepare("increment", i)
        # Odd dots stay symbolic (visible only once admitted); even dots
        # carry a concrete stamp (visible once the vector advances).
        entries = {"dc0": i} if i % 2 == 0 else None
        txns.append(Transaction(
            dot=Dot(i, ORIGINS[i % len(ORIGINS)]),
            origin=ORIGINS[i % len(ORIGINS)],
            snapshot=Snapshot(VectorClock()),
            commit=CommitStamp(entries),
            writes=[WriteOp(KEY, op)]))
    return txns


def _orset_txns():
    txns = []
    for i in range(1, N_TXNS + 1):
        # Overlapping elements from different origins exercise tag merge.
        op = ORSet().prepare("add", f"e{i % 4}")
        entries = {"dc0": i} if i % 2 == 0 else None
        txns.append(Transaction(
            dot=Dot(i, ORIGINS[i % len(ORIGINS)]),
            origin=ORIGINS[i % len(ORIGINS)],
            snapshot=Snapshot(VectorClock()),
            commit=CommitStamp(entries),
            writes=[WriteOp(KEY, op)]))
    return txns


command_st = st.one_of(
    st.tuples(st.just("append"), st.integers(0, N_TXNS - 1)),
    st.tuples(st.just("admit"), st.integers(0, N_TXNS - 1)),
    st.tuples(st.just("advance"), st.integers(0, N_TXNS)),
    st.tuples(st.just("compact"), st.just(0)),
    st.tuples(st.just("drop"), st.just(0)),
)


def _internal(crdt):
    """Full internal state, order-free (an orset's live tags included)."""
    data = crdt.to_dict()
    if "instances" in data:
        return {value: sorted(map(tuple, tags))
                for value, tags in data["instances"]}
    return data


def _frontier_filter(vector, admitted):
    def visible(entry):
        return entry.dot in admitted or entry.txn.commit.included_in(vector)
    return visible


def _run_interleaving(commands, txns, type_name):
    cache = MaterialisedCache()
    store = VersionedStore(mat_cache=cache)
    store.ensure_object(KEY, type_name)
    # The reader's frontier, as an edge keeps it: a vector plus the dots
    # admitted by id; the pair is the read token.
    vector, admitted = VectorClock.zero(), frozenset()
    stats = cache.stats
    previous = None
    for command, arg in commands:
        if command == "append":
            store.apply_transaction(txns[arg])
        elif command == "admit":
            txn = txns[arg]
            if txn.dot not in admitted \
                    and not txn.commit.included_in(vector):
                admitted |= {txn.dot}
                if not txn.commit.is_symbolic:
                    vector = vector.merge(
                        txn.commit.as_vector(txn.snapshot.vector))
        elif command == "advance":
            vector = vector.merge(VectorClock({"dc0": arg}))
        elif command == "compact":
            journal = store.journal(KEY)
            journal.advance_base(_frontier_filter(vector, admitted))
        elif command == "drop":
            store.drop(KEY)
            store.ensure_object(KEY, type_name)
        flt = _frontier_filter(vector, admitted)
        incremental_before = stats.mat_incremental
        cached, dots = store.read_with_dots(
            KEY, flt, type_name=type_name, token=(vector, admitted))
        journal = store.journal(KEY)
        fresh = journal.materialise(flt)
        assert cached.value() == fresh.value()
        assert _internal(cached) == _internal(fresh)
        assert dots == journal.visible_dots(flt)
        if stats.mat_incremental > incremental_before:
            assert cached is previous  # advanced in place, not copied
        previous = cached
    return cache


class TestCachedReadsMatchFreshMaterialisation:
    @settings(max_examples=120, deadline=None)
    @given(commands=st.lists(command_st, min_size=1, max_size=40))
    def test_counter_interleaving(self, commands):
        _run_interleaving(commands, _counter_txns(), "counter")

    @settings(max_examples=80, deadline=None)
    @given(commands=st.lists(command_st, min_size=1, max_size=40))
    def test_orset_interleaving(self, commands):
        _run_interleaving(commands, _orset_txns(), "orset")

    @settings(max_examples=60, deadline=None)
    @given(commands=st.lists(command_st, min_size=5, max_size=40))
    def test_only_rebuilds_clone(self, commands):
        calls = []
        clone = ORSet.clone

        def counting(crdt):
            calls.append(crdt)
            return clone(crdt)

        with mock.patch.object(ORSet, "clone", counting):
            cache = _run_interleaving(commands, _orset_txns(), "orset")
        # ``journal.materialise`` clones the base once per call: one per
        # cache miss plus the property's own fresh read per command.
        assert len(calls) == cache.stats.mat_misses + len(commands)

    @settings(max_examples=60, deadline=None)
    @given(commands=st.lists(command_st, min_size=5, max_size=40))
    def test_stats_account_every_read(self, commands):
        cache = _run_interleaving(commands, _counter_txns(), "counter")
        stats = cache.stats
        total = stats.mat_hits + stats.mat_incremental + stats.mat_misses
        assert total == len(commands)
