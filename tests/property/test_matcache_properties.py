"""Property: a cached read always equals a fresh materialisation.

Random interleavings of journal writes (in order and out of order, a
symbolic stamp that gains its entry after the append, compaction,
drop + re-``hold``, a seed replacing the journal) and reader moves
(admit a dot, advance the vector, retire a dep once covered or while
still uncovered, read at an older vector, mask and unmask a dot, read a
second scope) must
never make the materialisation cache diverge from a from-scratch
``ObjectJournal.materialise`` — same CRDT value, same internal state
and same visible dots — no matter which path (hit, delta, scan,
rebuild) served it.  The delta and scan paths advance the cached state
**in place**: they must land on the very state a fresh materialisation
builds (internal tags included), hand back the same object, and never
clone.
"""

from unittest import mock

from hypothesis import given, settings, strategies as st

from repro.core import (CommitStamp, Dot, ObjectJournal, ObjectKey,
                        Snapshot, Transaction, VectorClock, Visibility,
                        WriteOp)
from repro.core.journal import ObjectState
from repro.crdt import Counter, ORSet
from repro.store import MaterialisedCache, VersionedStore


KEY = ObjectKey("b", "x")
ORIGINS = ["a", "b", "c"]
N_TXNS = 12


def _txns(prepare):
    txns = []
    for i in range(1, N_TXNS + 1):
        # Odd dots stay symbolic (visible only once admitted, or once
        # adopted); even dots carry a concrete stamp (visible once the
        # vector advances).
        entries = {"dc0": i} if i % 2 == 0 else None
        txns.append(Transaction(
            dot=Dot(i, ORIGINS[i % len(ORIGINS)]),
            origin=ORIGINS[i % len(ORIGINS)],
            snapshot=Snapshot(VectorClock()),
            commit=CommitStamp(entries),
            writes=[WriteOp(KEY, prepare(i))]))
    return txns


def _counter_txns():
    return _txns(lambda i: Counter().prepare("increment", i))


def _orset_txns():
    # Overlapping elements from different origins exercise tag merge.
    return _txns(lambda i: ORSet().prepare("add", f"e{i % 4}"))


txn_index = st.integers(0, N_TXNS - 1)
# Writes and reader progress are listed twice: the delta path needs
# entries to find and views that widen.
grow_st = st.one_of(
    st.tuples(st.just("append"), txn_index),
    st.tuples(st.just("admit"), txn_index),
    st.tuples(st.just("advance"), st.integers(0, N_TXNS)),
)
command_st = st.one_of(
    grow_st,
    grow_st,
    st.tuples(st.just("append"), txn_index),
    # The lowest transaction not journalled yet: behind the tail once
    # a later one is in.
    st.tuples(st.just("append_early"), st.just(0)),
    st.tuples(st.just("admit"), txn_index),
    # A symbolic stamp gains its DC entry after the append.  As on an
    # edge, only a dot the reader shows by id (its own commit, a peer's
    # relay) adopts, and at a timestamp its vector does not cover yet
    # (an ack comes before the push that covers it): an equal view must
    # still show an equal set.
    st.tuples(st.just("adopt"), txn_index),
    st.tuples(st.just("advance"), st.integers(0, N_TXNS)),
    st.tuples(st.just("retire_covered"), st.just(0)),
    st.tuples(st.just("retire"), txn_index),
    st.tuples(st.just("older"), st.integers(0, N_TXNS)),
    st.tuples(st.just("mask"), txn_index),
    st.tuples(st.just("unmask"), txn_index),
    st.tuples(st.just("family"), st.integers(0, 1)),
    # Compaction at a vector up to ``arg`` ahead of the last read (the
    # pushes that advanced it came first), so it may fold entries the
    # cached version holds pending.
    st.tuples(st.just("compact"), st.integers(0, N_TXNS)),
    # An append folded before any read sees it.
    st.tuples(st.just("unseen"), txn_index),
    st.tuples(st.just("drop"), st.just(0)),
    # A seed cut up to ``arg`` ahead of the reader replaces the journal,
    # which takes the previous one's entries on top (as an edge's
    # ``_install_seed`` does).
    st.tuples(st.just("replace"), st.integers(0, N_TXNS)),
)


def _pick(items, arg):
    items = sorted(items)
    return items[arg % len(items)] if items else None


def _internal(crdt):
    """Full internal state, order-free (an orset's live tags included)."""
    data = crdt.to_dict()
    if "instances" in data:
        return {value: sorted(map(tuple, tags))
                for value, tags in data["instances"]}
    return data


def _opaque_filter(vector):
    def visible(entry):
        return entry.txn.commit.included_in(vector)
    return visible


class _Run:
    """One interleaving against one store; counts the reads it made,
    each compared with a fresh materialisation."""

    def __init__(self, txns, type_name):
        self.txns = txns
        self.type_name = type_name
        self.store = VersionedStore()
        self.store.hold(KEY, type_name)
        # The reader's frontier, as an edge keeps it: a vector, the dots
        # admitted by id, and a security mask.
        self.vector = VectorClock.zero()
        self.admitted = frozenset()
        self.masked = frozenset()
        self.reads = 0
        self.seeds = 0
        self.previous = {}

    def view(self):
        return Visibility(self.vector, self.admitted, self.masked)

    def apply(self, command, arg):
        txns = self.txns
        txn = txns[arg % N_TXNS]
        read_view = None
        if command == "append":
            self.store.apply_transaction(txn)
        elif command == "append_early":
            journal = self.store.journal(KEY)
            missing = [t for t in txns if not journal.has(t.dot)]
            if missing:
                self.store.apply_transaction(missing[0])
        elif command == "admit":
            if txn.dot not in self.admitted \
                    and not txn.commit.included_in(self.vector):
                self.admitted |= {txn.dot}
                if not txn.commit.is_symbolic:
                    self.vector = self.vector.merge(
                        txn.commit.as_vector(txn.snapshot.vector))
        elif command == "adopt":
            dot = _pick(self.admitted, arg)
            txn = txns[dot.counter - 1] if dot is not None else txn
            if dot is not None and txn.commit.is_symbolic:
                txn.commit = txn.commit.with_entry(
                    "dc0", max(dot.counter, self.vector["dc0"] + 1))
        elif command == "advance":
            self.vector = self.vector.merge(VectorClock({"dc0": arg}))
        elif command == "retire_covered":
            self.admitted = frozenset(
                dot for dot in self.admitted
                if not any(t.dot == dot and t.commit.included_in(self.vector)
                           for t in txns))
        elif command == "retire":
            self.admitted -= {_pick(self.admitted, arg)}
        elif command == "older":
            older = VectorClock({"dc0": min(arg, self.vector["dc0"])})
            read_view = Visibility(older, self.admitted, self.masked)
        elif command == "mask":
            journal = self.store.journal(KEY)
            dot = _pick((e.dot for e in journal.iter_entries()), arg)
            if dot is not None:
                self.masked |= {dot}
        elif command == "unmask":
            self.masked -= {_pick(self.masked, arg)}
        elif command == "family":
            if arg == 0:
                self.read(Visibility(self.vector), scope="seed")
            else:
                self.read(_opaque_filter(self.vector), scope="opaque",
                          token=("opaque", self.vector))
        elif command == "compact":
            self.compact(arg)
        elif command == "unseen":
            self.store.apply_transaction(txn)
            self.compact(arg + 1)
        elif command == "drop":
            self.store.drop(KEY)
            self.store.hold(KEY, self.type_name)
        elif command == "replace":
            self.replace(arg)
        self.read(read_view or self.view())

    def replace(self, ahead):
        previous = self.store.journal(KEY)
        cut = Visibility(self.vector.merge(VectorClock({"dc0": ahead})))
        seed = ObjectState.of(KEY, self.type_name,
                              previous.materialise(cut),
                              previous.visible_dots(cut)).journal()
        self.store.install(seed)
        for entry in previous.entries():
            seed.append(entry.txn)
        self.seeds += 1

    def compact(self, ahead):
        vector = self.vector.merge(VectorClock({"dc0": ahead}))
        self.store.journal(KEY).advance_base(
            Visibility(vector, self.admitted))

    def read(self, visible, scope=None, token=None):
        stats = self.store.stats
        advanced_before = stats.mat_incremental
        cached, dots = self.store.read_with_dots(
            KEY, visible, type_name=self.type_name, token=token,
            scope=scope)
        journal = self.store.journal(KEY)
        fresh = journal.materialise(visible)
        assert cached.value() == fresh.value()
        assert _internal(cached) == _internal(fresh)
        assert dots == journal.visible_dots(visible)
        if stats.mat_incremental > advanced_before:
            # Advanced in place, not copied.
            assert cached is self.previous.get(scope)
        self.previous[scope] = cached
        self.reads += 1


def _run_interleaving(commands, txns, type_name):
    run = _Run(txns, type_name)
    for command, arg in commands:
        run.apply(command, arg)
    return run


class TestCachedReadsMatchFreshMaterialisation:
    @settings(deadline=None)
    @given(commands=st.lists(command_st, min_size=10, max_size=60))
    def test_counter_interleaving(self, commands):
        _run_interleaving(commands, _counter_txns(), "counter")

    @settings(deadline=None)
    @given(commands=st.lists(command_st, min_size=10, max_size=60))
    def test_orset_interleaving(self, commands):
        _run_interleaving(commands, _orset_txns(), "orset")

    @settings(deadline=None)
    @given(commands=st.lists(command_st, min_size=5, max_size=40))
    def test_only_rebuilds_clone(self, commands):
        calls = []
        clone = ORSet.clone

        def counting(crdt):
            calls.append(crdt)
            return clone(crdt)

        with mock.patch.object(ORSet, "clone", counting):
            run = _run_interleaving(commands, _orset_txns(), "orset")
        # A materialisation clones the base once: one per cache rebuild
        # plus the property's own fresh read per cached read and per
        # seed it cuts.
        assert len(calls) == \
            run.store.stats.mat_misses + run.reads + run.seeds

    @settings(deadline=None)
    @given(commands=st.lists(command_st, min_size=5, max_size=40))
    def test_stats_account_every_read(self, commands):
        run = _run_interleaving(commands, _counter_txns(), "counter")
        stats = run.store.stats
        total = stats.mat_hits + stats.mat_incremental + stats.mat_misses
        assert total == run.reads


class TestDeltaReadsTestOnlyWhatTheyHaveNotApplied:
    """A count guard, not a timing: the view is evaluated on the
    entries a widening read has not applied, not on the journal."""

    N = 1_000

    @staticmethod
    def _txn(i, entries):
        return Transaction(
            dot=Dot(i, "e"), origin="e", snapshot=Snapshot(VectorClock()),
            commit=CommitStamp(entries),
            writes=[WriteOp(KEY, Counter().prepare("increment", 1))])

    @settings(max_examples=10, deadline=None)
    @given(pending=st.integers(0, 8), by_dep=st.integers(0, 8),
           stamped=st.booleans())
    def test_one_append_then_a_widening_read(self, pending, by_dep,
                                             stamped):
        journal = ObjectJournal(KEY, "counter")
        deps = set()
        for i in range(1, self.N + 1):
            symbolic = i > self.N - pending - by_dep
            journal.append(self._txn(i, None if symbolic else {"dc0": i}))
            if symbolic and i > self.N - by_dep:
                deps.add(Dot(i, "e"))
        cache = MaterialisedCache()
        vector = VectorClock({"dc0": self.N})
        cache.materialise(journal, Visibility(vector, frozenset(deps)))
        journal.append(self._txn(self.N + 1,
                                 {"dc0": self.N + 1} if stamped else None))
        wider = Visibility(VectorClock({"dc0": self.N + 1}),
                           frozenset(deps))
        calls = []
        evaluate = Visibility.__call__

        def counting(view, entry):
            calls.append(entry)
            return evaluate(view, entry)

        with mock.patch.object(Visibility, "__call__", counting):
            state, dots = cache.materialise(journal, wider)
        assert len(calls) <= pending + by_dep + 1
        assert cache.stats.mat_misses == 1
        assert state.value() == journal.materialise(wider).value()
        assert dots == journal.visible_dots(wider)
