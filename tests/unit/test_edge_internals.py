"""EdgeNode internals: warm cache, materialisation cache, key cuts,
message dispatch.  Where a test used to hand-feed a node what the
frontier decides — seeds, acks, pushed and pulled copies — it drives the
replica's two values directly (``tests/replicas.py``)."""

import pytest

from repro.core import (CommitStamp, Dot, ObjectKey, ObjectState,
                        Transaction, VectorClock)
from repro.crdt import Counter
from repro.dc.messages import CommitAck, UpdatePush
from repro.edge import EdgeNode, PoPNode
from repro.groups import GroupMember
from repro.groups.messages import GroupRelayPush
from repro.sim import LatencyModel, Simulation

from ..conftest import build_cluster, build_edge, run_update
from ..replicas import Replica

KEY = ObjectKey("b", "x")
INTEREST = ((KEY, "counter"),)


def world(seed=131, **edge_kwargs):
    sim = Simulation(seed=seed, default_latency=LatencyModel(10.0))
    dcs = build_cluster(sim, n_dcs=1, k_target=1)
    node = sim.spawn(EdgeNode, "e", dc_id="dc0", **edge_kwargs)
    node.declare_interest(KEY, "counter")
    node.connect()
    sim.run_for(200)
    return sim, dcs, node


class TestWarmth:
    def test_seeded_key_is_warm(self):
        sim, dcs, node = world()
        assert KEY in node.frontier.key_cut

    def test_declared_but_unseeded_key_is_cold(self):
        sim, dcs, node = world()
        cold = ObjectKey("b", "cold")
        node._declare_interest_local(cold, "counter")
        assert cold not in node.frontier.key_cut

    def test_eviction_clears_warmth_and_cut(self):
        sim, dcs, node = world()
        node.cache.capacity = 1
        other = ObjectKey("b", "other")
        node.declare_interest(other, "counter")  # evicts KEY (LRU)
        assert KEY not in node.frontier.key_cut
        assert KEY not in node.cache

    def test_a_seed_warms_its_key_at_its_cut(self):
        r = Replica()
        assert KEY not in r.frontier.key_cut
        assert r.seed(KEY, VectorClock({"dc0": 2}))
        assert r.frontier.key_cut[KEY] == VectorClock({"dc0": 2})

    def test_a_seed_at_a_cut_the_key_covers_is_stale(self):
        r = Replica()
        r.seed(KEY, VectorClock({"dc0": 2, "dc1": 1}))
        assert not r.seed(KEY, VectorClock({"dc0": 1}), [Dot(9, "w")])
        assert not r.log.dots.seen(Dot(9, "w"))  # nothing folded
        # A concurrent cut is news: the key's cut is their merge.
        assert r.seed(KEY, VectorClock({"dc0": 1, "dc1": 3}))
        assert r.frontier.key_cut[KEY] == VectorClock({"dc0": 2, "dc1": 3})

    def test_a_seed_lacking_what_the_journal_folded_is_dropped(self):
        """A seed cut past the key's cut but short of what its journal
        has folded into the base — a session ack's seed overtaken by
        pushes and a compaction — would lose those transactions for
        good, with the vector still covering them: it is dropped.
        (Chaos ``--topology group --seed 78`` met it on a sync point
        reopening its session.)"""
        node = spawn(EdgeNode)
        folded = Dot(7, "w")
        node._install_seed(ObjectState(KEY, "counter", Counter().to_dict(),
                                       (folded,)), VectorClock({"dc0": 9}))
        node._install_seed(ObjectState(KEY, "counter", Counter().to_dict(),
                                       (Dot(1, "w"),)),
                           VectorClock({"dc0": 9, "dc1": 1}))
        assert node.cache.journal(KEY).has(folded)
        assert node.frontier.key_cut[KEY] == VectorClock({"dc0": 9})

    def test_a_one_key_seed_does_not_move_the_vector_past_the_others(self):
        other = ObjectKey("b", "other")
        r = Replica()
        r.seeded({KEY: (), other: ()}, VectorClock({"dc0": 1}))
        assert r.frontier.vector == VectorClock({"dc0": 1})
        r.seeded({KEY: ()}, VectorClock({"dc0": 5}))
        assert r.frontier.vector == VectorClock({"dc0": 1})
        # ... but reads of the seeded key happen at its own cut.
        assert r.view(KEY).vector == VectorClock({"dc0": 5})
        r.seeded({KEY: (), other: ()}, VectorClock({"dc0": 5}))
        assert r.frontier.vector == VectorClock({"dc0": 5})

    def test_a_seed_folds_its_base_dots_into_the_log(self):
        r = Replica()
        r.seed(KEY, VectorClock({"dc0": 1}), [Dot(7, "w")])
        assert r.log.dots.seen(Dot(7, "w"))
        assert r.log.lamport.tick() == 8   # own dots order after the base

    def test_read_value_none_for_unknown_key(self):
        sim, dcs, node = world()
        assert node.read_value(ObjectKey("b", "nope"), "counter") is None


class TestMaterialisationCache:
    def test_repeated_reads_hit_cache(self):
        sim, dcs, node = world()
        node.read_value(KEY, "counter")
        hits_before = node.cache.stats.hits
        node.read_value(KEY, "counter")
        assert node.cache.stats.hits == hits_before + 1

    def test_cache_invalidated_by_new_entry(self):
        sim, dcs, node = world()
        assert node.read_value(KEY, "counter") == 0
        run_update(node, KEY, "counter", "increment", 5)
        assert node.read_value(KEY, "counter") == 5

    def test_cache_invalidated_by_vector_advance(self):
        sim, dcs, node = world()
        other = build_edge(sim, "o", interest=INTEREST)
        sim.run_for(200)
        assert node.read_value(KEY, "counter") == 0
        run_update(other, KEY, "counter", "increment", 2)
        sim.run_for(2000)
        assert node.read_value(KEY, "counter") == 2

    def test_cached_state_not_mutated_by_write_txn(self):
        # Copy-on-write: the buffered update must not leak into the
        # shared materialisation cache before commit.
        sim, dcs, node = world()
        node.read_value(KEY, "counter")
        observed = []

        def body(tx):
            yield tx.update(KEY, "counter", "increment", 1)
            value = yield tx.read(KEY, "counter")
            observed.append(value)
            # Mid-transaction, the cache still shows the old value.
            observed.append(node.read_value(KEY, "counter"))

        node.run_transaction(body)
        assert observed[0] == 1
        assert observed[1] == 0


class TestTransactionBuffer:
    """Own effects are buffered; a private copy exists only once the
    transaction comes back to a key it has written."""

    DOC = ObjectKey("b", "doc")

    def doc_world(self):
        sim, dcs, node = world()
        node.declare_interest(self.DOC, "orset")
        sim.run_for(200)
        for element in ("a", "b"):
            run_update(node, self.DOC, "orset", "add", element)
        return sim, node

    def test_read_after_write_sees_own_effect(self):
        sim, node = self.doc_world()
        seen = []

        def body(tx):
            seen.append((yield tx.read(self.DOC, "orset")))
            yield tx.update(self.DOC, "orset", "add", "c")
            seen.append((yield tx.read(self.DOC, "orset")))
            seen.append(node.read_value(self.DOC, "orset"))  # the cache

        node.run_transaction(body)
        assert seen == [{"a", "b"}, {"a", "b", "c"}, {"a", "b"}]
        assert node.read_value(self.DOC, "orset") == {"a", "b", "c"}

    def test_update_after_update_prepares_against_the_first(self):
        # The remove must observe the tag of the add buffered before it,
        # or the element survives the transaction.
        sim, node = self.doc_world()

        def body(tx):
            yield tx.update(self.DOC, "orset", "add", "c")
            yield tx.update(self.DOC, "orset", "remove", "c")
            return (yield tx.read(self.DOC, "orset"))

        results = []
        node.run_transaction(body, on_done=lambda r, s: results.append(r))
        assert results == [{"a", "b"}]
        assert node.read_value(self.DOC, "orset") == {"a", "b"}
        sim.run_for(2000)
        other = build_edge(sim, "o", interest=((self.DOC, "orset"),))
        sim.run_for(500)
        assert other.read_value(self.DOC, "orset") == {"a", "b"}

    def test_one_update_per_key_never_clones(self, monkeypatch):
        from repro.crdt import Counter, ORSet
        sim, node = self.doc_world()
        node.read_value(KEY, "counter")  # first reads build from the base
        clones = []
        for cls in (ORSet, Counter):
            monkeypatch.setattr(
                cls, "clone",
                lambda self, _clone=cls.clone: (clones.append(self),
                                                _clone(self))[1])

        def body(tx):
            before = yield tx.read(self.DOC, "orset")
            yield tx.update(self.DOC, "orset", "add", "c")
            yield tx.update(KEY, "counter", "increment", 1)
            return before

        for _ in range(5):
            node.run_transaction(body)
        assert node.read_value(self.DOC, "orset") == {"a", "b", "c"}
        assert node.read_value(KEY, "counter") == 5
        assert clones == []


class TestSnapshotAndCuts:
    def test_snapshot_includes_uncovered_own_txns(self):
        sim, dcs, node = world()
        run_update(node, KEY, "counter", "increment", 1)
        snapshot = node.frontier.current_snapshot()
        assert len(snapshot.local_deps) == 1

    def test_uncovered_drains_after_ack_and_push(self):
        sim, dcs, node = world()
        run_update(node, KEY, "counter", "increment", 1)
        sim.run_for(2000)
        assert not node.frontier.uncovered
        snapshot = node.frontier.current_snapshot()
        assert not snapshot.local_deps
        assert snapshot.vector["dc0"] == 1

    def test_ack_after_the_covering_push_settles_uncovered(self):
        # The covering push carries the stamp and settles the commit by
        # itself; the ack that follows finds nothing left to do, and no
        # further push is owed to a session outside later audiences.
        r = Replica()
        r.seed(KEY, VectorClock.zero())
        txn = r.commit_own(KEY)
        stamped = txn.handoff()
        stamped.commit = stamped.commit.with_entry("dc0", 1)
        assert r.push([stamped], {"dc0": 1}, {})
        assert r.frontier.vector["dc0"] == 1
        assert txn.commit.entries == {"dc0": 1}
        assert not r.frontier.uncovered and not r.log.unacked
        r.adopt(txn.dot, {"dc0": 1})
        assert not r.frontier.uncovered and not r.log.unacked
        assert not r.deps
        assert r.visible(txn, KEY)

    def test_a_push_in_its_dict_form_applies(self):
        # Drivers outside ``src/`` build pushes from ``to_dict()``; the
        # edge parses that form where it comes in.
        sim, dcs, node = world()
        sim.network.partition("dc0", "e")      # the test plays the DC
        run_update(node, KEY, "counter", "increment", 1)
        (dot, txn), = node.frontier.uncovered.items()
        stamped = dict(txn.to_dict(), commit={"entries": {"dc0": 1}})
        node.on_message(UpdatePush((stamped,), {"dc0": 1}, {}), "dc0")
        assert txn.commit.entries == {"dc0": 1}
        assert not node.frontier.uncovered and not node.unacked

    def test_ack_before_the_push_keeps_read_my_writes(self):
        r = Replica()
        r.seed(KEY, VectorClock.zero())
        txn = r.commit_own(KEY)
        r.adopt(txn.dot, {"dc0": 1})
        assert txn.dot in r.frontier.uncovered and not r.log.unacked
        assert r.visible(txn, KEY)

    def test_key_cut_recorded_on_seed(self):
        sim, dcs, node = world()
        assert KEY in node.frontier.key_cut

    def test_compaction_folds_covered_entries(self):
        sim, dcs, node = world()
        other = build_edge(sim, "o", interest=INTEREST)
        sim.run_for(200)
        for _ in range(5):
            run_update(other, KEY, "counter", "increment", 1)
        # Trigger many vector advances so the periodic fold fires.
        for _ in range(40):
            node._after_advance()
        sim.run_for(3000)
        for _ in range(40):
            node._after_advance()
        journal = node.cache.journal(KEY)
        assert journal.journal_length == 0   # all folded into the base
        assert node.read_value(KEY, "counter") == 5


class TestResyncGate:
    """A group member's vector moves past a fetch reply's cut only once
    the whole warm set has been re-fetched (``EdgeFrontier.fetch_reply``)."""

    OTHER = ObjectKey("b", "other")

    def member(self):
        r = Replica()
        r.seeded({KEY: (), self.OTHER: ()}, VectorClock({"dc0": 1}))
        return r

    def test_a_reply_ahead_of_the_vector_starts_a_warm_set_resync(self):
        r = self.member()
        resync = r.fetch_reply(KEY, VectorClock({"dc0": 4}))
        assert resync == {self.OTHER}
        assert r.frontier.vector == VectorClock({"dc0": 1})
        r.frontier.start_resync(resync, 0.0)
        assert r.fetch_reply(self.OTHER, VectorClock({"dc0": 3})) == set()
        # Every warm key is now complete up to dc0:3 at least.
        assert r.frontier.vector == VectorClock({"dc0": 3})
        assert not r.frontier.resync_expect

    def test_a_reply_the_vector_covers_teaches_nothing(self):
        r = self.member()
        assert r.fetch_reply(KEY, VectorClock({"dc0": 1})) == set()
        assert r.frontier.vector == VectorClock({"dc0": 1})

    def test_a_stale_reply_still_settles_its_key(self):
        r = self.member()
        r.frontier.start_resync({KEY, self.OTHER}, 0.0)
        r.fetch_reply(KEY, VectorClock({"dc0": 5}))
        r.frontier.advance({"dc0": 6})      # pushes overtook the reply
        r.fetch_reply(self.OTHER, VectorClock({"dc0": 5}))
        assert not r.frontier.resync_expect
        assert r.frontier.vector == VectorClock({"dc0": 6})

    def test_with_nothing_warm_a_resync_fetches_the_interest_set(self):
        r = Replica()
        assert r.frontier.resync_keys((), [KEY, self.OTHER]) == {
            KEY, self.OTHER}
        assert r.frontier.resync_keys([KEY], [self.OTHER]) == {KEY}
        assert self.member().frontier.resync_keys((), [ObjectKey(
            "b", "z")]) == {KEY, self.OTHER}


class TestSubscriptions:
    def test_local_commit_notifies(self):
        sim, dcs, node = world()
        fired = []
        node.subscribe(KEY, fired.append)
        run_update(node, KEY, "counter", "increment", 1)
        assert fired == [KEY]

    def test_uninterested_key_not_notified(self):
        sim, dcs, node = world()
        fired = []
        node.subscribe(ObjectKey("b", "other"), fired.append)
        run_update(node, KEY, "counter", "increment", 1)
        assert fired == []


class TestWritebackFlag:
    def test_writeback_defers_shipping(self):
        sim, dcs, node = world(writeback_ms=300.0)
        run_update(node, KEY, "counter", "increment", 1)
        sim.run_for(100)
        assert dcs[0].committed_count == 0   # still buffered
        sim.run_for(1000)
        assert dcs[0].committed_count == 1   # flushed by the timer
        assert not node.unacked


# Every message type each edge-tier class handles, with its handler.
_EDGE = {
    "SessionAck": "_on_session_ack",
    "UpdatePush": "_on_update_push",
    "CommitAck": "_on_commit_ack",
    "CommitReject": "_ignore_message",
    "ObjectResponse": "_on_object_response",
    "RemoteTxnReply": "_on_remote_reply",
}
_GROUP_TRAFFIC = {
    "GroupMsg": "_on_group_msg",
    "MembershipUpdate": "_on_membership",
    "GroupSeed": "_on_group_seed",
    "InterestAnnounce": "_on_interest_announce",
    "GroupFetch": "_on_group_fetch",
    "GroupFetchReply": "_on_group_fetch_reply",
    "GroupRelayPush": "_on_relay_push",
    "GroupCommitAck": "_on_commit_ack",
    "TxnPull": "_on_txn_pull",
    "TxnPushMsg": "_on_txn_push",
}
HANDLERS = [
    (EdgeNode, _EDGE),
    (PoPNode, {**_EDGE,
               "CommitReject": "_on_commit_reject",
               "SessionOpen": "_child_session_open",
               "EdgeCommit": "_child_commit",
               "InterestChange": "_child_interest",
               "ObjectRequest": "_child_fetch"}),
    (GroupMember, {**_EDGE, "CommitAck": "_on_dc_commit_ack",
                   "JoinGroup": "_on_join", "LeaveGroup": "_on_leave",
                   **_GROUP_TRAFFIC}),
]


def spawn(cls):
    extra = {"group_id": "g", "parent_id": "m0"} \
        if cls is GroupMember else {}
    return Simulation(seed=1).spawn(cls, "n", dc_id="dc0", **extra)


def blank(message_type):
    """An instance of a wire type, fields unset (handlers are stubbed)."""
    return object.__new__(message_type)


@pytest.mark.parametrize("cls, handlers", HANDLERS,
                         ids=[cls.__name__ for cls, _ in HANDLERS])
class TestDispatch:
    def test_each_type_resolves_to_its_handler(self, cls, handlers):
        table = {t.__name__: f for t, f in cls._msg_dispatch.items()}
        assert sorted(table) == sorted(handlers)
        for type_name, handler in handlers.items():
            assert table[type_name] is getattr(cls, handler), type_name

    def test_unknown_message_raises(self, cls, handlers):
        with pytest.raises(TypeError):
            spawn(cls).on_message(object(), "x")


class TestGroupOffline:
    def test_member_calls_no_group_handler(self, monkeypatch):
        calls = []
        monkeypatch.setattr(GroupMember, "_msg_dispatch", {
            t: (lambda self, msg, sender: calls.append(type(msg).__name__))
            for t in GroupMember._msg_dispatch})
        node = spawn(GroupMember)
        node.disconnect_from_group()
        by_name = {t.__name__: t for t in GroupMember._msg_dispatch}
        for type_name in _GROUP_TRAFFIC:
            node.on_message(blank(by_name[type_name]), "m1")
        assert calls == []
        # The DC leg and membership requests are not group traffic.
        for type_name in ("UpdatePush", "JoinGroup"):
            node.on_message(blank(by_name[type_name]), "dc0")
        assert calls == ["UpdatePush", "JoinGroup"]


class TestStampAdoption:
    def test_member_resolves_own_commit_from_a_relayed_push(self):
        """The sync point's relay of the push that covers a member's own
        commit carries its stamp; no GroupCommitAck is needed."""
        node = spawn(GroupMember)
        node.declare_interest(KEY, "counter")
        node._install_seed(ObjectState(KEY, "counter", Counter().to_dict(),
                                       ()), VectorClock.zero())
        node.init_group(("m0", "n"))
        run_update(node, KEY, "counter", "increment", 1)
        (own,) = node.unacked.values()
        stamped = own.handoff()
        stamped.commit = stamped.commit.with_entry("dc0", 1)
        node.on_message(GroupRelayPush((stamped,), {"dc0": 1},
                                       node.vector.to_dict()), "m0")
        assert own.commit.entries == {"dc0": 1}
        assert not node.unacked
        assert own.dot not in node.frontier.current_snapshot().local_deps

    def held(self, entries=None):
        """A replica holding an own commit and a foreign transaction."""
        r = Replica()
        own = r.commit_own(KEY)
        foreign = Transaction(Dot(9, "f"), "f", own.snapshot,
                              CommitStamp(entries), own.writes)
        assert r.admit(foreign)
        return r, own, foreign

    def test_an_ack_adopts_onto_the_held_copy(self):
        r, own, _ = self.held()
        assert r.adopt(own.dot, {"dc0": 3}) is own
        assert own.commit.entries == {"dc0": 3} and not r.log.unacked
        assert r.adopt(Dot(99, "nobody"), {"dc0": 4}) is None

    def test_a_pushed_copy_adopts_only_onto_a_symbolic_one(self):
        r, own, foreign = self.held({"dc0": 1})
        copy = foreign.handoff()
        copy.commit = copy.commit.with_entry("dc1", 7)
        assert r.push([copy, own.handoff()], {"dc0": 1}, {})
        assert foreign.commit.entries == {"dc0": 1}     # left alone
        pushed_own = own.handoff()
        pushed_own.commit = pushed_own.commit.with_entry("dc0", 2)
        assert r.push([pushed_own], {"dc0": 2}, {"dc0": 1})
        assert own.commit.entries == {"dc0": 2}
        assert not r.log.unacked and not r.frontier.uncovered

    def test_a_pulled_copy_adopts_always(self):
        r, own, foreign = self.held({"dc0": 1})
        copy = foreign.handoff()
        copy.commit = copy.commit.with_entry("dc1", 7)
        r.pulled(copy)
        assert foreign.commit.entries == {"dc0": 1, "dc1": 7}
        assert r.log.txns[foreign.dot] is foreign

    def test_an_own_commit_a_peer_brought_first_waits_for_its_stamp(self):
        # A critical-path commit is admitted at its release; a peer's
        # pull may have brought a copy of it before.  A symbolic copy
        # still waits in ``unacked``, so the member keeps driving it.
        writer = Replica("m1")
        own = writer.commit_own(KEY)
        for entries, waits in (({}, True), ({"dc0": 1}, False)):
            r = Replica("m1")
            copy = Transaction(own.dot, own.origin, own.snapshot,
                               CommitStamp(entries), own.writes)
            assert r.integrate(copy)
            assert not r.admit(own.handoff(), own=True)
            assert (r.log.unacked.get(own.dot) is copy) == waits
            assert r.adopt(own.dot, {"dc0": 1}) is copy
            assert not r.log.unacked
