"""EPaxos ballot/staleness edge cases (safety of the recovery path)."""

from dataclasses import fields

from repro.epaxos import (Accept, AcceptReply, Commit, EPaxosReplica,
                          PreAccept, PreAcceptReply, Prepare, PrepareReply)
from repro.epaxos.instance import ACCEPTED, COMMITTED, NONE, PREACCEPTED


def make_replica(name="a", members=("a", "b", "c"), sent=None,
                 executed=None):
    sent = sent if sent is not None else []
    executed = executed if executed is not None else []
    return EPaxosReplica(
        name, list(members), keys_of=lambda c: c["keys"],
        on_execute=lambda c, i: executed.append(c["id"]),
        send=lambda dst, msg: sent.append((dst, msg)))


def cmd(cid, keys=("k",)):
    return {"id": cid, "keys": list(keys)}


class TestBallotChecks:
    def test_stale_preaccept_rejected(self):
        sent = []
        replica = make_replica(sent=sent)
        iid = ("b", 0)
        replica.handle(PreAccept(iid, (5, "b"), cmd(1), 1, frozenset()),
                       "b")
        sent.clear()
        # An older ballot arrives late: refused, state unchanged.
        replica.handle(PreAccept(iid, (1, "c"), cmd(2), 9, frozenset()),
                       "c")
        dst, reply = sent[0]
        assert dst == "c"
        assert isinstance(reply, PreAcceptReply) and not reply.ok
        assert replica.instances[iid].command["id"] == 1

    def test_stale_accept_rejected(self):
        sent = []
        replica = make_replica(sent=sent)
        iid = ("b", 0)
        replica.handle(Accept(iid, (5, "b"), cmd(1), 1, frozenset()), "b")
        sent.clear()
        replica.handle(Accept(iid, (2, "c"), cmd(2), 9, frozenset()), "c")
        dst, reply = sent[0]
        assert isinstance(reply, AcceptReply) and not reply.ok
        assert replica.instances[iid].status == ACCEPTED
        assert replica.instances[iid].command["id"] == 1

    def test_higher_ballot_accept_overrides_preaccept(self):
        replica = make_replica()
        iid = ("b", 0)
        replica.handle(PreAccept(iid, (0, "b"), cmd(1), 1, frozenset()),
                       "b")
        replica.handle(Accept(iid, (3, "c"), cmd(1), 2, frozenset()), "c")
        inst = replica.instances[iid]
        assert inst.status == ACCEPTED
        assert inst.seq == 2
        assert inst.ballot == (3, "c")

    def test_commit_wins_over_everything(self):
        replica = make_replica()
        iid = ("b", 0)
        replica.handle(PreAccept(iid, (0, "b"), cmd(1), 1, frozenset()),
                       "b")
        replica.handle(Commit(iid, cmd(1), 1, frozenset()), "b")
        assert replica.instances[iid].is_committed
        # A late Accept cannot regress a committed instance.
        replica.handle(Accept(iid, (9, "c"), cmd(2), 5, frozenset()), "c")
        assert replica.instances[iid].command["id"] == 1

    def test_duplicate_commit_idempotent(self):
        executed = []
        replica = make_replica(executed=executed)
        iid = ("b", 0)
        replica.handle(Commit(iid, cmd(1), 1, frozenset()), "b")
        replica.handle(Commit(iid, cmd(1), 1, frozenset()), "b")
        assert executed == [1]


class TestStaleReplies:
    def test_preaccept_reply_after_commit_ignored(self):
        sent = []
        replica = make_replica(sent=sent)
        iid = replica.propose(cmd(1))
        # Deliver one reply, then a commit arrives via another path.
        replica.handle(Commit(iid, cmd(1), 1, frozenset()), "b")
        inst = replica.instances[iid]
        before = {f.name: getattr(inst, f.name) for f in fields(inst)}
        replica.handle(PreAcceptReply(iid, (0, "a"), True, 1, frozenset()),
                       "c")
        assert {f.name: getattr(inst, f.name)
                for f in fields(inst)} == before

    def test_mismatched_ballot_reply_ignored(self):
        replica = make_replica()
        iid = replica.propose(cmd(1))
        inst = replica.instances[iid]
        replica.handle(PreAcceptReply(iid, (7, "z"), True, 1, frozenset()),
                       "b")
        assert not inst.preaccept_repliers

    def test_accept_reply_for_unknown_instance_ignored(self):
        replica = make_replica()
        replica.handle(AcceptReply(("z", 9), (0, "z"), True), "b")
        assert ("z", 9) not in replica.instances

    def test_nack_preaccept_reply_stalls_leader(self):
        # A not-ok reply means a higher ballot exists: the leader stops
        # driving this round (recovery owns the instance now).
        sent = []
        replica = make_replica(sent=sent)
        iid = replica.propose(cmd(1))
        sent.clear()
        replica.handle(PreAcceptReply(iid, (0, "a"), False, 1,
                                      frozenset()), "b")
        assert not sent
        assert replica.instances[iid].status == PREACCEPTED


def test_a_resent_round_counts_each_reply_once():
    """Five replicas: a fast quorum is three PreAccept replies.  We
    re-send our PreAccept; b's reply to the first round arrives after
    the re-send, then b's and c's replies to the second.  Two replicas
    answered, so the leader must not fast-commit.  (It did, once: two
    conflicting commands committed this way need not depend on each
    other, and members could then execute them in different orders.)"""
    replica = make_replica(members=("a", "b", "c", "d", "e"))
    iid = replica.propose(cmd(1))
    replica.resend(iid)
    for sender in ("b", "b", "c"):
        replica.handle(PreAcceptReply(iid, (0, "a"), True, 1,
                                      frozenset()), sender)
    assert not replica.instances[iid].is_committed


class TestRecoveryRaces:
    """Recovery meeting a round that moved on; both used to raise
    ``ValueError`` (an instance status may not regress)."""

    def test_restarted_round_resets_an_accepted_instance(self):
        """c recovers ``b.0`` without hearing from us and restarts it from
        PreAccept at a higher ballot; we had accepted b's round."""
        sent = []
        replica = make_replica(sent=sent)
        iid = ("b", 0)
        replica.handle(PreAccept(iid, (0, "b"), cmd(1), 1, frozenset()),
                       "b")
        replica.handle(Accept(iid, (0, "b"), cmd(1), 2, frozenset()), "b")
        sent.clear()
        replica.handle(PreAccept(iid, (1, "c"), cmd(1), 1, frozenset()),
                       "c")
        inst = replica.instances[iid]
        assert (inst.status, inst.ballot) == (PREACCEPTED, (1, "c"))
        (dst, reply), = sent
        assert dst == "c" and isinstance(reply, PreAcceptReply) and reply.ok

    def test_commit_overtaking_a_recovery_ends_it(self):
        """We recover ``b.0``; b's Commit arrives before the last
        PrepareReply, which then has nothing left to decide."""
        sent, executed = [], []
        replica = make_replica(sent=sent, executed=executed)
        iid = ("b", 0)
        replica.handle(PreAccept(iid, (0, "b"), cmd(1), 1, frozenset()),
                       "b")
        replica.recover(iid)
        replica.handle(Commit(iid, cmd(1), 1, frozenset()), "b")
        sent.clear()
        replica.handle(PrepareReply(iid, (1, "a"), True, PREACCEPTED,
                                    (0, "b"), cmd(1), 1, frozenset()), "c")
        assert replica.instances[iid].is_executed and executed == [1]
        assert not sent


def test_the_command_leaders_own_state_is_no_recovery_vote():
    """Three replicas.  c's ``c.0`` commits on the fast path with no
    dependency (its only other replier, a, never saw b's PreAccept);
    b's ``b.0`` on the same key reached nobody.  We recover ``b.0``
    hearing only from b, which holds it pre-accepted with no dependency
    either.  That is b's own proposal, not a vote from a replica that
    pre-accepted it: ``b.0`` cannot have fast-committed, so the round
    restarts and picks up ``c.0``.  (Counted as a vote, it was accepted
    unchanged, and the two conflicting instances, neither depending on
    the other, ran in different orders at different replicas.)"""
    sent = []
    replica = make_replica(sent=sent)
    replica.handle(PreAccept(("c", 0), (0, "c"), cmd(1), 1, frozenset()),
                   "c")
    replica.handle(Commit(("c", 0), cmd(1), 1, frozenset()), "c")
    iid = ("b", 0)
    replica.recover(iid)
    sent.clear()
    replica.handle(PrepareReply(iid, (1, "a"), True, PREACCEPTED,
                                (0, "b"), cmd(2), 1, frozenset()), "b")
    inst = replica.instances[iid]
    assert (inst.status, inst.ballot) == (PREACCEPTED, (1, "a"))
    assert ("c", 0) in inst.deps
    assert {type(msg) for _dst, msg in sent} == {PreAccept}


def test_a_pre_accept_vote_at_the_leaders_ballot_is_kept():
    """The same recovery hearing from c, which pre-accepted ``b.0`` at
    b's ballot: c's state may be half of a fast quorum, so it is
    accepted unchanged."""
    sent = []
    replica = make_replica(sent=sent)
    iid = ("b", 0)
    replica.recover(iid)
    sent.clear()
    replica.handle(PrepareReply(iid, (1, "a"), True, PREACCEPTED,
                                (0, "b"), cmd(2), 1, frozenset()), "c")
    inst = replica.instances[iid]
    assert (inst.status, inst.seq, inst.deps) == (ACCEPTED, 1, frozenset())
    assert {type(msg) for _dst, msg in sent} == {Accept}


def test_an_own_instance_under_a_peers_ballot_is_taken_over_not_resent():
    """b's recovery raised our ``a.0`` to ballot (1, b).  Re-sending our
    PreAccept at b's ballot ran a second round at it, which we could
    commit on one reply while b's recovery decided another value; we
    take the instance over at a higher ballot instead."""
    sent = []
    replica = make_replica(sent=sent)
    iid = replica.propose(cmd(1))
    replica.handle(Prepare(iid, (1, "b")), "b")
    sent.clear()
    replica.resend(iid)
    assert {(type(msg), msg.ballot) for _dst, msg in sent} \
        == {(Prepare, (2, "a"))}
    replica.handle(PreAcceptReply(iid, (1, "b"), True, 1, frozenset()),
                   "c")
    assert not replica.instances[iid].is_committed


def test_a_no_op_accepted_by_recovery_blocks_what_depends_on_its_slot():
    """We recover ``b.0`` hearing only from c, who never saw it either,
    and accept a no-op for it; that Accept may reach a minority only,
    and a later recovery can still commit b's command X there.
    ``c.0`` commits on the same key with ``b.0`` covered by its deps:
    it must wait for ``b.0`` to commit rather than count the no-op as
    final.  X commits with no dependency, so X runs first — the order
    every replica that knew X picks."""
    sent, executed = [], []
    replica = make_replica(sent=sent, executed=executed)
    iid = ("b", 0)
    replica.recover(iid)
    replica.handle(PrepareReply(iid, (1, "a"), True, NONE, None, None, 0,
                                frozenset()), "c")
    inst = replica.instances[iid]
    assert (inst.status, inst.command) == (ACCEPTED, None)
    replica.handle(Commit(("c", 0), cmd(2), 2, frozenset({iid})), "c")
    assert executed == []
    assert replica.uncommitted_dependencies() == {iid}
    replica.handle(Commit(iid, cmd(1), 1, frozenset()), "b")
    assert executed == [1, 2]
