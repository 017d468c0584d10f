"""EPaxos ballot/staleness edge cases (safety of the recovery path)."""

from repro.epaxos import (Accept, AcceptReply, Commit, EPaxosReplica,
                          PreAccept, PreAcceptReply, PrepareReply)
from repro.epaxos.instance import ACCEPTED, COMMITTED, PREACCEPTED


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
        before = dict(replica.instances[iid].__dict__)
        replica.handle(PreAcceptReply(iid, (0, "a"), True, 1, frozenset()),
                       "c")
        assert replica.instances[iid].status == before["status"]

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
