"""RemoteTxns, driven directly: no simulator, no DataCenter, no shards —
the test plays the shards' side of the conversation."""

from repro.core import Dot, ObjectKey, ObjectState, VectorClock
from repro.crdt import Counter
from repro.dc.commitlog import CommitLog
from repro.dc.messages import (RemoteTxnReply, RemoteTxnRequest, ShardAbort,
                               ShardCommit, ShardPrepare, ShardRead,
                               ShardReadReply, ShardVote)
from repro.dc.twopc import RemoteTxns
from repro.store.ring import HashRing

NODE = "dc0"
SHARDS = [f"{NODE}/shard{i}" for i in range(3)]
X, Y = ObjectKey("b", "x"), ObjectKey("b", "y")
CLIENT = "c1"


class Coordinator:
    def __init__(self):
        self.log = CommitLog(NODE)
        ring = HashRing()
        for shard in SHARDS:
            ring.add_server(shard)
        self.remote = RemoteTxns(self.log, ring)

    def request(self, request_id, reads=(), updates=(), **extra):
        return RemoteTxnRequest(
            CLIENT, request_id,
            reads=tuple((key, "counter") for key in reads),
            updates=tuple((key, "counter", "increment", (n,))
                          for key, n in updates), **extra)

    def open(self, msg):
        return self.remote.open(msg, CLIENT, VectorClock.zero())

    def execute(self, pending, value=0):
        """Run ``pending`` on counters that all read ``value``."""
        counter = Counter()
        if value:
            counter.apply(counter.prepare("increment", value)
                          .with_tag((1, "seed", 0)))
        return self.remote.execute(pending, [
            ObjectState(key, "counter", counter.to_dict(), ())
            for key, _type_name in pending.keys])

    def vote_all(self, prepares):
        """Every shard votes yes; what the last vote decided."""
        decided = None
        for shard, prepare in prepares:
            decided = self.remote.on_vote(ShardVote(prepare.txid, True),
                                          shard)
        return decided


def test_gather_scatters_to_the_owners_and_hands_back_in_key_order():
    coord = Coordinator()
    got = []
    sends = coord.remote.gather([(X, "counter"), (Y, "counter")],
                                VectorClock({NODE: 3}), (), got.append)
    assert [shard for shard, _read in sends] \
        == [coord.remote.ring.lookup(X), coord.remote.ring.lookup(Y)]
    assert all(isinstance(read, ShardRead)
               and read.visible_vector == {NODE: 3} for _s, read in sends)
    first, second = (read.request_id for _s, read in sends)
    reply = coord.remote.on_read_reply
    assert reply(ShardReadReply(second, {"n": "y"})) is None
    done, states = reply(ShardReadReply(first, {"n": "x"}))
    assert states == [{"n": "x"}, {"n": "y"}]
    assert done == got.append
    assert reply(ShardReadReply(first, {"n": "x"})) is None    # unknown now


def test_open_answers_at_once_when_there_is_nothing_to_read():
    coord = Coordinator()
    reply = coord.open(coord.request(1))
    assert reply == RemoteTxnReply(1, (), True)
    # A pinned snapshot we cannot serve yet (after a migration).
    reply = coord.open(coord.request(2, reads=[X], snapshot={"dc9": 4}))
    assert (reply.committed, reply.reason) == (False, "missing-dependencies")
    pending = coord.open(coord.request(3, reads=[X, Y], updates=[(X, 1)]))
    assert pending.keys == [(X, "counter"), (Y, "counter")]    # each once


def test_read_only_transaction_replies_from_its_reads():
    coord = Coordinator()
    pending = coord.open(coord.request(1, reads=[X]))
    assert coord.execute(pending, value=7) \
        == [(CLIENT, RemoteTxnReply(1, (7,), True))]
    assert coord.log.sequencer == 0


def test_update_prepares_then_sequences_on_the_last_vote():
    coord = Coordinator()
    pending = coord.open(coord.request(1, reads=[X],
                                       updates=[(X, 2), (Y, 3)]))
    prepares = coord.execute(pending, value=5)
    touched = sorted({coord.remote.ring.lookup(X),
                      coord.remote.ring.lookup(Y)})
    assert [shard for shard, _m in prepares] == touched
    assert all(isinstance(m, ShardPrepare) for _s, m in prepares)
    assert coord.log.sequencer == 0             # nothing committed yet
    for shard, prepare in prepares[:-1]:
        assert coord.remote.on_vote(ShardVote(prepare.txid, True),
                                    shard) == (None, [])
    shard, prepare = prepares[-1]
    txn, sends = coord.remote.on_vote(ShardVote(prepare.txid, True), shard)
    assert txn.dot == Dot(1, f"{NODE}/srv")     # server-assigned
    assert txn.commit.entries == {NODE: 1}
    assert coord.log.txns[txn.dot] is txn
    # The commit round, then the client's reply with the stamp.
    *commits, (client, reply) = sends
    assert [shard for shard, _m in commits] == touched
    assert all(isinstance(m, ShardCommit)
               and m.txn.commit.entries == {NODE: 1}
               for _s, m in commits)
    assert (client, reply) \
        == (CLIENT, RemoteTxnReply(1, (5,), True, {NODE: 1}))
    # A vote for a transaction already decided is ignored.
    assert coord.remote.on_vote(ShardVote(prepare.txid, True), shard) \
        == (None, [])


def test_retry_after_the_commit_reports_the_same_stamp():
    coord = Coordinator()
    msg = coord.request(1, updates=[(X, 1)])
    coord.vote_all(coord.execute(coord.open(msg)))
    assert coord.execute(coord.open(msg), value=1) \
        == [(CLIENT, RemoteTxnReply(1, (), True, {NODE: 1}))]
    assert coord.log.sequencer == 1
    # A client-assigned dot we already hold (resent after a migration).
    again = coord.request(2, updates=[(X, 1)],
                          dot=Dot(1, f"{NODE}/srv"))
    assert coord.execute(coord.open(again)) \
        == [(CLIENT, RemoteTxnReply(2, (), True, {NODE: 1}))]
    assert coord.log.sequencer == 1


def test_duplicate_request_before_during_and_after_2pc_sequences_once():
    coord = Coordinator()
    calls = []
    sequence = coord.log.sequence
    coord.log.sequence = lambda txn: calls.append(txn) or sequence(txn)
    msg = coord.request(1, updates=[(X, 1)])
    # Before: the retry is opened while the first copy still waits for
    # its reads.  During: it runs its own prepare round beside the first
    # copy's — same dot, another txid.
    first, retry = coord.open(msg), coord.open(msg)
    prepares = coord.execute(first)
    duplicate = coord.execute(retry)
    assert {m.txid for _s, m in prepares}.isdisjoint(
        m.txid for _s, m in duplicate)
    assert {m.txn.dot.counter for _s, m in prepares + duplicate} == {1}
    txn, sends = coord.vote_all(prepares)
    assert txn is not None and txn.commit.entries == {NODE: 1}
    # The second completion finds the dot sequenced: nothing to
    # announce, the prepared copy is released, same stamp reported.
    txn, sends = coord.vote_all(duplicate)
    assert txn is None
    *aborts, (client, reply) = sends
    assert [type(m) for _s, m in aborts] == [ShardAbort] * len(duplicate)
    assert {m.txid for _s, m in aborts} == {m.txid for _s, m in duplicate}
    assert (client, reply) \
        == (CLIENT, RemoteTxnReply(1, (), True, {NODE: 1}))
    # After: answered from the log, no prepare round at all.
    assert coord.execute(coord.open(msg)) \
        == [(CLIENT, RemoteTxnReply(1, (), True, {NODE: 1}))]
    assert coord.log.sequencer == 1
    assert coord.log.streams[NODE] == {1: Dot(1, f"{NODE}/srv")}
    assert len(calls) == 2          # two completions asked, one got in


def test_a_retry_after_the_log_retired_the_transaction_reports_its_stamp():
    # Released and applied at every peer, the transaction left the log;
    # a retry still gets its commit entries, from the stream, and a
    # racing prepare round still sequences nothing (DESIGN §9).
    coord = Coordinator()
    msg = coord.request(1, updates=[(X, 1)])
    first, racing = coord.open(msg), coord.open(msg)
    prepares, duplicate = coord.execute(first), coord.execute(racing)
    coord.vote_all(prepares)
    dot = Dot(1, f"{NODE}/srv")
    assert coord.log.retire(VectorClock({NODE: 1}), 1,
                            lambda ts: False) == [(dot, 1)]
    assert not coord.log.txns
    txn, sends = coord.vote_all(duplicate)
    assert txn is None
    assert sends[-1] == (CLIENT, RemoteTxnReply(1, (), True, {NODE: 1}))
    assert coord.execute(coord.open(msg), value=1) \
        == [(CLIENT, RemoteTxnReply(1, (), True, {NODE: 1}))]
    again = coord.request(2, updates=[(X, 1)], dot=dot)
    assert coord.execute(coord.open(again)) \
        == [(CLIENT, RemoteTxnReply(2, (), True, {NODE: 1}))]
    assert coord.log.sequencer == 1
