"""DataCenter internals: service queue, anti-entropy, request dedup."""

from repro.core import (CommitStamp, Dot, ObjectKey, Snapshot, Transaction,
                        VectorClock, WriteOp)
from repro.crdt import Counter
from repro.dc.messages import (CommitAck, DCSyncPing, EdgeCommitBatch,
                               RemoteTxnReply, RemoteTxnRequest)
from repro.sim import Actor, LatencyModel, Simulation

from ..conftest import build_cluster, build_edge, run_update

KEY = ObjectKey("b", "x")
INTEREST = ((KEY, "counter"),)


class _Probe(Actor):
    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        self.replies = []

    def on_message(self, message, sender):
        self.replies.append((self.now, message))

    def remote(self, dc, request_id, reads=(), updates=()):
        self.send(dc, RemoteTxnRequest(
            client_id=self.node_id, request_id=request_id,
            reads=tuple(reads), updates=tuple(updates)))


def world(n_dcs=1, k=1, service_time_ms=None, seed=121):
    sim = Simulation(seed=seed, default_latency=LatencyModel(5.0))
    dcs = build_cluster(sim, n_dcs=n_dcs, k_target=k)
    if service_time_ms is not None:
        for dc in dcs:
            dc.service_time_ms = service_time_ms
    probe = sim.spawn(_Probe, "probe")
    return sim, dcs, probe


class TestServiceQueue:
    def test_requests_queue_behind_each_other(self):
        sim, dcs, probe = world(service_time_ms=10.0)
        for request_id in range(5):
            probe.remote("dc0", request_id, reads=((KEY, "counter"),))
        sim.run_for(500)
        times = [t for t, _m in probe.replies]
        # Each reply ~10ms after the previous: serialised service.
        gaps = [b - a for a, b in zip(times, times[1:])]
        assert all(gap >= 9.0 for gap in gaps)

    def test_replies_in_request_order(self):
        sim, dcs, probe = world(service_time_ms=2.0)
        for request_id in range(5):
            probe.remote("dc0", request_id, reads=((KEY, "counter"),))
        sim.run_for(500)
        ids = [m.request_id for _t, m in probe.replies]
        assert ids == sorted(ids)

    def test_zero_service_time_disables_queue(self):
        sim, dcs, probe = world(service_time_ms=0.0)
        for request_id in range(3):
            probe.remote("dc0", request_id, reads=((KEY, "counter"),))
        sim.run_for(500)
        times = [t for t, _m in probe.replies]
        assert max(times) - min(times) < 1.0


class TestRemoteRequestDedup:
    def test_retried_update_commits_once(self):
        sim, dcs, probe = world()
        updates = ((KEY, "counter", "increment", (5,)),)
        probe.remote("dc0", 42, updates=updates)
        sim.run_for(100)
        probe.remote("dc0", 42, updates=updates)  # retry, same request id
        sim.run_for(100)
        assert dcs[0].committed_count == 1
        assert len(probe.replies) == 2
        entries = [m.commit_entries for _t, m in probe.replies]
        assert entries[0] == entries[1]  # identical stamp reported

    def test_distinct_requests_commit_separately(self):
        sim, dcs, probe = world()
        for request_id in (1, 2):
            probe.remote("dc0", request_id,
                         updates=((KEY, "counter", "increment", (1,)),))
        sim.run_for(200)
        assert dcs[0].committed_count == 2


class TestAntiEntropy:
    def test_sync_ping_triggers_resend(self):
        sim, dcs, probe = world(n_dcs=2)
        edge = build_edge(sim, "e", dc_id="dc0", interest=INTEREST)
        sim.run_for(200)
        sim.network.partition("dc0", "dc1")
        for _ in range(3):
            run_update(edge, KEY, "counter", "increment", 1)
        sim.run_for(500)
        assert dcs[1].state_vector["dc0"] == 0
        sim.network.heal("dc0", "dc1")
        # The next ping advertises dc1's stale vector; dc0 resends.
        sim.run_for(3000)
        assert dcs[1].state_vector["dc0"] == 3

    def test_sync_batch_bounded_per_ping(self):
        sim, dcs, probe = world(n_dcs=2)
        dcs[0].SYNC_BATCH = 2  # tiny batches for the test
        edge = build_edge(sim, "e", dc_id="dc0", interest=INTEREST)
        sim.run_for(200)
        sim.network.partition("dc0", "dc1")
        for _ in range(5):
            run_update(edge, KEY, "counter", "increment", 1)
        sim.run_for(500)
        sim.network.heal("dc0", "dc1")
        sim.run_for(10_000)  # several ping rounds drain the backlog
        assert dcs[1].state_vector["dc0"] == 5

    def test_ping_with_up_to_date_peer_sends_nothing(self):
        sim, dcs, probe = world(n_dcs=2)
        sim.run_for(100)
        sent_before = sim.network.stats.messages_sent
        dcs[0]._on_sync_ping(
            DCSyncPing(dcs[0].state_vector.to_dict()), "dc1")
        assert sim.network.stats.messages_sent == sent_before


class TestStabilityBookkeeping:
    def test_stable_dots_recorded(self):
        sim, dcs, probe = world()
        edge = build_edge(sim, "e", dc_id="dc0", interest=INTEREST)
        sim.run_for(200)
        run_update(edge, KEY, "counter", "increment", 1)
        dot = next(iter(edge.unacked))
        sim.run_for(200)
        assert dcs[0].stability.released(dot)
        # Retired at once (no peer can ask for it): its commit entry,
        # kept in the stream, is inside the stable cut.
        entries = dcs[0].log.entries(dot)
        assert entries == {"dc0": 1}
        assert all(ts <= dcs[0].stable_vector[dc]
                   for dc, ts in entries.items())

    def test_session_cursor_moves_with_its_own_pushes_only(self):
        sim, dcs, probe = world()
        edge = build_edge(sim, "e", dc_id="dc0", interest=INTEREST)
        other = build_edge(sim, "o", dc_id="dc0",
                           interest=((ObjectKey("b", "y"), "counter"),))
        sim.run_for(200)
        seeded_at = dcs[0].sessions["o"].cursor
        run_update(edge, KEY, "counter", "increment", 1)
        sim.run_for(200)
        stable = dcs[0].stable_vector.to_dict()
        assert dcs[0].sessions["e"].cursor == stable
        assert dcs[0].sessions["o"].cursor is seeded_at != stable
        assert dcs[0].stats["pushes_out"] == 1

    def test_session_chain_restarts_at_the_seed_cut(self):
        # ... not at the vector the edge declared in its SessionOpen.
        sim, dcs, probe = world()
        writer = build_edge(sim, "w", dc_id="dc0", interest=INTEREST)
        sim.run_for(200)
        run_update(writer, KEY, "counter", "increment", 1)
        sim.run_for(200)
        late = build_edge(sim, "late", dc_id="dc0", interest=INTEREST)
        sim.run_for(200)
        assert late.vector == dcs[0].stable_vector
        assert dcs[0].sessions["late"].cursor == late.vector.to_dict()


class TestStampSharing:
    def test_a_grafted_entry_stays_on_the_dcs_own_copy(self):
        # Shards and siblings share the transaction body by reference
        # but each holds its own transaction: growing the DC's — here through
        # CommitLog.adopt, as a migration duplicate would — moves no
        # other copy.  A K above the cluster size releases nothing, so
        # neither DC retires its copy.
        sim, (dc0, dc1), _probe = world(n_dcs=2, k=3)
        edge = build_edge(sim, "e1", interest=INTEREST)
        sim.run_for(100)
        run_update(edge, KEY, "counter", "increment", 1)
        sim.run_for(300)
        (dot,) = [d for d in dc0.log.txns if d.origin == "e1"]
        ours = dc0.log.txns[dot]
        copies = [dc1.log.txns[dot]] + [
            entry.txn for dc in (dc0, dc1) for shard in dc.shards.values()
            if shard.store.journal(KEY) is not None
            for entry in shard.store.journal(KEY).entries()
            if entry.dot == dot]
        assert len(copies) == 3          # dc1, a shard of each DC
        before = [dict(copy.commit.entries) for copy in copies]

        duplicate = ours.handoff()
        duplicate.commit = duplicate.commit.with_entry("dc9", 4)
        assert dc0.log.adopt(duplicate) == ours.commit.entries["dc0"]

        assert ours.commit.entries["dc9"] == 4
        assert [copy.commit.entries for copy in copies] == before
        assert all(copy.writes is ours.writes for copy in copies)

    def test_an_edge_adopting_a_stamp_on_its_pushed_copy_moves_no_other(self):
        # A push hands every session a copy of its own: an edge growing
        # the stamp of what it was pushed — as ``EdgeLog.adopt`` does
        # when a later ack or relay brings one more entry — moves neither
        # the DC's copy nor another session's.  A sibling that never
        # applies the write keeps the DC from retiring its copy.
        sim, (dc0, _dc1), _probe = world(n_dcs=2)
        sim.network.isolate("dc1")
        readers = [build_edge(sim, name, interest=INTEREST)
                   for name in ("r1", "r2")]
        writer = build_edge(sim, "w", interest=INTEREST)
        sim.run_for(200)
        run_update(writer, KEY, "counter", "increment", 1)
        sim.run_for(500)
        (dot,) = [d for d in dc0.log.txns if d.origin == "w"]
        ours = dc0.log.txns[dot]
        first, second = (reader.own_transaction(dot) for reader in readers)
        assert len({id(ours), id(first), id(second)}) == 3
        before = dict(ours.commit.entries)

        readers[0].log.adopt(dot, {"dc9": 4})

        assert first.commit.entries == {**before, "dc9": 4}
        assert ours.commit.entries == second.commit.entries == before
        assert writer.own_transaction(dot).commit.entries == before
        assert first.writes is ours.writes is second.writes


class TestDictIngress:
    def test_an_edge_commit_in_its_dict_form_commits(self):
        # Drivers outside ``src/`` build edge commits from ``to_dict()``;
        # the DC parses that form where it comes in.
        sim, (dc0,), probe = world()
        txn = Transaction(Dot(1, "probe"), "probe", Snapshot(VectorClock()),
                          CommitStamp(),
                          (WriteOp(KEY, Counter().prepare("increment", 1)),))
        probe.send("dc0", EdgeCommitBatch((txn.to_dict(),)))
        sim.run_for(100)
        assert dc0.log.entries(txn.dot) == {"dc0": 1}
        (_at, ack), = probe.replies
        assert ack == CommitAck(txn.dot, {"dc0": 1})
