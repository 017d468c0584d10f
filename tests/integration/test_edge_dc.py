"""Edge <-> DC protocol integration tests (paper sections 3.6-3.7, 4.2)."""

from repro.core import ObjectKey
from repro.sim import LatencyModel, Simulation

from ..conftest import build_cluster, build_edge, run_update

KEY = ObjectKey("b", "x")
INTEREST = ((KEY, "counter"),)


def world(n_dcs=1, k=1, seed=3):
    sim = Simulation(seed=seed, default_latency=LatencyModel(10.0))
    dcs = build_cluster(sim, n_dcs=n_dcs, k_target=k)
    return sim, dcs


class TestSession:
    def test_session_opens_and_seeds(self):
        sim, _ = world()
        edge = build_edge(sim, "e1", interest=INTEREST)
        sim.run_for(100)
        assert edge.session_open
        assert edge.read_value(KEY, "counter") == 0

    def test_interest_add_after_connect_seeds(self):
        sim, _ = world()
        edge = build_edge(sim, "e1")
        sim.run_for(100)
        edge.declare_interest(KEY, "counter")
        sim.run_for(100)
        assert edge.read_value(KEY, "counter") == 0


class TestLocalFirstCommit:
    def test_commit_is_local_and_instant(self):
        sim, _ = world()
        edge = build_edge(sim, "e1", interest=INTEREST)
        sim.run_for(100)
        results = run_update(edge, KEY, "counter", "increment", 5)
        assert results  # completed synchronously, no network round trip
        assert results[0].latency == 0.0
        assert edge.read_value(KEY, "counter") == 5

    def test_read_my_writes_before_ack(self):
        sim, _ = world()
        edge = build_edge(sim, "e1", interest=INTEREST)
        sim.run_for(100)
        run_update(edge, KEY, "counter", "increment", 1)
        # No simulation time has passed: the DC cannot have acked.
        assert edge.unacked
        assert edge.read_value(KEY, "counter") == 1

    def test_chained_transactions_before_ack(self):
        # Paper section 3.7: an edge node continues executing dependent
        # transactions without waiting for the DC.
        sim, _ = world()
        edge = build_edge(sim, "e1", interest=INTEREST)
        sim.run_for(100)
        for _ in range(3):
            run_update(edge, KEY, "counter", "increment", 1)
        assert edge.read_value(KEY, "counter") == 3
        assert len(edge.unacked) == 3

    def test_ack_fills_symbolic_commit(self):
        sim, dcs = world()
        edge = build_edge(sim, "e1", interest=INTEREST)
        sim.run_for(100)
        run_update(edge, KEY, "counter", "increment", 1)
        txn = next(iter(edge.unacked.values()))
        assert txn.commit.is_symbolic
        sim.run_for(500)
        assert not edge.unacked
        assert not txn.commit.is_symbolic
        assert "dc0" in txn.commit.entries

    def test_dc_learns_the_update(self):
        sim, dcs = world()
        edge = build_edge(sim, "e1", interest=INTEREST)
        sim.run_for(100)
        run_update(edge, KEY, "counter", "increment", 7)
        sim.run_for(500)
        assert dcs[0].committed_count == 1
        assert dcs[0].state_vector["dc0"] == 1


class TestPropagation:
    def test_two_edges_converge_via_dc(self):
        sim, _ = world()
        e1 = build_edge(sim, "e1", interest=INTEREST)
        e2 = build_edge(sim, "e2", interest=INTEREST)
        sim.run_for(100)
        run_update(e1, KEY, "counter", "increment", 2)
        run_update(e2, KEY, "counter", "increment", 3)
        sim.run_for(2000)
        assert e1.read_value(KEY, "counter") == 5
        assert e2.read_value(KEY, "counter") == 5

    def test_vector_advances_with_pushes(self):
        sim, _ = world()
        e1 = build_edge(sim, "e1", interest=INTEREST)
        e2 = build_edge(sim, "e2", interest=INTEREST)
        sim.run_for(100)
        run_update(e1, KEY, "counter", "increment", 1)
        sim.run_for(2000)
        assert e2.vector["dc0"] == 1

    def test_subscription_fires_on_remote_update(self):
        sim, _ = world()
        e1 = build_edge(sim, "e1", interest=INTEREST)
        e2 = build_edge(sim, "e2", interest=INTEREST)
        fired = []
        e2.subscribe(KEY, fired.append)
        sim.run_for(100)
        run_update(e1, KEY, "counter", "increment", 1)
        sim.run_for(2000)
        assert KEY in fired

    def test_push_only_for_interest_set(self):
        other = ObjectKey("b", "other")
        sim, _ = world()
        e1 = build_edge(sim, "e1", interest=((other, "counter"),))
        e2 = build_edge(sim, "e2", interest=INTEREST)
        sim.run_for(100)
        run_update(e1, other, "counter", "increment", 1)
        sim.run_for(2000)
        # e2 never declared interest in `other`: not journalled there.
        assert not e2.cache.store.has_object(other)


class TestCacheMiss:
    def test_cold_read_fetches_from_dc(self):
        sim, _ = world()
        e1 = build_edge(sim, "e1", interest=INTEREST)
        e2 = build_edge(sim, "e2", interest=INTEREST)
        sim.run_for(100)
        run_update(e1, KEY, "counter", "increment", 4)
        sim.run_for(2000)
        # e3 joins late with no interest: its read must fetch.
        e3 = build_edge(sim, "e3")
        sim.run_for(100)
        seen = []

        def body(tx):
            value = yield tx.read(KEY, "counter")
            return value

        e3.run_transaction(body,
                           on_done=lambda r, s: seen.append((r, s)))
        sim.run_for(500)
        assert seen and seen[0][0] == 4
        assert seen[0][1].served_by == "dc"
        assert seen[0][1].latency > 0

    def test_fetched_object_becomes_cached(self):
        sim, _ = world()
        edge = build_edge(sim, "e1")
        sim.run_for(100)
        done = []

        def body(tx):
            return (yield tx.read(KEY, "counter"))

        edge.run_transaction(body, on_done=lambda r, s: done.append(s))
        sim.run_for(500)
        edge.run_transaction(body, on_done=lambda r, s: done.append(s))
        assert done[1].served_by == "client"
        assert done[1].latency == 0.0


class TestTransactionSemantics:
    def test_atomic_multi_object_commit(self):
        key2 = ObjectKey("b", "y")
        sim, _ = world()
        e1 = build_edge(sim, "e1",
                        interest=((KEY, "counter"), (key2, "counter")))
        e2 = build_edge(sim, "e2",
                        interest=((KEY, "counter"), (key2, "counter")))
        sim.run_for(100)

        def body(tx):
            yield tx.update(KEY, "counter", "increment", 1)
            yield tx.update(key2, "counter", "increment", 1)

        e1.run_transaction(body)
        sim.run_for(2000)
        # Both effects arrive (atomically: same transaction).
        assert e2.read_value(KEY, "counter") == 1
        assert e2.read_value(key2, "counter") == 1

    def test_transaction_reads_own_buffered_writes(self):
        sim, _ = world()
        edge = build_edge(sim, "e1", interest=INTEREST)
        sim.run_for(100)
        observed = []

        def body(tx):
            yield tx.update(KEY, "counter", "increment", 5)
            value = yield tx.read(KEY, "counter")
            observed.append(value)

        edge.run_transaction(body)
        assert observed == [5]

    def test_abort_discards_writes(self):
        from repro.edge import AbortTransaction
        sim, _ = world()
        edge = build_edge(sim, "e1", interest=INTEREST)
        sim.run_for(100)
        aborted = []

        def body(tx):
            yield tx.update(KEY, "counter", "increment", 99)
            raise AbortTransaction("nope")

        edge.run_transaction(body, on_abort=aborted.append)
        assert aborted
        assert edge.read_value(KEY, "counter") == 0
        assert not edge.unacked

    def test_read_only_txn_commits_nothing(self):
        sim, dcs = world()
        edge = build_edge(sim, "e1", interest=INTEREST)
        sim.run_for(100)

        def body(tx):
            return (yield tx.read(KEY, "counter"))

        edge.run_transaction(body)
        sim.run_for(500)
        assert dcs[0].committed_count == 0


class TestStateDigest:
    def test_multi_shard_txn_digested_at_owning_shards(self):
        """A shard applies a multi-shard transaction whole, so the shard
        that does not own a key holds a partial journal of it; the digest
        must be what a read returns (the owner's journal)."""
        sim, dcs = world(n_dcs=2, k=2)
        dc = dcs[0]
        shard_a, shard_b = dc.shard_ids
        key_a = next(ObjectKey("b", f"a{i}") for i in range(64)
                     if dc.ring.lookup(ObjectKey("b", f"a{i}")) == shard_a)
        key_b = next(ObjectKey("b", f"b{i}") for i in range(64)
                     if dc.ring.lookup(ObjectKey("b", f"b{i}")) == shard_b)
        edge = build_edge(sim, "e1", interest=((key_a, "counter"),
                                               (key_b, "counter")))
        sim.run_for(100)
        run_update(edge, key_a, "counter", "increment", 1)
        run_update(edge, key_b, "counter", "increment", 10)
        edge.execute(updates=[(key_a, "counter", "increment", (100,)),
                              (key_b, "counter", "increment", (1000,))])
        sim.run_for(1000)
        # Each shard holds the other's key with the cross-shard txn only.
        assert dc.shards[shard_b].store.journal(key_a) \
            .materialise(None).value() == 100
        assert dc.shards[shard_a].store.journal(key_b) \
            .materialise(None).value() == 1000
        expect = {key_a: edge.read_value(key_a, "counter"),
                  key_b: edge.read_value(key_b, "counter")}
        assert expect == {key_a: 101, key_b: 1010}
        for replica in dcs:
            assert replica.state_digest() == expect
