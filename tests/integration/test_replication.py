"""Geo-replication and K-stability integration tests (§3.4, 3.6, 3.8)."""

from repro.core import ObjectKey, VectorClock
from repro.dc.messages import ReplicateBatch
from repro.dc.replog import encode_stream_entry
from repro.sim import LatencyModel, Simulation

from ..conftest import build_cluster, build_edge, run_update

KEY = ObjectKey("b", "x")
INTEREST = ((KEY, "counter"),)


def world(n_dcs=3, k=2, seed=5):
    sim = Simulation(seed=seed, default_latency=LatencyModel(10.0))
    dcs = build_cluster(sim, n_dcs=n_dcs, k_target=k)
    return sim, dcs


class TestGeoReplication:
    def test_update_reaches_all_dcs(self):
        sim, dcs = world()
        edge = build_edge(sim, "e1", dc_id="dc0", interest=INTEREST)
        sim.run_for(100)
        run_update(edge, KEY, "counter", "increment", 1)
        sim.run_for(2000)
        for dc in dcs:
            assert dc.state_vector["dc0"] == 1

    def test_concurrent_updates_at_different_dcs_merge(self):
        sim, dcs = world()
        e0 = build_edge(sim, "e0", dc_id="dc0", interest=INTEREST)
        e1 = build_edge(sim, "e1", dc_id="dc1", interest=INTEREST)
        sim.run_for(100)
        run_update(e0, KEY, "counter", "increment", 2)
        run_update(e1, KEY, "counter", "increment", 3)
        sim.run_for(3000)
        assert e0.read_value(KEY, "counter") == 5
        assert e1.read_value(KEY, "counter") == 5
        for dc in dcs:
            assert dc.state_vector["dc0"] == 1
            assert dc.state_vector["dc1"] == 1

    def test_replication_is_idempotent(self):
        sim, dcs = world(n_dcs=2, k=1)
        edge = build_edge(sim, "e1", dc_id="dc0", interest=INTEREST)
        sim.run_for(100)
        run_update(edge, KEY, "counter", "increment", 1)
        sim.run_for(500)
        # Force a duplicate commit attempt by re-sending the same txn.
        txn = dcs[0].transaction(next(iter(dcs[0].log.txns)))
        entry = encode_stream_entry(txn, "dc0", 1, VectorClock.zero())
        dcs[0].send("dc1", ReplicateBatch("dc0", 1, {}, (entry,),
                                          {"dc0": 1}))
        sim.run_for(500)
        assert dcs[1].stats["repl_dup_in"] == 1
        reader = build_edge(sim, "e2", dc_id="dc1", interest=INTEREST)
        sim.run_for(1000)
        assert reader.read_value(KEY, "counter") == 1


class TestKStability:
    def test_k1_visible_after_single_dc(self):
        sim, dcs = world(n_dcs=3, k=1)
        writer = build_edge(sim, "w", dc_id="dc0", interest=INTEREST)
        reader = build_edge(sim, "r", dc_id="dc0", interest=INTEREST)
        sim.run_for(100)
        run_update(writer, KEY, "counter", "increment", 1)
        sim.run_for(100)  # enough for commit + push, not for gossip
        assert reader.read_value(KEY, "counter") == 1

    def test_k2_gates_edge_visibility(self):
        sim, dcs = world(n_dcs=3, k=2)
        writer = build_edge(sim, "w", dc_id="dc0", interest=INTEREST)
        reader = build_edge(sim, "r", dc_id="dc0", interest=INTEREST)
        sim.run_for(100)
        run_update(writer, KEY, "counter", "increment", 1)
        sim.run_for(12)
        # Commit is at dc0 (k=1) but not yet replicated: not pushed.
        assert reader.read_value(KEY, "counter") == 0
        sim.run_for(3000)
        assert reader.read_value(KEY, "counter") == 1

    def test_writer_always_sees_own_txn(self):
        # Read-my-writes regardless of K (section 3.8).
        sim, dcs = world(n_dcs=3, k=3)
        writer = build_edge(sim, "w", dc_id="dc0", interest=INTEREST)
        sim.run_for(100)
        run_update(writer, KEY, "counter", "increment", 1)
        assert writer.read_value(KEY, "counter") == 1

    def test_stable_vector_lags_state_vector(self):
        sim, dcs = world(n_dcs=3, k=2)
        writer = build_edge(sim, "w", dc_id="dc0", interest=INTEREST)
        sim.run_for(100)
        run_update(writer, KEY, "counter", "increment", 1)
        sim.run_for(12)
        assert dcs[0].state_vector["dc0"] == 1
        assert dcs[0].stable_vector["dc0"] == 0
        sim.run_for(3000)
        assert dcs[0].stable_vector["dc0"] == 1

    def test_stable_cut_is_causally_closed(self):
        # A transaction only becomes stable once its dependencies are
        # inside the stable cut (the Colony bug class fixed in
        # DataCenter._advance_stability).
        sim, dcs = world(n_dcs=3, k=2)
        w0 = build_edge(sim, "w0", dc_id="dc0", interest=INTEREST)
        w1 = build_edge(sim, "w1", dc_id="dc1", interest=INTEREST)
        sim.run_for(200)
        run_update(w0, KEY, "counter", "increment", 1)
        sim.run_for(2000)
        assert w1.read_value(KEY, "counter") == 1
        run_update(w1, KEY, "counter", "increment", 1)  # depends on w0's
        sim.run_for(3000)
        for dc in dcs:
            stable = dc.stable_vector
            # dc1's stable txn depends on dc0's: both must be covered.
            if stable["dc1"] >= 1:
                assert stable["dc0"] >= 1

    def test_partition_delays_stability_not_local_progress(self):
        sim, dcs = world(n_dcs=3, k=2)
        writer = build_edge(sim, "w", dc_id="dc0", interest=INTEREST)
        reader = build_edge(sim, "r", dc_id="dc1", interest=INTEREST)
        sim.run_for(200)
        sim.network.partition("dc0", "dc1")
        sim.network.partition("dc0", "dc2")
        run_update(writer, KEY, "counter", "increment", 1)
        sim.run_for(1000)
        assert writer.read_value(KEY, "counter") == 1  # local progress
        assert reader.read_value(KEY, "counter") == 0  # not replicated
        sim.network.heal("dc0", "dc1")
        sim.network.heal("dc0", "dc2")
        sim.run_for(5000)
        assert reader.read_value(KEY, "counter") == 1  # eventual visibility
