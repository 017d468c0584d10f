"""Failure injection: message loss, crashes, duplicate delivery."""

from repro.core import ObjectKey
from repro.groups import GroupMember, form_group
from repro.sim import LAN, LatencyModel, Simulation

from ..conftest import build_cluster, build_edge, run_update

KEY = ObjectKey("b", "x")
INTEREST = ((KEY, "counter"),)


class TestMessageLoss:
    def test_edge_commit_survives_loss(self):
        sim = Simulation(seed=51, default_latency=LatencyModel(10.0))
        dcs = build_cluster(sim, n_dcs=1, k_target=1)
        edge = build_edge(sim, "e", interest=INTEREST)
        sim.run_for(200)
        # 60% loss in both directions; retries must get it through.
        sim.network.set_loss_rate("e", "dc0", 0.6)
        run_update(edge, KEY, "counter", "increment", 1)
        sim.run_for(20_000)
        assert not edge.unacked
        assert dcs[0].committed_count == 1

    def test_replication_survives_loss(self):
        sim = Simulation(seed=52, default_latency=LatencyModel(10.0))
        dcs = build_cluster(sim, n_dcs=2, k_target=1)
        sim.network.set_loss_rate("dc0", "dc1", 0.5)
        edge = build_edge(sim, "e", dc_id="dc0", interest=INTEREST)
        sim.run_for(200)
        for _ in range(5):
            run_update(edge, KEY, "counter", "increment", 1)
        sim.run_for(30_000)  # anti-entropy repairs the stream
        assert dcs[1].state_vector["dc0"] == 5

    def test_group_consensus_survives_loss(self):
        sim = Simulation(seed=53, default_latency=LatencyModel(10.0))
        build_cluster(sim, n_dcs=1, k_target=1)
        members = []
        for i in range(3):
            node = sim.spawn(GroupMember, f"m{i}", dc_id="dc0",
                             group_id="g", parent_id="m0")
            node.declare_interest(KEY, "counter")
            members.append(node)
        for a in members:
            for b in members:
                if a.node_id < b.node_id:
                    sim.network.set_link(a.node_id, b.node_id, LAN)
                    sim.network.set_loss_rate(a.node_id, b.node_id, 0.3)
        form_group(members)
        sim.run_for(500)
        run_update(members[1], KEY, "counter", "increment", 1)
        run_update(members[2], KEY, "counter", "increment", 1)
        sim.run_for(30_000)
        for member in members:
            assert member.read_value(KEY, "counter") == 2


class TestCrashes:
    def test_dc_crash_blocks_only_its_edges(self):
        sim = Simulation(seed=54, default_latency=LatencyModel(10.0))
        dcs = build_cluster(sim, n_dcs=2, k_target=1)
        e0 = build_edge(sim, "e0", dc_id="dc0", interest=INTEREST)
        e1 = build_edge(sim, "e1", dc_id="dc1", interest=INTEREST)
        sim.run_for(200)
        dcs[0].crash()
        # e0 still works locally (fail-stop DC, available edge).
        results = run_update(e0, KEY, "counter", "increment", 1)
        assert results[0].latency == 0.0
        # e1's path is unaffected; e0's txn is stuck at the dead DC, so
        # e1 sees only its own update.
        run_update(e1, KEY, "counter", "increment", 2)
        sim.run_for(2000)
        assert e1.read_value(KEY, "counter") == 2

    def test_edge_crash_is_silent(self):
        sim = Simulation(seed=55, default_latency=LatencyModel(10.0))
        dcs = build_cluster(sim, n_dcs=1, k_target=1)
        edge = build_edge(sim, "e", interest=INTEREST)
        other = build_edge(sim, "o", interest=INTEREST)
        sim.run_for(200)
        edge.crash()
        run_update(other, KEY, "counter", "increment", 1)
        sim.run_for(2000)
        assert dcs[0].committed_count == 1

    def test_migration_away_from_crashed_dc(self):
        sim = Simulation(seed=56, default_latency=LatencyModel(10.0))
        dcs = build_cluster(sim, n_dcs=2, k_target=1)
        edge = build_edge(sim, "e", dc_id="dc0", interest=INTEREST)
        sim.run_for(200)
        dcs[0].crash()
        run_update(edge, KEY, "counter", "increment", 1)
        sim.run_for(500)
        assert edge.unacked
        edge.migrate_to("dc1")
        sim.run_for(3000)
        assert not edge.unacked
        assert dcs[1].committed_count == 1


class TestDuplicates:
    def test_duplicate_edge_commit_ignored(self):
        from repro.dc.messages import EdgeCommit
        sim = Simulation(seed=57, default_latency=LatencyModel(10.0))
        dcs = build_cluster(sim, n_dcs=1, k_target=1)
        edge = build_edge(sim, "e", interest=INTEREST)
        sim.run_for(200)
        run_update(edge, KEY, "counter", "increment", 1)
        txn = next(iter(edge.unacked.values()))
        sim.run_for(500)
        for _ in range(3):
            edge.send("dc0", EdgeCommit(txn.handoff()))
        sim.run_for(2000)
        assert dcs[0].committed_count == 1
        assert edge.read_value(KEY, "counter") == 1

    def test_duplicate_push_ignored_at_edge(self):
        sim = Simulation(seed=58, default_latency=LatencyModel(10.0))
        dcs = build_cluster(sim, n_dcs=1, k_target=1)
        e0 = build_edge(sim, "e0", interest=INTEREST)
        e1 = build_edge(sim, "e1", interest=INTEREST)
        sim.run_for(200)
        run_update(e0, KEY, "counter", "increment", 1)
        sim.run_for(2000)
        # Re-seed e1 by reconnecting: seeds + pushed txn must not double.
        e1.session_open = False
        e1.connect()
        sim.run_for(2000)
        assert e1.read_value(KEY, "counter") == 1
