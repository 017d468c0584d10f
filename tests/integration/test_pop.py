"""PoP border-node tests (paper Figure 1: DC <- PoP <- far edge)."""

from repro.core import ObjectKey
from repro.edge import EdgeNode, PoPNode
from repro.sim import CELLULAR, ETHERNET, LatencyModel, Simulation

from ..conftest import build_cluster, run_update

KEY = ObjectKey("b", "x")
INTEREST = ((KEY, "counter"),)


def pop_world(seed=71, n_edges=2):
    sim = Simulation(seed=seed, default_latency=CELLULAR)
    dcs = build_cluster(sim, n_dcs=1, k_target=1)
    pop = sim.spawn(PoPNode, "pop0", dc_id="dc0")
    sim.network.set_link("pop0", "dc0", CELLULAR)      # 50ms to the core
    edges = []
    for i in range(n_edges):
        edge = sim.spawn(EdgeNode, f"e{i}", dc_id="pop0")
        sim.network.set_link(f"e{i}", "pop0", ETHERNET)  # 10ms to border
        edge.declare_interest(KEY, "counter")
        edges.append(edge)
    pop.connect()
    sim.run_for(300)
    for edge in edges:
        edge.connect()
    sim.run_for(300)
    return sim, dcs, pop, edges


class TestPoPSessions:
    def test_children_open_sessions_via_pop(self):
        sim, dcs, pop, edges = pop_world()
        assert all(edge.session_open for edge in edges)
        assert "pop0" in dcs[0].sessions          # one upstream session
        assert "e0" not in dcs[0].sessions        # children terminate at PoP

    def test_pop_interest_is_union(self):
        sim, dcs, pop, edges = pop_world()
        other = ObjectKey("b", "other")
        edges[1].declare_interest(other, "counter")
        sim.run_for(300)
        assert other in pop._interest_types

    def test_pop_retracts_upstream_when_last_child_retracts(self):
        sim, dcs, pop, edges = pop_world()
        other = ObjectKey("b", "other")
        for edge in edges:
            edge.declare_interest(other, "counter")
        sim.run_for(300)
        assert other in pop._interest_types
        assert other in dcs[0].sessions["pop0"].interest
        # One child letting go is not enough: the union still holds it.
        edges[0].retract_interest(other)
        sim.run_for(300)
        assert other in pop._interest_types
        # The last child's retract propagates all the way upstream.
        edges[1].retract_interest(other)
        sim.run_for(300)
        assert other not in pop._interest_types
        assert other not in dcs[0].sessions["pop0"].interest
        # A fresh declare resubscribes end to end.
        edges[0].declare_interest(other, "counter")
        sim.run_for(300)
        assert other in pop._interest_types
        assert other in dcs[0].sessions["pop0"].interest


class TestPoPDataPath:
    def test_commit_flows_up_and_back(self):
        sim, dcs, pop, edges = pop_world()
        run_update(edges[0], KEY, "counter", "increment", 3)
        sim.run_for(3000)
        assert not edges[0].unacked               # ack relayed via PoP
        assert dcs[0].committed_count == 1
        assert edges[1].read_value(KEY, "counter") == 3

    def test_cold_fetch_served_at_border_latency(self):
        sim, dcs, pop, edges = pop_world()
        run_update(edges[0], KEY, "counter", "increment", 1)
        sim.run_for(3000)
        late = sim.spawn(EdgeNode, "late", dc_id="pop0")
        sim.network.set_link("late", "pop0", ETHERNET)
        late.connect()
        sim.run_for(200)
        done = []

        def body(tx):
            return (yield tx.read(KEY, "counter"))

        late.run_transaction(body, on_done=lambda r, s: done.append(s))
        sim.run_for(500)
        assert done
        # ~one border RTT (20ms), far below the ~100ms core RTT.
        assert 10.0 < done[0].latency < 40.0

    def test_pop_escalates_unknown_objects(self):
        sim, dcs, pop, edges = pop_world()
        cold = ObjectKey("b", "cold")
        done = []

        def body(tx):
            return (yield tx.read(cold, "counter"))

        edges[0].run_transaction(body, on_done=lambda r, s: done.append(s))
        sim.run_for(1000)
        assert done
        # Border miss: one border RTT plus one core RTT.
        assert done[0].latency > 100.0

    def test_local_commit_latency_unaffected(self):
        sim, dcs, pop, edges = pop_world()
        results = run_update(edges[0], KEY, "counter", "increment", 1)
        assert results[0].latency == 0.0


class TestPoPFailures:
    def test_children_survive_pop_dc_partition(self):
        sim, dcs, pop, edges = pop_world()
        sim.network.partition("pop0", "dc0")
        run_update(edges[0], KEY, "counter", "increment", 1)
        sim.run_for(3000)
        # Local-first still works; the commit waits at/behind the border.
        assert edges[0].read_value(KEY, "counter") == 1
        assert dcs[0].committed_count == 0
        sim.network.heal("pop0", "dc0")
        sim.run_for(5000)
        assert dcs[0].committed_count == 1
        assert not edges[0].unacked

    def test_incompatible_child_rejected(self):
        sim, dcs, pop, edges = pop_world()
        # A child claiming a future state is refused (section 3.8 check).
        from repro.dc.messages import SessionOpen
        stranger = sim.spawn(EdgeNode, "stranger", dc_id="pop0")
        sim.network.set_link("stranger", "pop0", ETHERNET)
        stranger.frontier.advance({"dc0": 999})
        stranger.connect()
        sim.run_for(300)
        assert not stranger.session_open
