"""Chat-world harness and workload-driver integration tests."""

from dataclasses import replace

import pytest

from repro.bench import build_chat_world, chat_topology
from repro.bench.harness import ChatWorld
from repro.bench.metrics import served_by_breakdown
from repro.bench.scenarios import _small_trace
from repro.serve.builder import build_sim_world
from repro.workload import ClosedLoopDriver, MattermostTrace, TraceConfig


def deploy(mode, n_clients=8, n_dcs=1, seed=7):
    trace = _small_trace(n_clients, seed)
    return build_chat_world(mode, n_dcs, trace, n_clients,
                            seed=seed), trace


def drive(world, warm_ms, run_ms, think_time_ms):
    world.warm_up(warm_ms)
    driver = ClosedLoopDriver(world.sim, world.trace, world.users(),
                              think_time_ms=think_time_ms)
    driver.start()
    world.sim.run_for(run_ms)
    return driver


class TestDeployment:
    def test_unknown_mode_rejected(self):
        trace = _small_trace(4, 1)
        with pytest.raises(ValueError, match="nope"):
            chat_topology("nope", 1, trace, 4)

    @pytest.mark.parametrize("mode", ["antidote", "swiftcloud", "colony"])
    def test_each_mode_builds_and_runs(self, mode):
        world, _ = deploy(mode)
        drive(world, 1500.0, 1500.0, 20.0)
        stats = world.all_stats()
        assert len(stats) > 20
        assert not any(s.aborted for s in stats)

    def test_colony_groups_formed(self):
        world, _ = deploy("colony", n_clients=30)
        groups = world.groups
        assert [len(group) for group in groups] == [12, 12, 6]
        users = [node for _u, node in world.clients]
        assert [m for group in groups for m in group] == users
        for group in groups:
            parent = group[0]
            assert parent.is_parent
            assert all(m.parent_id == parent.node_id for m in group)
            assert not any(m.is_parent for m in group[1:])
            roster = tuple(sorted(m.node_id for m in group))
            assert all(m.members == roster for m in group)
        assert all(g[0].session_open for g in groups)

    def test_k_default_tracks_dc_count(self):
        trace = _small_trace(4, 1)
        for n_dcs, k in ((1, 1), (2, 2), (3, 2)):
            topo = chat_topology("swiftcloud", n_dcs, trace, 4)
            assert [s.k_target for s in topo.dcs] == [k] * n_dcs
            world = build_chat_world("swiftcloud", n_dcs, trace, 4)
            assert [dc.k_target for dc in world.dcs] == [k] * n_dcs

    def test_served_by_profile_per_mode(self):
        profiles = {}
        for mode in ("antidote", "swiftcloud", "colony"):
            world, _ = deploy(mode, n_clients=8)
            drive(world, 1500.0, 2000.0, 15.0)
            profiles[mode] = served_by_breakdown(world.all_stats())
        assert set(profiles["antidote"]) == {"dc"}
        assert profiles["swiftcloud"].get("client", 0) > 0
        assert "peer" not in profiles["swiftcloud"]
        assert profiles["colony"].get("client", 0) > 0

    def test_determinism_same_seed_same_results(self):
        def run():
            world, _ = deploy("colony", n_clients=6, seed=13)
            drive(world, 1200.0, 1500.0, 15.0)
            return [(s.start, s.end, s.served_by)
                    for s in world.all_stats()]

        assert run() == run()


def test_closed_loop_clients_keep_issuing_after_an_abort():
    """A psi group whose members all post to one channel: certification
    aborts some posts, an aborted op ends its client's turn as a
    completed one does, and every client keeps issuing."""
    trace = MattermostTrace(TraceConfig(
        n_users=5, n_workspaces=1, channels_per_workspace=1,
        big_workspace_users=5, read_ratio=0.0, seed=3))
    topo = chat_topology("colony", 1, trace, 5)
    topo.sites = [replace(site, commit_variant="psi")
                  if site.role == "member" else site for site in topo.sites]
    world = ChatWorld(build_sim_world(topo), trace, 5, 0.9)
    world.warm_up()
    driver = ClosedLoopDriver(world.sim, trace, world.users(),
                              think_time_ms=5.0)
    driver.start()
    world.sim.run_for(3000.0)
    assert driver.aborted > 0 and driver.completed > 0
    aborts = sum(s.aborted for s in world.all_stats())
    assert driver.aborted == aborts
    issued = dict(driver._counts)
    world.sim.run_for(2000.0)
    assert all(driver._counts[user] > issued[user]
               for user, _actor in world.users())


class TestWritebackPolicy:
    def test_writeback_batches_uplink_messages(self):
        from repro.core import ObjectKey
        from repro.edge import EdgeNode
        from repro.sim import LatencyModel, Simulation
        from ..conftest import build_cluster, run_update

        key = ObjectKey("b", "x")

        def run(writeback):
            sim = Simulation(seed=3, default_latency=LatencyModel(10.0))
            dcs = build_cluster(sim, n_dcs=1, k_target=1)
            node = sim.spawn(EdgeNode, "e", dc_id="dc0",
                             writeback_ms=writeback)
            node.declare_interest(key, "counter")
            node.connect()
            sim.run_for(200)
            before = sim.network.stats.messages_sent
            for _ in range(20):
                run_update(node, key, "counter", "increment", 1)
            sim.run_for(3000)
            assert not node.unacked
            assert dcs[0].committed_count == 20
            return sim.network.stats.messages_sent - before

        eager = run(None)
        batched = run(200.0)
        # Same 20 commits reach the DC either way, with fewer uplink
        # messages in writeback mode (they ship in periodic batches).
        assert batched < eager
