"""Integration tests for ``commit_variant="tiga"`` (deadline fast path).

A group of members with synchronized (or deliberately skewed) clocks
commits through the one-round-trip deadline path; these tests drive the
full stack — GroupMember, TigaSequencer, the simulated network and the
DC behind the sync point — and pin the fast path, the release order,
the EPaxos fallback under skew, and convergence with the other
variants.
"""

from repro.core import ObjectKey
from repro.groups import GroupMember, form_group
from repro.sim import LAN, LatencyModel, Simulation

from ..conftest import build_cluster, build_edge, run_update

KEY = ObjectKey("b", "x")


def tiga_world(n_members=3, seed=9, commit_variant="tiga"):
    sim = Simulation(seed=seed, default_latency=LatencyModel(10.0))
    build_cluster(sim, n_dcs=1, k_target=1)
    members = []
    for i in range(n_members):
        node = sim.spawn(GroupMember, f"m{i}", dc_id="dc0", group_id="g",
                         parent_id="m0", commit_variant=commit_variant)
        node.declare_interest(KEY, "counter")
        members.append(node)
    for a in members:
        for b in members:
            if a.node_id < b.node_id:
                sim.network.set_link(a.node_id, b.node_id, LAN)
    form_group(members)
    sim.run_for(200)
    return sim, members


def group_stats(members, field):
    return sum(m.tiga_stats[field] for m in members)


class TestFastPath:
    def test_single_round_trip_commit(self):
        sim, members = tiga_world()
        run_update(members[1], KEY, "counter", "increment", 1)
        sim.run_for(5)                    # one LAN round trip, not more
        stats = [s for s in members[1].txn_stats if not s.read_only]
        assert len(stats) == 1 and not stats[0].aborted
        assert stats[0].latency < 2.0
        assert group_stats(members, "fast_commits") == 1
        assert group_stats(members, "fallbacks") == 0

    def test_concurrent_conflicts_commit_without_aborts(self):
        sim, members = tiga_world(n_members=5)
        for member in members:
            run_update(member, KEY, "counter", "increment", 1)
        sim.run_for(2000)
        assert all(not s.aborted for m in members for s in m.txn_stats)
        assert all(m.read_value(KEY, "counter") == 5 for m in members)

    def test_visibility_order_identical_across_members(self):
        sim, members = tiga_world(n_members=5)
        for member in members:
            run_update(member, KEY, "counter", "increment", 1)
        sim.run_for(2000)
        logs = [[str(t.dot) for t in m.visibility_log
                 if t.touches(KEY)] for m in members]
        assert all(log == logs[0] for log in logs)

    def test_sync_point_ships_and_stamps_resolve(self):
        sim, members = tiga_world()
        run_update(members[2], KEY, "counter", "increment", 1)
        sim.run_for(2000)
        assert sim.actors["dc0"].committed_count == 1
        assert not members[2].unacked
        assert all(m.pipeline_idle for m in members)

    def test_matches_async_variant_state(self):
        # Same concurrent workload, same converged state.  (PSI is the
        # odd one out by design: it *aborts* concurrent conflicts, so
        # it only participates in conflict-free parity — covered by the
        # property suite and the commit benchmark.)
        digests = {}
        for variant in ("tiga", "async"):
            sim, members = tiga_world(n_members=3,
                                      commit_variant=variant)
            for member in members:
                run_update(member, KEY, "counter", "increment", 1)
            sim.run_for(3000)
            digests[variant] = [m.read_value(KEY, "counter")
                                for m in members]
        assert digests["tiga"] == digests["async"] == [3, 3, 3]


class TestSkewFallback:
    def test_fast_clock_replicas_nack_then_epaxos_commits(self):
        sim, members = tiga_world()
        # Both non-coordinator replicas' clocks jump far ahead: every
        # proposed deadline is already in their past, so they nack and
        # the coordinator falls back to EPaxos.
        sim.network.clocks.step("m1", 5000.0)
        sim.network.clocks.step("m2", 5000.0)
        run_update(members[0], KEY, "counter", "increment", 1)
        sim.run_for(2000)
        assert group_stats(members, "fallbacks") == 1
        assert group_stats(members, "nacks_sent") >= 2
        assert all(m.read_value(KEY, "counter") == 1 for m in members)
        assert all(m.pipeline_idle for m in members)

    def test_bounded_skew_still_takes_fast_path(self):
        sim, members = tiga_world()
        # Skew well inside the deadline lead: verdicts stay positive.
        sim.network.clocks.set_offset("m1", 8.0)
        sim.network.clocks.set_offset("m2", -8.0)
        for member in members:
            run_update(member, KEY, "counter", "increment", 1)
        sim.run_for(2000)
        assert group_stats(members, "fallbacks") == 0
        assert group_stats(members, "fast_commits") == 3
        assert all(m.read_value(KEY, "counter") == 3 for m in members)

    def test_drifting_member_converges(self):
        sim, members = tiga_world()
        sim.network.clocks.set_drift("m1", 0.04)
        for _round in range(4):
            for member in members:
                run_update(member, KEY, "counter", "increment", 1)
            sim.run_for(500)
        sim.run_for(3000)
        assert all(m.read_value(KEY, "counter") == 12 for m in members)
        assert all(m.pipeline_idle for m in members)


class TestMembership:
    def test_member_churn_under_tiga(self):
        # Like the other variants, a rejoining member catches up through
        # the group traffic that follows; the fast path must keep
        # working across the membership bounce.
        sim, members = tiga_world()
        run_update(members[1], KEY, "counter", "increment", 1)
        sim.run_for(500)
        members[2].disconnect_from_group()
        sim.run_for(200)
        run_update(members[0], KEY, "counter", "increment", 1)
        sim.run_for(500)
        members[2].reconnect_to_group()
        sim.run_for(500)
        run_update(members[2], KEY, "counter", "increment", 1)
        sim.run_for(3000)
        assert all(m.read_value(KEY, "counter") == 3 for m in members)
        assert all(m.pipeline_idle for m in members)


class TestSustainedRate:
    """A tiga group keeps up with a steady write rate.

    Each deadline used to be taken a whole lead above the HLC, which
    every member had merged the previous deadline into, so a group
    released at most one write per lead (25 ms: 40 writes/s) and at
    50 writes/s its backlog, and commit→visible with it, grew linearly
    through the run."""

    RATE_PER_S = 50
    RUN_MS = 4000.0

    def test_commit_to_visible_stays_flat_at_fifty_writes_per_second(self):
        sim, members = tiga_world(n_members=5)
        observer = build_edge(sim, "observer",
                              interest=[(KEY, "counter")])
        sim.run_for(300)
        gap_ms = 1000.0 / self.RATE_PER_S
        n_writes = int(self.RUN_MS / gap_ms)
        start = sim.now
        submitted = [start + i * gap_ms for i in range(n_writes)]
        for i, at in enumerate(submitted):
            sim.loop.schedule_at(
                at, lambda m=members[i % len(members)]:
                run_update(m, KEY, "counter", "increment", 1))
        # The observer sees the k-th write once its counter reaches k.
        shown = []

        def on_update(key):
            value = observer.read_value(KEY, "counter")
            while len(shown) < value:
                shown.append(sim.now)

        observer.subscribe(KEY, on_update)
        sim.run_for(self.RUN_MS + 3000.0)
        assert len(shown) == n_writes
        latency = [seen - at for seen, at in zip(shown, submitted)]
        quarter = n_writes // 4
        first = sorted(latency[:quarter])[quarter // 2]
        last = sorted(latency[-quarter:])[quarter // 2]
        # Flat: the last quarter's median within 50 ms of the first's,
        # where a backlog growing by 10 writes/s adds about 0.7 s.
        assert last <= first + 50.0, (first, last)
