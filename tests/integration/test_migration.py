"""Node and transaction migration tests (paper sections 3.8-3.9, 5.2)."""

from repro.core import Dot, ObjectKey

from repro.sim import LatencyModel, Simulation

from ..conftest import build_cluster, build_edge, run_update

KEY = ObjectKey("b", "x")
INTEREST = ((KEY, "counter"),)


def world(n_dcs=3, k=2, seed=17):
    sim = Simulation(seed=seed, default_latency=LatencyModel(10.0))
    dcs = build_cluster(sim, n_dcs=n_dcs, k_target=k)
    return sim, dcs


class TestNodeMigration:
    def test_seamless_migration_when_compatible(self):
        sim, dcs = world()
        edge = build_edge(sim, "e", dc_id="dc0", interest=INTEREST)
        sim.run_for(200)
        run_update(edge, KEY, "counter", "increment", 1)
        sim.run_for(2000)  # fully replicated + acked
        edge.migrate_to("dc1")
        sim.run_for(500)
        assert edge.session_open
        assert edge.connected_dc == "dc1"
        assert edge.read_value(KEY, "counter") == 1

    def test_unacked_txns_resent_to_new_dc(self):
        sim, dcs = world()
        edge = build_edge(sim, "e", dc_id="dc0", interest=INTEREST)
        sim.run_for(200)
        sim.network.partition("e", "dc0")   # ship to dc0 will fail
        run_update(edge, KEY, "counter", "increment", 1)
        sim.run_for(100)
        assert edge.unacked
        edge.migrate_to("dc1")
        sim.run_for(2000)
        assert not edge.unacked
        assert dcs[1].state_vector["dc1"] == 1

    def test_duplicate_commit_suppressed_by_dot(self):
        # The edge cannot know whether dc0 received its transaction; it
        # resends to dc1 after migrating.  Replicas replay it only once
        # (section 3.8, "Avoiding Duplicates").
        sim, dcs = world()
        edge = build_edge(sim, "e", dc_id="dc0", interest=INTEREST)
        reader = build_edge(sim, "r", dc_id="dc2", interest=INTEREST)
        sim.run_for(200)
        run_update(edge, KEY, "counter", "increment", 1)
        sim.run_for(30)          # dc0 has committed; ack in flight
        edge.migrate_to("dc1")   # resends the same txn to dc1
        sim.run_for(4000)
        assert reader.read_value(KEY, "counter") == 1  # not 2!

    def test_equivalent_commit_stamps_merged(self):
        sim, dcs = world()
        edge = build_edge(sim, "e", dc_id="dc0", interest=INTEREST)
        sim.run_for(200)
        run_update(edge, KEY, "counter", "increment", 1)
        dot = next(iter(edge.unacked))
        sim.run_for(30)
        edge.migrate_to("dc1")
        sim.run_for(4000)
        # Both DCs may have accepted the txn: stamps merge as equivalent
        # entries of one commit (section 3.8).  Retired by now, its
        # entries are its positions in the DC's streams.
        assert dcs[0].holds(dot)
        entries0 = dcs[0].log.entries(dot)
        assert "dc0" in entries0
        assert len(entries0) >= 1

    def test_a_late_duplicate_is_acked_after_every_dc_retired_it(self):
        # The edge never hears its CommitAck, and moves on only once
        # every DC applied the write and retired it from its log.  The
        # new DC and, once the link is back, the old one each answer
        # the resend with the original commit entries; silence would
        # leave the edge retrying for ever (DESIGN §9).
        sim, dcs = world()
        edge = build_edge(sim, "e", dc_id="dc0", interest=INTEREST)
        stays = build_edge(sim, "s", dc_id="dc0", interest=INTEREST)
        sim.run_for(200)
        for node in (edge, stays):
            sim.network.set_loss_rate("dc0", node.node_id, 1.0,
                                      symmetric=False)
            run_update(node, KEY, "counter", "increment", 1)
        dots = [next(iter(node.unacked)) for node in (edge, stays)]
        sim.run_for(300)
        for dc in dcs:
            assert all(dc.holds(dot) and dot not in dc.log.txns
                       for dot in dots)
        entries = dcs[0].log.entries(dots[0])
        assert list(entries) == ["dc0"]
        edge.migrate_to("dc1")
        sim.network.set_loss_rate("dc0", "s", 0.0, symmetric=False)
        sim.run_for(1500)
        assert not edge.unacked and not stays.unacked
        assert edge.own_transaction(dots[0]).commit.entries == entries
        assert stays.own_transaction(dots[1]).commit.entries \
            == dcs[0].log.entries(dots[1])
        assert dcs[0].state_vector["dc0"] == 2      # sequenced once each
        assert edge.read_value(KEY, "counter") == 2

    def test_incompatible_migration_rejected_then_retries(self):
        sim, dcs = world(k=1)
        # Edge close to dc0 gets pushes quickly; dc2 lags behind.
        edge = build_edge(sim, "e", dc_id="dc0", interest=INTEREST,
                          latency=LatencyModel(0.2))
        writer = build_edge(sim, "w", dc_id="dc0", interest=INTEREST,
                            latency=LatencyModel(0.2))
        sim.network.set_link("e", "dc2", LatencyModel(0.2))
        sim.run_for(200)
        # Make dc2 slow to hear about dc0's commits.
        sim.network.partition("dc0", "dc2")
        sim.network.partition("dc1", "dc2")
        run_update(writer, KEY, "counter", "increment", 1)
        sim.run_for(50)
        assert edge.read_value(KEY, "counter") == 1  # edge is ahead
        rejected_before = dcs[2].stats["rejected"]
        edge.migrate_to("dc2")
        sim.run_for(300)
        assert dcs[2].stats["rejected"] > rejected_before
        assert not edge.session_open  # effectively disconnected
        # Repair: dc2 catches up; the edge's retry then succeeds.
        sim.network.heal("dc0", "dc2")
        sim.network.heal("dc1", "dc2")
        sim.run_for(3000)
        assert edge.session_open

    def test_higher_k_prevents_incompatibility(self):
        sim, dcs = world(k=3)  # visible only when at *all* DCs
        edge = build_edge(sim, "e", dc_id="dc0", interest=INTEREST,
                          latency=LatencyModel(0.2))
        writer = build_edge(sim, "w", dc_id="dc0", interest=INTEREST,
                            latency=LatencyModel(0.2))
        sim.network.set_link("e", "dc2", LatencyModel(0.2))
        sim.run_for(200)
        run_update(writer, KEY, "counter", "increment", 1)
        sim.run_for(2000)
        # Anything visible at the edge is at every DC: migration to any
        # DC is causally compatible.
        rejected_before = dcs[2].stats["rejected"]
        edge.migrate_to("dc2")
        sim.run_for(500)
        assert dcs[2].stats["rejected"] == rejected_before
        assert edge.session_open


class TestTransactionMigration:
    """Section 3.9: run resource-hungry transactions in the core cloud."""

    def test_migrated_txn_sees_client_state(self):
        sim, dcs = world(n_dcs=1, k=1)
        edge = build_edge(sim, "e", dc_id="dc0", interest=INTEREST)
        sim.run_for(200)
        run_update(edge, KEY, "counter", "increment", 5)
        sim.run_for(500)  # local txn reaches the DC first (section 5.1.3)
        out = []
        edge.run_remote_transaction(
            reads=((KEY, "counter"),),
            on_done=lambda values, stats: out.append(values))
        sim.run_for(500)
        assert out == [(5,)]

    def test_migrated_txn_with_missing_deps_fails_after_retries(self):
        from repro.core import (CommitStamp, Snapshot, Transaction,
                                VectorClock, WriteOp)
        from repro.crdt import Counter
        sim, dcs = world(n_dcs=1, k=1)
        edge = build_edge(sim, "e", dc_id="dc0", interest=INTEREST)
        sim.run_for(200)
        # A dependency the DC will never receive.
        op = Counter().prepare("increment", 1)
        ghost = Transaction(Dot(99, "someone-else"), "someone-else",
                            Snapshot(VectorClock()), CommitStamp(),
                            [WriteOp(KEY, op)])
        edge.integrate_foreign_txn(ghost)
        failures = []
        edge.run_remote_transaction(reads=((KEY, "counter"),),
                                    on_fail=failures.append)
        sim.run_for(10_000)
        assert failures == ["missing-dependencies"]

    def test_migrated_update_commits_in_dc(self):
        sim, dcs = world(n_dcs=1, k=1)
        edge = build_edge(sim, "e", dc_id="dc0", interest=INTEREST)
        sim.run_for(200)
        out = []
        edge.run_remote_transaction(
            updates=((KEY, "counter", "increment", (9,)),),
            on_done=lambda values, stats: out.append(stats))
        sim.run_for(2000)
        assert out and not out[0].read_only
        assert dcs[0].committed_count == 1
        # The result flows back to the edge through the normal push path.
        assert edge.read_value(KEY, "counter") == 9
