"""Peer-group integration tests (paper section 5.1)."""

import pytest

from repro.core import ObjectKey
from repro.groups import GroupMember, form_group
from repro.sim import LAN, LatencyModel, Simulation

from ..conftest import build_cluster, run_update

KEY = ObjectKey("b", "x")


def group_world(n_members=3, commit_variant="async", seed=9,
                interest_members=None):
    sim = Simulation(seed=seed, default_latency=LatencyModel(10.0))
    build_cluster(sim, n_dcs=1, k_target=1)
    members = []
    for i in range(n_members):
        node = sim.spawn(GroupMember, f"m{i}", dc_id="dc0", group_id="g",
                         parent_id="m0", commit_variant=commit_variant)
        members.append(node)
    for a in members:
        for b in members:
            if a.node_id < b.node_id:
                sim.network.set_link(a.node_id, b.node_id, LAN)
    targets = members if interest_members is None \
        else [members[i] for i in interest_members]
    for member in targets:
        member.declare_interest(KEY, "counter")
    form_group(members)
    sim.run_for(200)
    return sim, members


class TestGroupBasics:
    def test_only_parent_holds_dc_session(self):
        sim, members = group_world()
        assert members[0].session_open
        assert not members[1].session_open
        assert not members[2].session_open

    def test_update_propagates_within_group_fast(self):
        sim, members = group_world()
        run_update(members[1], KEY, "counter", "increment", 1)
        sim.run_for(50)   # well below the DC round trip
        for member in members:
            assert member.read_value(KEY, "counter") == 1

    def test_sync_point_ships_to_dc(self):
        sim, members = group_world()
        run_update(members[1], KEY, "counter", "increment", 1)
        sim.run_for(1000)
        dc = sim.actors["dc0"]
        assert dc.committed_count == 1
        assert not members[1].unacked  # ack relayed back

    def test_group_counts_as_single_tree_node(self):
        # All group commits are sequenced through one DC session (the
        # sync point); the DC sees one client, not N.
        sim, members = group_world()
        for member in members:
            run_update(member, KEY, "counter", "increment", 1)
        sim.run_for(1500)
        dc = sim.actors["dc0"]
        assert set(dc.sessions) == {"m0"}
        assert dc.committed_count == 3

    def test_visibility_order_identical_for_conflicts(self):
        sim, members = group_world(n_members=5)
        for member in members:
            run_update(member, KEY, "counter", "increment", 1)
        sim.run_for(2000)
        logs = [[str(t.dot) for t in m.visibility_log
                 if t.touches(KEY)] for m in members]
        assert all(log == logs[0] for log in logs)
        assert all(m.read_value(KEY, "counter") == 5 for m in members)

    def test_members_on_different_commit_variants_are_refused(self):
        # A tiga member would send Tiga rounds its async peers' EPaxos
        # replicas refuse: the group is refused when it is formed.
        sim = Simulation(seed=9, default_latency=LatencyModel(10.0))
        build_cluster(sim, n_dcs=1, k_target=1)
        members = [sim.spawn(GroupMember, f"m{i}", dc_id="dc0",
                             group_id="g", parent_id="m0",
                             commit_variant=variant)
                   for i, variant in enumerate(("tiga", "async"))]
        with pytest.raises(ValueError, match="disagree"):
            form_group(members)


class TestCollaborativeCache:
    def test_member_miss_served_by_parent(self):
        sim, members = group_world(interest_members=[0, 1])
        run_update(members[1], KEY, "counter", "increment", 3)
        sim.run_for(100)
        done = []

        def body(tx):
            return (yield tx.read(KEY, "counter"))

        members[2].run_transaction(body,
                                   on_done=lambda r, s: done.append((r, s)))
        sim.run_for(100)
        assert done and done[0][0] == 3
        assert done[0][1].served_by == "peer"
        assert done[0][1].latency < 5.0  # LAN, not the 10ms DC link

    def test_parent_escalates_to_dc_when_cold(self):
        cold = ObjectKey("b", "cold")
        sim, members = group_world()
        done = []

        def body(tx):
            return (yield tx.read(cold, "counter"))

        members[1].run_transaction(body,
                                   on_done=lambda r, s: done.append((r, s)))
        sim.run_for(500)
        assert done and done[0][0] == 0
        assert done[0][1].served_by == "dc"

    def test_interest_announce_reaches_parent(self):
        new_key = ObjectKey("b", "fresh")
        sim, members = group_world()
        members[2].declare_interest(new_key, "counter")
        sim.run_for(200)
        assert new_key in members[0]._interest_types


class TestCommitVariants:
    def test_async_variant_never_aborts(self):
        sim, members = group_world(n_members=3, commit_variant="async")
        for member in members:
            run_update(member, KEY, "counter", "increment", 1)
        sim.run_for(1000)
        stats = [s for m in members for s in m.txn_stats]
        assert not any(s.aborted for s in stats)
        assert all(m.read_value(KEY, "counter") == 3 for m in members)

    def test_psi_aborts_concurrent_conflicts(self):
        sim, members = group_world(n_members=3, commit_variant="psi")
        results = {"done": 0, "aborted": 0}

        def body(tx):
            yield tx.update(KEY, "counter", "increment", 1)

        for member in members:
            member.run_transaction(
                body,
                on_done=lambda r, s: results.__setitem__(
                    "done", results["done"] + 1),
                on_abort=lambda e: results.__setitem__(
                    "aborted", results["aborted"] + 1))
        sim.run_for(2000)
        assert results["done"] + results["aborted"] == 3
        assert results["aborted"] >= 1
        # Committed value reflects only the non-aborted transactions, and
        # every member agrees on it.
        values = {m.read_value(KEY, "counter") for m in members}
        assert values == {results["done"]}

    def test_psi_sequential_txns_commit(self):
        sim, members = group_world(n_members=3, commit_variant="psi")
        done = []
        run = lambda m: m.run_transaction(
            _inc, on_done=lambda r, s: done.append(s))

        def _inc(tx):
            yield tx.update(KEY, "counter", "increment", 1)

        run(members[0])
        sim.run_for(300)
        run(members[1])
        sim.run_for(300)
        assert len(done) == 2
        assert not any(s.aborted for s in done)
        assert members[2].read_value(KEY, "counter") == 2

    def test_psi_commit_latency_includes_consensus(self):
        sim, members = group_world(n_members=3, commit_variant="psi")
        done = []

        def body(tx):
            yield tx.update(KEY, "counter", "increment", 1)

        members[1].run_transaction(body,
                                   on_done=lambda r, s: done.append(s))
        sim.run_for(300)
        assert done and done[0].latency > 0.0


@pytest.mark.parametrize("variant", ["async", "psi"])
def test_own_commit_outlives_a_noop_recovery_of_its_instance(variant):
    """m1's transaction X reaches only m2; m2's Y commits depending on
    it while m1 is cut off; with m1 and m2 both cut off, m0, m3 and m4
    recover m1's instance as a no-op, and after the heal m2's recovery
    hands m1 that no-op.  X must still be ordered: shipped to the DC
    (async) or given a verdict (psi)."""
    sim, members = group_world(n_members=5, commit_variant=variant)
    for member in members:
        def read(tx):
            return (yield tx.read(KEY, "counter"))
        member.run_transaction(read)
    sim.run_for(500)
    rest = ("m0", "m3", "m4")

    def cut(node, others, heal=False):
        for other in others:
            (sim.network.heal if heal else sim.network.partition)(node,
                                                                  other)

    def increment(tx):
        yield tx.update(KEY, "counter", "increment", 1)

    verdicts = []
    cut("m1", rest)
    members[1].run_transaction(
        increment, on_done=lambda r, s: verdicts.append("done"),
        on_abort=lambda e: verdicts.append("abort"))
    sim.run_for(5)
    cut("m1", ["m2"])
    members[2].run_transaction(increment)
    sim.run_for(50)
    cut("m2", rest)
    sim.run_for(3000)
    cut("m1", rest + ("m2",), heal=True)
    cut("m2", rest, heal=True)
    sim.run_for(8000)
    values = {m.read_value(KEY, "counter") for m in members}
    assert not members[1].unacked
    if variant == "async":
        assert values == {2}
        assert sim.actors["dc0"].state_digest()[KEY] == 2
    else:
        assert len(verdicts) == 1
        assert values == {1 + verdicts.count("done")}


class TestMembership:
    def test_join_grows_roster_everywhere(self):
        sim, members = group_world()
        newbie = sim.spawn(GroupMember, "m9", dc_id="dc0", group_id="g",
                           parent_id="m0")
        for member in members:
            sim.network.set_link("m9", member.node_id, LAN)
        newbie.join_group()
        sim.run_for(300)
        assert newbie.in_group
        for member in members:
            assert "m9" in member.members

    def test_joiner_participates_in_consensus(self):
        sim, members = group_world()
        newbie = sim.spawn(GroupMember, "m9", dc_id="dc0", group_id="g",
                           parent_id="m0")
        for member in members:
            sim.network.set_link("m9", member.node_id, LAN)
        newbie.join_group()
        sim.run_for(300)
        run_update(newbie, KEY, "counter", "increment", 1)
        sim.run_for(1000)
        assert all(m.read_value(KEY, "counter") == 1 for m in members)

    def test_leave_shrinks_roster(self):
        sim, members = group_world()
        members[2].leave_group()
        sim.run_for(300)
        assert not members[2].in_group
        assert "m2" not in members[0].members

    def test_group_events_fire(self):
        sim, members = group_world()
        events = []
        members[0].on_group_event = lambda kind, who: events.append(
            (kind, who))
        newbie = sim.spawn(GroupMember, "m9", dc_id="dc0", group_id="g",
                           parent_id="m0")
        for member in members:
            sim.network.set_link("m9", member.node_id, LAN)
        newbie.join_group()
        sim.run_for(300)
        assert ("join", "m9") in events
