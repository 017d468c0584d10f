"""The edge retry timer (DESIGN §9): armed by what a session waits for.

A session arms it when it sends a ``SessionOpen``, parks a fetch,
registers a remote request or holds an own commit unacked; it is due
``RETRY_INTERVAL_MS`` after that request, re-arms only while something
is still outstanding, parks while the node is offline and is re-armed
by ``recover()`` only if something is outstanding.  A session with
nothing outstanding holds no entry in the event loop.
"""

from repro.core import ObjectKey
from repro.dc.messages import (EdgeCommit, InterestChange, ObjectRequest,
                               RemoteTxnRequest, SessionOpen)
from repro.edge import EdgeNode
from repro.groups import GroupMember, form_group
from repro.sim import LAN, LatencyModel, Simulation

from ..conftest import build_cluster, run_update, timer_entries

KEY = ObjectKey("b", "x")
OTHER = ObjectKey("b", "y")
RETRY = EdgeNode.RETRY_INTERVAL_MS


class Wire:
    """Records what ``node`` sends, by type, and drops the first
    message of each type it is told to lose."""

    def __init__(self, sim, node_id):
        self.sim = sim
        self.node_id = node_id
        self.sent = []
        self.lose = set()
        send = sim.network.send

        def tapped(src, dst, message, size_bytes=None):
            if src == node_id:
                self.sent.append((sim.now, type(message)))
                if type(message) in self.lose:
                    self.lose.discard(type(message))
                    return False
            return send(src, dst, message, size_bytes)

        sim.network.send = tapped

    def times(self, message_type):
        return [at for at, kind in self.sent if kind is message_type]


def world(seed=61, connect=True):
    sim = Simulation(seed=seed, default_latency=LatencyModel(10.0))
    build_cluster(sim, n_dcs=1, k_target=1)
    node = sim.spawn(EdgeNode, "e", dc_id="dc0")
    node.declare_interest(KEY, "counter")
    wire = Wire(sim, "e")
    if connect:
        node.connect()
        sim.run_for(2 * RETRY)
    return sim, node, wire


def read_body(key):
    def body(tx):
        return (yield tx.read(key, "counter"))
    return body


class TestRetriedOneIntervalAfterTheRequest:
    def test_a_lost_session_open(self):
        sim, node, wire = world(connect=False)
        wire.lose.add(SessionOpen)
        start = sim.now
        node.connect()
        sim.run_for(3 * RETRY)
        assert wire.times(SessionOpen) == [start, start + RETRY]
        assert node.session_open
        assert timer_entries(sim, node) == []

    def test_a_lost_edge_commit(self):
        sim, node, wire = world()
        wire.lose.add(EdgeCommit)
        start = sim.now
        run_update(node, KEY, "counter", "increment", 1)
        sim.run_for(3 * RETRY)
        assert wire.times(EdgeCommit) == [start, start + RETRY]
        assert not node.unacked
        assert timer_entries(sim, node) == []

    def test_a_commit_made_after_arming_waits_for_the_next_fire(self):
        sim, node, wire = world()
        wire.lose.update((InterestChange, ObjectRequest))
        start = sim.now
        node.run_transaction(read_body(OTHER))    # a lost fetch arms it
        sim.run_for(RETRY - 5)
        # In flight when the timer fires (the link takes 10 ms each way),
        # but sent 5 ms before: not due, so not re-sent.
        run_update(node, KEY, "counter", "increment", 1)
        sim.run_for(3 * RETRY)
        assert wire.times(ObjectRequest) == [start, start + RETRY]
        assert wire.times(EdgeCommit) == [start + RETRY - 5]
        assert not node.unacked
        assert timer_entries(sim, node) == []

    def test_a_lost_object_request(self):
        sim, node, wire = world()
        # The interest add would seed the key too: lose it as well.
        wire.lose.update((InterestChange, ObjectRequest))
        start = sim.now
        values = []
        node.run_transaction(read_body(OTHER),
                             on_done=lambda value, stats: values.append(value))
        sim.run_for(3 * RETRY)
        assert wire.times(ObjectRequest) == [start, start + RETRY]
        assert values == [0]
        assert timer_entries(sim, node) == []

    def test_a_lost_remote_request(self):
        sim, node, wire = world()
        wire.lose.add(RemoteTxnRequest)
        start = sim.now
        done = []
        node.run_remote_transaction(
            reads=[(KEY, "counter")],
            on_done=lambda values, stats: done.append(values))
        sim.run_for(3 * RETRY)
        assert wire.times(RemoteTxnRequest) == [start, start + RETRY]
        assert done == [(0,)]
        assert timer_entries(sim, node) == []

    def test_a_lost_fetch_of_a_key_evicted_meanwhile(self):
        """The parked fetch keeps the type it asked for: the retry asks
        again although the cache no longer holds the key."""
        sim, node, wire = world()
        node.cache.capacity = 1
        wire.lose.update((InterestChange, ObjectRequest))
        start = sim.now
        values = []
        node.run_transaction(read_body(OTHER),
                             on_done=lambda value, stats: values.append(value))
        node.declare_interest(ObjectKey("b", "z"), "counter")
        assert OTHER not in node.cache
        sim.run_for(3 * RETRY)
        assert wire.times(ObjectRequest) == [start, start + RETRY]
        assert values == [0]
        assert timer_entries(sim, node) == []


class TestParkedWhenNothingIsOutstanding:
    def test_a_settled_idle_session_has_no_timer_entry(self):
        sim, node, wire = world()
        assert node.session_open
        assert timer_entries(sim, node) == []
        sent = len(wire.sent)
        sim.run_for(10 * RETRY)
        assert len(wire.sent) == sent

    def test_a_node_never_connected_schedules_nothing(self):
        sim, node, wire = world(connect=False)
        assert timer_entries(sim, node) == []
        sim.run_for(10 * RETRY)
        assert wire.sent == []
        assert timer_entries(sim, node) == []

    def test_an_in_group_member_with_no_fetch_parks(self):
        sim = Simulation(seed=62, default_latency=LatencyModel(10.0))
        build_cluster(sim, n_dcs=1, k_target=1)
        members = [sim.spawn(GroupMember, f"m{i}", dc_id="dc0",
                             group_id="g", parent_id="m0")
                   for i in range(3)]
        for member in members:
            member.declare_interest(KEY, "counter")
            for other in members:
                if member.node_id < other.node_id:
                    sim.network.set_link(member.node_id, other.node_id, LAN)
        form_group(members)
        run_update(members[1], KEY, "counter", "increment", 1)
        sim.run_for(4 * RETRY)
        assert not members[1].session_open     # only the parent has one
        for member in members:
            assert member.read_value(KEY, "counter") == 1
            assert member._retry_epoch != member._timer_epoch


class TestOfflineAndCrash:
    def test_offline_parks_the_timer_and_going_online_rearms_it(self):
        sim, node, wire = world()
        wire.lose.add(EdgeCommit)
        run_update(node, KEY, "counter", "increment", 1)
        node.go_offline()
        sim.run_for(4 * RETRY)
        assert len(wire.times(EdgeCommit)) == 1
        assert node.unacked
        assert timer_entries(sim, node) == []
        back = sim.now
        node.go_online()
        assert wire.times(SessionOpen)[-1] == back
        assert timer_entries(sim, node)
        sim.run_for(4 * RETRY)
        assert not node.unacked
        assert timer_entries(sim, node) == []

    def test_a_crash_while_waiting_is_rearmed_by_recover(self):
        sim, node, wire = world()
        wire.lose.add(EdgeCommit)
        run_update(node, KEY, "counter", "increment", 1)
        sim.run_for(RETRY / 5)
        node.crash()
        sim.run_for(2 * RETRY)
        assert len(wire.times(EdgeCommit)) == 1
        back = sim.now
        node.recover()
        sim.run_for(2 * RETRY)
        assert wire.times(EdgeCommit)[1:] == [back + RETRY]
        assert not node.unacked
        assert timer_entries(sim, node) == []

    def test_a_crash_with_nothing_outstanding_schedules_nothing(self):
        sim, node, wire = world()
        node.crash()
        sim.run_for(RETRY)
        node.recover()
        assert timer_entries(sim, node) == []
        sent = len(wire.sent)
        sim.run_for(10 * RETRY)
        assert len(wire.sent) == sent
        assert timer_entries(sim, node) == []


def test_an_edge_session_never_draws_from_its_rng():
    sim, node, wire = world()
    run_update(node, KEY, "counter", "increment", 1)
    sim.run_for(4 * RETRY)
    assert node._rng is None
