"""Interest-scoped stability fan-out on the DES, by message counts.

A stability round goes to its audience only; everybody else hears the
stable cut from the ``KEEPALIVE_MS`` heartbeat; a lost push shows as a
gap at the next push *or* heartbeat; a PoP does for its children what a
DC does for its sessions.
"""

from repro.core import ObjectKey
from repro.dc import DataCenter
from repro.edge import EdgeNode, PoPNode
from repro.sim import LatencyModel, Simulation

from ..conftest import build_cluster, build_edge, run_update

J = ObjectKey("b", "J")
K = ObjectKey("b", "K")
#: The heartbeat period plus its jitter and a round trip of slack.
TICK = DataCenter.KEEPALIVE_MS + 50.0 + 30.0


class RecordingEdge(EdgeNode):
    """An edge that logs every push: ``(time, txns carried, applied)``."""

    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        self.pushes = []
        self._gaps = 0

    def _on_update_push(self, msg, sender):
        gaps = self._gaps
        super()._on_update_push(msg, sender)
        self.pushes.append((self.now, len(msg.txns), self._gaps == gaps))

    def _handle_push_gap(self, sender):
        self._gaps += 1
        super()._handle_push_gap(sender)

    def carrying(self):
        return [p for p in self.pushes if p[1]]


def edge(sim, node_id, keys, dc_id="dc0"):
    node = sim.spawn(RecordingEdge, node_id, dc_id=dc_id)
    for key in keys:
        node.declare_interest(key, "counter")
    node.connect()
    return node


def world(seed=17):
    """One DC, a writer on J, a reader of J and a bystander on K."""
    sim = Simulation(seed=seed, default_latency=LatencyModel(5.0))
    dcs = build_cluster(sim)
    writer = build_edge(sim, "w", interest=[(J, "counter")])
    reader = edge(sim, "r", [J])
    bystander = edge(sim, "b", [K])
    sim.run_for(200)
    return sim, dcs[0], writer, reader, bystander


class TestAudience:
    def test_a_round_sends_nothing_outside_its_audience(self):
        sim, dc, writer, reader, bystander = world()
        before = dict(dc.stats)
        for _ in range(5):
            run_update(writer, J, "counter", "increment", 1)
            sim.run_for(40)
        assert len(reader.carrying()) == 5
        assert bystander.carrying() == []
        assert bystander.pushes == []       # no heartbeat was due yet
        # Five rounds, two sessions in the audience (writer and reader).
        assert dc.stats["pushes_out"] - before["pushes_out"] == 10
        assert dc.stats["heartbeats_out"] == before["heartbeats_out"]

    def test_the_heartbeat_brings_everybody_to_the_stable_cut(self):
        sim, dc, writer, reader, bystander = world()
        run_update(writer, J, "counter", "increment", 1)
        sim.run_for(100)
        assert reader.vector == dc.stable_vector
        assert bystander.vector != dc.stable_vector
        sent = dc.stats["heartbeats_out"]
        sim.run_for(TICK)
        assert bystander.vector == dc.stable_vector
        assert bystander.session_open          # caught up, not re-seeded
        assert [p[1:] for p in bystander.pushes] == [(0, True)]
        assert dc.stats["heartbeats_out"] - sent == len(dc.sessions)


class TestLostPush:
    def test_detected_at_the_next_push(self):
        sim, dc, writer, reader, _ = world()
        sim.network.partition("dc0", "r")
        run_update(writer, J, "counter", "increment", 1)
        sim.run_for(100)
        sim.network.heal("dc0", "r")
        run_update(writer, J, "counter", "increment", 1)
        sim.run_for(200)
        # The second push names a prev the reader never reached.
        assert [p[1:] for p in reader.pushes] == [(1, False)]
        assert reader.read_value(J, "counter") == 2     # re-seeded
        assert reader.vector == dc.stable_vector

    def test_detected_at_the_heartbeat_when_writers_go_quiet(self):
        sim, dc, writer, reader, _ = world()
        sim.network.partition("dc0", "r")
        run_update(writer, J, "counter", "increment", 1)
        sim.run_for(100)
        sim.network.heal("dc0", "r")
        sim.run_for(TICK + 100)
        assert [p[1:] for p in reader.pushes] == [(0, False)]
        assert reader.read_value(J, "counter") == 1

    def test_a_round_run_while_crashed_is_a_visible_gap(self):
        # The commit sits in the DC's service queue when the DC crashes;
        # its dispatch still runs (it is not a timer), stabilises the
        # transaction and moves the collection cursor while nothing can
        # be sent.  The audience's cursors must move with it.
        sim, dc, writer, reader, _ = world()
        run_update(writer, J, "counter", "increment", 1)
        sim.run_for(5.1)
        dc.crash()
        sim.run_for(5)
        assert dc.stable_vector["dc0"] == 1 and reader.pushes == []
        dc.recover()
        sim.run_for(TICK + 100)
        # (What the re-seed then finds is the crash model's business:
        # the shard write of that dispatch was suppressed too.)
        assert [p[1:] for p in reader.pushes] == [(0, False)]


class TestPartialSeed:
    def test_partial_seed_does_not_hide_a_lost_push(self):
        """An interest add's one-key seed must not advance the vector
        past the push chain (it used to: silent, permanent divergence)."""
        sim, dc, writer, reader, _ = world()
        run_update(writer, J, "counter", "increment", 1)
        sim.run_for(200)
        sim.network.partition("dc0", "r")
        run_update(writer, J, "counter", "increment", 1)
        sim.run_for(200)
        sim.network.heal("dc0", "r")
        reader.declare_interest(K, "counter")
        sim.run_for(100)
        assert K in reader.frontier.key_cut
        assert reader.vector != dc.stable_vector   # the seed did not lie
        run_update(writer, J, "counter", "increment", 1)
        sim.run_for(3000)
        assert dc.state_digest()[J] == 3
        assert reader.read_value(J, "counter") == 3
        assert reader.vector == dc.stable_vector

    def test_seed_of_the_whole_warm_set_advances_the_vector(self):
        """An open ack landing on an already-open session (a retried
        ``SessionOpen``): the DC's cursor restarts at that seed's cut, so
        the edge adopts it too — left behind, it would refuse the next
        heartbeat and pay for one more re-open."""
        sim, dc, writer, _, bystander = world()
        run_update(writer, J, "counter", "increment", 1)
        sim.run_for(100)
        assert bystander.vector != dc.stable_vector
        bystander.connect()                     # re-open: a full seed
        sim.run_for(100)
        assert bystander.vector == dc.stable_vector
        sim.run_for(TICK)
        assert bystander.pushes and bystander._gaps == 0


class TestPoPRelay:
    def test_children_on_disjoint_keys(self):
        sim = Simulation(seed=23, default_latency=LatencyModel(5.0))
        dcs = build_cluster(sim)
        pop = sim.spawn(PoPNode, "pop0", dc_id="dc0")
        pop.connect()
        sim.run_for(100)
        a = edge(sim, "a", [J], dc_id="pop0")
        b = edge(sim, "b", [K], dc_id="pop0")
        writer = build_edge(sim, "w", interest=[(J, "counter")])
        sim.run_for(300)
        for _ in range(4):
            run_update(writer, J, "counter", "increment", 1)
            sim.run_for(40)
        assert len(a.carrying()) == 4 and a.read_value(J, "counter") == 4
        assert b.pushes == []
        # The DC's heartbeat reaches b through the PoP, chained from
        # b's own cursor: it catches up without a re-seed.
        sim.run_for(TICK)
        assert b.vector == a.vector == dcs[0].stable_vector
        assert all(applied for _at, _n, applied in a.pushes + b.pushes)
