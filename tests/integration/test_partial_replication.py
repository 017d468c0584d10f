"""End-to-end partial geo-replication scenarios.

The property test (``tests/property/test_interest_churn.py``) explores
arbitrary churn interleavings; these tests pin down the three anchor
behaviours directly: served-shard pruning at low replica factors, the
all-interested configuration as an exact equivalence baseline, and
catch-up backfill for a subscriber arriving after the history shipped.
"""

from unittest import mock

from repro.core import ObjectKey, VectorClock
from repro.dc import DataCenter
from repro.dc.interest import ShardMap, shard_of
from repro.dc.messages import RemoteTxnRequest, ShardRead
from repro.sim import Actor, LatencyModel, Simulation
from tests.conftest import build_edge, run_update

N_SHARDS = 8
DC_IDS = ["dc0", "dc1", "dc2"]


def _key_on_home(home_index):
    """A key whose shard is homed (rf=1) on ``DC_IDS[home_index]``."""
    for i in range(1000):
        key = ObjectKey("docs", f"doc{i}")
        if shard_of(key, N_SHARDS) % len(DC_IDS) == home_index:
            return key
    raise AssertionError("no suitable key found")


def build_partial_cluster(seed=0, replica_factor=1, k_target=2):
    """``replica_factor=None``: no shard map at all (full replication)."""
    sim = Simulation(seed=seed, default_latency=LatencyModel(5.0))
    shard_map = None
    if replica_factor is not None:
        shard_map = ShardMap(N_SHARDS, DC_IDS,
                             replica_factor=replica_factor)
    dcs = []
    for dc_id in DC_IDS:
        dcs.append(sim.spawn(
            DataCenter, dc_id,
            peer_dcs=[d for d in DC_IDS if d != dc_id],
            n_shards=2, k_target=k_target, shard_map=shard_map))
    for a in DC_IDS:
        for b in DC_IDS:
            if a < b:
                sim.network.set_link(a, b, LatencyModel(5.0))
    return sim, dcs


def test_rf1_prunes_uninterested_streams_end_to_end():
    key = _key_on_home(0)
    sim, dcs = build_partial_cluster(replica_factor=1)
    writer = build_edge(sim, "writer", dc_id="dc0",
                        interest=((key, "counter"),))
    reader = build_edge(sim, "reader", dc_id="dc0",
                        interest=((key, "counter"),))
    sim.run_for(200)
    for _ in range(5):
        run_update(writer, key, "counter", "increment", 1)
        sim.run_for(50)
    sim.run_for(3000)

    # The home DC converged and its session sees every edit.
    assert dcs[0].state_digest().get(key) == 5
    assert reader.read_value(key, "counter") == 5
    # The other DCs pruned the stream: flat cursor advanced (no gaps),
    # no data held, and the wire recorded actual prune savings.
    for dc in dcs[1:]:
        assert dc.state_digest().get(key) is None
        assert dc.stream_gaps() == {}
        assert dc.shard_stream_gaps() == {}
        assert dc.state_vector["dc0"] == 5
    pruned = sum(link.txns_pruned
                 for link in dcs[0].sender.links.values())
    assert pruned > 0
    assert sum(link.pruned_bytes
               for link in dcs[0].sender.links.values()) > 0


def test_all_interested_partial_matches_batched_exactly():
    results = {}
    for replica_factor in (None, len(DC_IDS)):
        key = _key_on_home(1)
        sim, dcs = build_partial_cluster(replica_factor=replica_factor)
        writer = build_edge(sim, "writer", dc_id="dc1",
                            interest=((key, "counter"),))
        sim.run_for(200)
        for _ in range(4):
            run_update(writer, key, "counter", "increment", 1)
            sim.run_for(40)
        sim.run_for(3000)
        results[replica_factor] = (
            [dc.state_digest() for dc in dcs],
            [{peer: link.counters()
              for peer, link in sorted(dc.sender.links.items())}
             for dc in dcs])
    # Digests AND per-link wire counters are identical: an explicit
    # map under which everyone is interested in everything is the same
    # configuration as no map at all.
    assert results[len(DC_IDS)] == results[None]
    assert all(d.get(_key_on_home(1)) == 4 for d in results[None][0])


def test_late_subscriber_catches_up_via_backfill():
    key = _key_on_home(0)
    sim, dcs = build_partial_cluster(replica_factor=1)
    writer = build_edge(sim, "writer", dc_id="dc0",
                        interest=((key, "counter"),))
    observer = build_edge(sim, "observer", dc_id="dc2")
    sim.run_for(200)
    for _ in range(6):
        run_update(writer, key, "counter", "increment", 1)
        sim.run_for(30)
    sim.run_for(2000)
    # History shipped while dc2 was uninterested: pruned to skip runs.
    assert dcs[2].state_digest().get(key) is None
    before = dcs[2].stats["repl_backfills_in"]

    observer.declare_interest(key, "counter")
    sim.run_for(3000)

    # Subscribe triggered catch-up backfill; dc2 now holds the full
    # history with gap-free streams, and the edge reads it.
    assert dcs[2].stats["repl_backfills_in"] > before
    assert dcs[2].state_digest().get(key) == 6
    assert dcs[2].stream_gaps() == {}
    assert dcs[2].shard_stream_gaps() == {}
    assert observer.read_value(key, "counter") == 6
    # Writes after the subscription ship live, no further backfill.
    after = dcs[2].stats["repl_backfills_in"]
    run_update(writer, key, "counter", "increment", 1)
    sim.run_for(2000)
    assert dcs[2].state_digest().get(key) == 7
    assert observer.read_value(key, "counter") == 7
    assert dcs[2].stats["repl_backfills_in"] == after


class _Client(Actor):
    """A cache-less client: sends remote transactions, keeps replies."""

    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        self.replies = []

    def on_message(self, message, sender):
        self.replies.append(message)


def test_a_read_deferred_on_a_backfill_goes_out_at_the_cut_it_fires_under():
    # A DC folds its shard journals at its stable cut, so every read it
    # sends must be at or above that cut.  A remote transaction on a
    # shard the DC does not serve waits for the backfill; the stable cut
    # moves on (and a fold goes out) meanwhile, and the read it then
    # sends is raised to the cut.
    served, foreign = _key_on_home(0), _key_on_home(1)
    sim, dcs = build_partial_cluster(replica_factor=1, k_target=1)
    dc0 = dcs[0]
    writer = build_edge(sim, "writer", dc_id="dc0",
                        interest=((served, "counter"),))
    client = sim.spawn(_Client, "client")
    sim.run_for(200)
    reads = []
    send = DataCenter.send

    def spy(dc, dst, message, *args, **kwargs):
        if type(message) is ShardRead and dc is dc0:
            reads.append((VectorClock(message.visible_vector),
                          dc.stable_vector))
        return send(dc, dst, message, *args, **kwargs)

    with mock.patch.object(DataCenter, "send", spy):
        # dc1's answers are lost for a while: the backfill is late.
        sim.network.set_loss_rate("dc1", "dc0", 1.0, symmetric=False)
        client.send("dc0", RemoteTxnRequest(
            "client", 1, reads=((foreign, "counter"),),
            updates=((foreign, "counter", "increment", (1,)),)))
        for _ in range(6):
            run_update(writer, served, "counter", "increment", 1)
            sim.run_for(200)
        opened = dc0.stable_vector
        sim.network.set_loss_rate("dc1", "dc0", 0.0, symmetric=False)
        sim.run_for(2000)
    assert [reply.committed for reply in client.replies] == [True]
    assert dc0.folded["dc0"] >= 6 and opened["dc0"] >= 6
    assert reads and all(stable.leq(vector) for vector, stable in reads)
