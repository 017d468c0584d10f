"""Interest-churn properties for partial geo-replication.

A DC's interest set moves with its edge sessions: subscribing mid-
stream must backfill history from the stream origins, unsubscribing
must keep the flat stream cursor contiguous (skip runs stand in for
pruned positions), and resubscribing while frames are in flight must
not lose or duplicate entries.  The property: for *any* interleaving of
writes and subscribe/unsubscribe churn, the churned DC ends with
gap-free streams and exactly the state of an always-subscribed run.
"""

from hypothesis import given, settings, strategies as st

from repro.core import ObjectKey
from repro.dc import DataCenter
from repro.dc.interest import ShardMap, shard_of
from repro.edge import EdgeNode
from repro.sim import LatencyModel, Simulation

N_SHARDS = 8
DC_IDS = ["dc0", "dc1", "dc2"]


def _pick_key():
    """A key homed on dc0 at replica factor 1.

    The observer's DC (dc2) then serves nothing for it, so edge
    interest alone drives the subscribe/unsubscribe traffic under test.
    """
    for i in range(1000):
        key = ObjectKey("docs", f"doc{i}")
        if shard_of(key, N_SHARDS) % len(DC_IDS) == 0:
            return key
    raise AssertionError("no dc0-homed key found")


KEY = _pick_key()


def build_world(seed):
    sim = Simulation(seed=seed, default_latency=LatencyModel(10.0))
    shard_map = ShardMap(N_SHARDS, DC_IDS, replica_factor=1)
    dcs = []
    for dc_id in DC_IDS:
        dcs.append(sim.spawn(
            DataCenter, dc_id,
            peer_dcs=[d for d in DC_IDS if d != dc_id],
            n_shards=2, k_target=2, shard_map=shard_map))
    for a in DC_IDS:
        for b in DC_IDS:
            if a < b:
                sim.network.set_link(a, b, LatencyModel(5.0))
    writer = sim.spawn(EdgeNode, "writer", dc_id="dc0")
    writer.declare_interest(KEY, "counter")
    writer.connect()
    observer = sim.spawn(EdgeNode, "observer", dc_id="dc2")
    observer.connect()
    sim.run_for(300)
    return sim, dcs, writer, observer


def write_once(writer):
    def body(tx):
        yield tx.update(KEY, "counter", "increment", 1)

    writer.run_transaction(body)


# A churn plan interleaves writer commits with observer interest flips;
# short delays keep replication frames in flight across the flips.
step_st = st.tuples(st.sampled_from(["write", "toggle"]),
                    st.floats(1.0, 40.0))


@settings(deadline=None)
@given(steps=st.lists(step_st, min_size=2, max_size=14),
       seed=st.integers(0, 10_000))
def test_churned_dc_matches_always_subscribed_run(steps, seed):
    runs = {}
    for churn in (True, False):
        sim, dcs, writer, observer = build_world(seed)
        subscribed = False
        if not churn:
            observer.declare_interest(KEY, "counter")
            subscribed = True
            sim.run_for(100)
        writes = 0
        for action, delay in steps:
            if action == "write":
                write_once(writer)
                writes += 1
            elif churn:
                if subscribed:
                    observer.retract_interest(KEY)
                else:
                    observer.declare_interest(KEY, "counter")
                subscribed = not subscribed
            sim.run_for(delay)
        if not subscribed:
            # Always end resubscribed so both runs finish interested.
            observer.declare_interest(KEY, "counter")
        sim.run_for(12_000)
        runs[churn] = (dcs, observer, writes)

    churned_dcs, churned_obs, writes = runs[True]
    steady_dcs, steady_obs, _ = runs[False]

    # Per-shard stream contiguity: no DC may end with an interested
    # position skip-covered and no backfill pending, nor a flat-stream
    # hole below its frontier.
    for dc in churned_dcs + steady_dcs:
        assert dc.stream_gaps() == {}, (dc.node_id, dc.stream_gaps())
        assert dc.shard_stream_gaps() == {}, \
            (dc.node_id, dc.shard_stream_gaps())

    # Convergence: the churned DC holds exactly what the always-
    # subscribed run holds, which is the full edit history.
    assert churned_dcs[2].state_digest().get(KEY) \
        == steady_dcs[2].state_digest().get(KEY) \
        == churned_dcs[0].state_digest().get(KEY)
    if writes:
        assert churned_dcs[0].state_digest().get(KEY) == writes

    # Both observers read the complete counter after resubscribe.
    assert churned_obs.read_value(KEY, "counter") \
        == steady_obs.read_value(KEY, "counter")
