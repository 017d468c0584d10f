"""Unit tests for the shard-interest layer behind geo-replication.

Covers the pure primitives (``repro.dc.interest``), the skip-run /
backfill wire encodings (``repro.dc.messages``), and
:class:`InterestGraph` — sans-io, so no simulator anywhere.
"""

import pytest

from repro.core import Dot, ObjectKey
from repro.dc.interest import (MAX_SHARDS, InterestGraph, ShardMap, mask_of,
                               shard_of, shards_of_mask)
from repro.dc.messages import (InterestAdvert, InterestChange,
                               ReplicateBatch, ShardBackfill)
from repro.dc.replog import SkipRun
from repro.transport.codec import value_size, wire_size


# ----------------------------------------------------------------------
# shard hashing and mask helpers
# ----------------------------------------------------------------------
def test_shard_of_is_stable_and_in_range():
    key = ObjectKey("docs", "doc1")
    first = shard_of(key, 16)
    assert first == shard_of(ObjectKey("docs", "doc1"), 16)
    for i in range(64):
        assert 0 <= shard_of(ObjectKey("docs", f"doc{i}"), 16) < 16


def test_shard_of_spreads_keys():
    shards = {shard_of(ObjectKey("docs", f"doc{i}"), 8)
              for i in range(200)}
    assert shards == set(range(8))


def test_mask_round_trip():
    shards = (0, 3, 17, 63)
    mask = mask_of(shards)
    assert shards_of_mask(mask) == shards
    assert mask_of(()) == 0
    assert shards_of_mask(0) == ()


# ----------------------------------------------------------------------
# ShardMap
# ----------------------------------------------------------------------
def test_shard_map_rejects_bad_config():
    with pytest.raises(ValueError):
        ShardMap(0, ["a"])
    with pytest.raises(ValueError):
        ShardMap(MAX_SHARDS + 1, ["a"])
    with pytest.raises(ValueError):
        ShardMap(4, [])
    with pytest.raises(ValueError):
        ShardMap(4, ["a", "b"], replica_factor=3)
    with pytest.raises(ValueError):
        ShardMap(4, ["a", "b"], replica_factor=0)


def test_shard_map_homes_are_round_robin():
    smap = ShardMap(6, ["dc0", "dc1", "dc2"], replica_factor=2)
    assert smap.homes(0) == ("dc0", "dc1")
    assert smap.homes(1) == ("dc1", "dc2")
    assert smap.homes(2) == ("dc2", "dc0")
    # Every shard is served by exactly replica_factor DCs.
    for shard in range(6):
        servers = [dc for dc in smap.dc_ids
                   if smap.served(dc) & (1 << shard)]
        assert len(servers) == 2
        assert tuple(sorted(servers)) == tuple(sorted(smap.homes(shard)))


def test_shard_map_is_construction_order_independent():
    a = ShardMap(8, ["dc2", "dc0", "dc1"], replica_factor=2)
    b = ShardMap(8, ["dc0", "dc1", "dc2"], replica_factor=2)
    for dc in ("dc0", "dc1", "dc2"):
        assert a.served(dc) == b.served(dc)


def test_shard_map_default_is_all_interested():
    smap = ShardMap(4, ["dc0", "dc1"])
    assert smap.replica_factor == 2
    assert smap.all_interested()
    assert smap.served("dc0") == smap.full_mask == 0b1111
    assert not ShardMap(4, ["dc0", "dc1"],
                        replica_factor=1).all_interested()
    assert smap.served("unknown") == 0


def test_mask_of_keys_unions_write_set():
    smap = ShardMap(8, ["dc0"])
    keys = [ObjectKey("docs", f"doc{i}") for i in range(5)]
    expected = 0
    for key in keys:
        expected |= 1 << smap.shard_of(key)
    assert smap.mask_of_keys(keys) == expected
    assert smap.mask_of_keys([]) == 0


# ----------------------------------------------------------------------
# skip runs and partial wire encodings
# ----------------------------------------------------------------------
def test_skip_run_covers_its_range():
    run = SkipRun(5, 3, mask=0b10)
    assert run.end_ts == 7
    assert not run.covers(4)
    assert all(run.covers(ts) for ts in (5, 6, 7))
    assert not run.covers(8)


def test_partial_batch_prices_skip_markers():
    entry = {"dot": ("e", 1), "writes": (), "delta": {}}

    def frame(*entries):
        return ReplicateBatch(origin_dc="dc0", start_ts=1, base_vector={},
                              entries=entries, sender_vector={"dc0": 1})

    # A skip run costs a flat marker, independent of the entries it
    # elides; a full entry costs the same next to one.
    marker = value_size((2, 0b1))
    assert wire_size(frame(entry, (2, 0b1))) \
        == wire_size(frame(entry)) + marker
    assert wire_size(frame((2, 0b1))) - wire_size(frame()) == marker


def test_interest_messages_have_wire_sizes():
    advert = InterestAdvert(shards_mask=0b101, seq=3, backfill=(0, 2))
    assert wire_size(advert) > wire_size(InterestAdvert(0b101, 3))
    backfill = ShardBackfill(shard=2, entries=(), upto=7)
    assert wire_size(backfill) > 0
    change = InterestChange("edge1",
                            add=((ObjectKey("b", "k"), "counter"),),
                            state_vector={})
    assert wire_size(change) > 0


# ----------------------------------------------------------------------
# InterestGraph: the interested-replica K-stability rule
# ----------------------------------------------------------------------
DC_IDS = ["dc0", "dc1", "dc2"]


def _graph():
    """dc0's graph over 4 shards at rf=1: shard ``s`` is homed on
    ``dc{s % 3}``, so dc0 serves shards 0 and 3."""
    return InterestGraph("dc0", ["dc1", "dc2"],
                         ShardMap(4, DC_IDS, replica_factor=1))


def _key_on_shard(shard, nth=0):
    """The ``nth`` key hashing to ``shard`` of the 4-shard space."""
    keys = (ObjectKey("docs", f"doc{i}") for i in range(1000))
    return [key for key in keys if shard_of(key, 4) == shard][nth]


def test_required_k_counts_only_interested_replicas():
    graph = _graph()
    dot = Dot(1, "edge1")
    # Shard 0 homed at dc0 only (rf=1): one interested replica, nothing
    # ships to or is held by the others.
    graph.note_entry(dot, "dc0", [_key_on_shard(0)], own_ts=7)
    assert graph.stream_mask(7) == 0b0001
    assert graph.required_k(dot, 3) == 1
    assert not graph.wants("dc1", 7) and not graph.peer_holds("dc1", dot)
    # A peer subscribing to shard 0 raises the threshold.
    graph.fold_advert("dc1", 0b0011, 1)
    assert graph.required_k(dot, 3) == 2
    assert graph.required_k(dot, 1) == 1
    assert graph.wants("dc1", 7) and graph.peer_holds("dc1", dot)
    assert not graph.wants("dc2", 7)


def test_required_k_always_counts_the_origin():
    graph = _graph()
    dot = Dot(2, "edge1")
    # Entry originated at dc1 touching a shard dc1 is not interested
    # in: the origin still holds its own log entry.
    graph.note_entry(dot, "dc1", [_key_on_shard(0)])
    assert graph.required_k(dot, 3) == 2
    assert graph.peer_holds("dc1", dot) and not graph.peer_holds("dc2", dot)


def test_required_k_everyone_interested_is_k_target():
    """The clamp applies only where pruning shrank the interested set:
    an entry every replica wants needs ``k_target`` as given, even one
    above the cluster size (it never stabilises, as under full
    replication)."""
    graph = _graph()
    dot = Dot(3, "edge1")
    graph.note_entry(dot, "dc0", [_key_on_shard(0)], own_ts=1)
    graph.fold_advert("dc1", 0b0011, 1)
    graph.fold_advert("dc2", 0b0101, 1)
    assert graph.required_k(dot, 3) == 3
    assert graph.required_k(dot, 5) == 5
    # One replica fewer and the clamp is back.
    graph.fold_advert("dc2", 0b0100, 2)
    assert graph.required_k(dot, 5) == 2


def test_required_k_metadata_entries_concern_everyone():
    graph = _graph()
    dot = Dot(4, "edge1")
    graph.note_entry(dot, "dc0", [], own_ts=1)
    assert graph.required_k(dot, 2) == 2
    assert graph.wants("dc1", 1) and graph.peer_holds("dc2", dot)


def test_required_k_unknown_dot_falls_back_to_k_target():
    assert _graph().required_k(Dot(99, "edgex"), 3) == 3


# ----------------------------------------------------------------------
# InterestGraph: full replication is the configuration nobody prunes in
# ----------------------------------------------------------------------
@pytest.mark.parametrize("shard_map", [None, ShardMap(4, DC_IDS)])
def test_nothing_prunes_without_a_pruning_map(shard_map):
    graph = InterestGraph("dc0", ["dc1", "dc2"], shard_map)
    key, dot = _key_on_shard(1), Dot(1, "edge1")
    assert not graph.prunes
    graph.note_entry(dot, "dc0", [key], own_ts=1)
    assert graph.stream_mask(1) == 0
    assert graph.wants("dc1", 1) and graph.peer_holds("dc1", dot)
    assert graph.required_k(dot, 3) == 3
    assert graph.advertised() == (None, 0)
    graph.retain([key])
    fires, adverts = graph.subscribe([key], lambda: None)
    assert len(fires) == 1 and not adverts
    assert graph.release([key]) == ((), ())
    # An unsolicited backfill answer finds nothing waiting.
    assert graph.backfilled(1, "dc1") == ([], [])


# ----------------------------------------------------------------------
# InterestGraph: adverts and subscriptions
# ----------------------------------------------------------------------
def test_stale_advert_is_ignored():
    graph = _graph()
    assert graph.fold_advert("dc1", 0b0111, 5)
    assert not graph.fold_advert("dc1", 0b0010, 4)     # reordered: older
    graph.note_entry(Dot(1, "e"), "dc0", [_key_on_shard(0)], own_ts=1)
    assert graph.wants("dc1", 1)
    assert not graph.fold_advert("dc1", 0b0111, 5)     # same seq: no change
    assert graph.fold_advert("dc1", 0b0010, 6)
    assert not graph.wants("dc1", 1)


def test_subscribe_owes_backfill_from_every_peer_until_answered():
    graph = _graph()
    key = _key_on_shard(1)              # homed on dc1: dc0 is not interested
    fired = []
    graph.retain([key])
    fires, adverts = graph.subscribe([key], lambda: fired.append("read"))
    assert not fires
    assert adverts == [InterestAdvert(0b1011, 1, (1,))]
    assert graph.advertised() == (0b1011, 1)
    # Every peer owes its own stream's share; that is the retry list.
    assert graph.owed("dc1") == graph.owed("dc2") == (1,)
    assert graph.pending_mask() == 0b0010
    assert graph.backfilled(1, "dc1") == ([], [])
    assert graph.owed("dc1") == () and graph.owed("dc2") == (1,)
    fires, adverts = graph.backfilled(1, "dc2")
    assert len(fires) == 1 and not adverts      # a session still refs it
    assert graph.owed("dc2") == () and graph.pending_mask() == 0
    # Caught up: the next read of the shard fires at once, no advert.
    fires, adverts = graph.subscribe([key], lambda: None)
    assert len(fires) == 1 and not adverts


def test_deferred_read_holds_its_shard_subscribed_until_it_fires():
    """The PR 7 churn bug: the last session lets go while a read still
    waits for the shard's backfill."""
    graph = _graph()
    key = _key_on_shard(1)
    graph.retain([key])
    graph.subscribe([key], lambda: None)
    # The session retracts before any backfill landed: the shard must
    # stay subscribed (no advert), or the read would run on a store
    # with pruned holes.
    assert graph.release([key]) == ((), [])
    assert graph.mask & 0b0010
    graph.backfilled(1, "dc1")
    fires, adverts = graph.backfilled(1, "dc2")
    # Now it fires — and only then is the shard let go.
    assert len(fires) == 1
    assert adverts == [InterestAdvert(0b1001, 2)]
    assert not graph.mask & 0b0010


def test_refcounted_release_advertises_exactly_once():
    graph = _graph()
    key, other = _key_on_shard(1), _key_on_shard(1, nth=1)
    graph.retain([key])
    graph.retain([other])
    graph.subscribe([key], lambda: None)
    graph.backfilled(1, "dc1")
    graph.backfilled(1, "dc2")
    assert graph.release([key]) == ((), [])             # one ref left
    assert graph.release([other]) == ((), [InterestAdvert(0b1001, 2)])
    assert graph.release([other]) == ((), [])           # already gone
    # Served shards are permanent interest.
    home = _key_on_shard(0)
    graph.retain([home])
    assert graph.release([home]) == ((), [])
    assert graph.mask == 0b1001


def test_audit_skip_asks_the_origin_once():
    graph = _graph()
    # A run eliding shards 0 (ours) and 1 (not ours) from dc1's stream:
    # only shard 0 was wrongly pruned.
    assert graph.audit_skip("dc1", 0b0011) == (0,)
    assert graph.owed("dc1") == (0,)
    assert graph.audit_skip("dc1", 0b0011) == ()        # already asked
    assert graph.audit_skip("dc2", 0b0010) == ()        # not interested


def test_only_a_mask_some_peer_does_not_serve_is_askable():
    # rf=2 over dc0..dc2: dc0 serves {0, 2, 3}, dc1 {0, 1, 3}, dc2
    # {1, 2} (shard s at the two DCs from s % 3 on): shard 1 is the one
    # both of dc0's peers serve.
    shard_map = ShardMap(4, ["dc0", "dc1", "dc2"], replica_factor=2)
    graph = InterestGraph("dc0", ["dc1", "dc2"], shard_map)
    shared = next(key for key in (ObjectKey("d", f"k{i}")
                                  for i in range(99))
                  if shard_map.shard_of(key) == 1)
    own = next(key for key in (ObjectKey("d", f"k{i}") for i in range(99))
               if shard_map.shard_of(key) == 0)
    graph.note_entry(Dot(1, "e"), "dc0", [shared], own_ts=1)
    graph.note_entry(Dot(2, "e"), "dc0", [own], own_ts=2)
    assert not graph.askable(1)       # every peer serves shard 1
    assert graph.askable(2)           # dc2 may subscribe to shard 0
    assert not graph.askable(3)       # no mask: nobody backfills it
    graph.forget(Dot(1, "e"), 1)
    assert graph.stream_mask(1) == 0
    assert graph.peer_holds("dc1", Dot(1, "e"))     # no record left
    # Nothing is askable where nothing is pruned.
    assert not InterestGraph("dc0", ["dc1"]).askable(1)
