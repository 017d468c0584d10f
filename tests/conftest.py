"""Shared test fixtures and helpers."""

import itertools

import pytest
from hypothesis import settings

from repro.core import ObjectKey
from repro.dc import DataCenter
from repro.edge import EdgeNode
from repro.sim import LAN, LatencyModel, Simulation

# ``--hypothesis-profile soak``: what the nightly job runs the codec
# fuzz and oracle files under.  Tests that pin ``max_examples`` keep it.
settings.register_profile("soak", max_examples=2_000, deadline=None)

_TAGS = itertools.count(1)


def tag(counter=None, origin="t", index=0):
    """A unique, totally ordered CRDT operation tag."""
    if counter is None:
        counter = next(_TAGS)
    return (counter, origin, index)


def apply_op(crdt, method, *args, origin="t", counter=None):
    """Prepare + tag + apply an operation at the source replica."""
    op = crdt.prepare(method, *args).with_tag(tag(counter, origin))
    crdt.apply(op)
    return op


@pytest.fixture
def sim():
    return Simulation(seed=7, default_latency=LatencyModel(5.0))


@pytest.fixture
def key():
    return ObjectKey("bucket", "obj")


def build_cluster(sim, n_dcs=1, k_target=1, n_shards=2):
    """Spawn a DC mesh with fast inter-DC links."""
    dc_ids = [f"dc{i}" for i in range(n_dcs)]
    dcs = []
    for dc_id in dc_ids:
        dc = sim.spawn(DataCenter, dc_id,
                       peer_dcs=[d for d in dc_ids if d != dc_id],
                       n_shards=n_shards, k_target=k_target)
        dcs.append(dc)
        for shard in dc.shard_ids:
            sim.network.set_link(dc_id, shard, LAN)
    for a in dc_ids:
        for b in dc_ids:
            if a < b:
                sim.network.set_link(a, b, LatencyModel(5.0))
    return dcs


def build_edge(sim, node_id, dc_id="dc0", interest=(), latency=None):
    """Spawn and connect an edge node with a declared interest set."""
    node = sim.spawn(EdgeNode, node_id, dc_id=dc_id)
    if latency is not None:
        sim.network.set_link(node_id, dc_id, latency)
    for obj_key, type_name in interest:
        node.declare_interest(obj_key, type_name)
    node.connect()
    return node


def run_update(node, obj_key, type_name, method, *args):
    """Commit a one-update transaction at an edge node."""
    results = []

    def body(tx):
        yield tx.update(obj_key, type_name, method, *args)

    node.run_transaction(body, on_done=lambda r, s: results.append(s))
    return results


def read_at(node, obj_key, type_name):
    return node.read_value(obj_key, type_name)


def timer_entries(sim, node):
    """The event-loop entries whose callback belongs to ``node``."""
    loop = sim.loop
    entries = list(loop._heap) + list(loop._ready) \
        + [entry for slot in loop._wheel for entry in slot]

    def owned(callback):
        if getattr(callback, "__self__", None) is node \
                or getattr(callback, "actor", None) is node:
            return True
        return any(cell.cell_contents is node
                   for cell in getattr(callback, "__closure__", None) or ())
    return [entry for entry in entries if owned(entry[2])]
