"""Topology descriptions: the cloud role, and checks in linear time."""

import time
from types import SimpleNamespace

import pytest

from repro.core import ObjectKey
from repro.edge.cloud_client import CloudClient
from repro.serve.builder import (_role_links, build_sim_world, build_site,
                                 settle_order)
from repro.serve.topology import Site, Topology, parse_topology


def _document(*sites):
    return {"keys": [{"bucket": "app", "key": "c0"}],
            "sites": [{"name": "dc0", "role": "dc",
                       "listen": "127.0.0.1:0"}]
            + [{"name": name, "role": role, "listen": "127.0.0.1:0",
                "dc": "dc0"} for name, role in sites]}


class RecordingCloud(CloudClient):
    """A cloud client that records any session or interest call."""

    calls: list = []

    def connect(self):
        self.calls.append("connect")

    def declare_interest(self, key, type_name):
        self.calls.append(("declare_interest", key))


class TestCloudRole:
    def test_parse_accepts_cloud(self):
        topo = parse_topology(_document(("c0", "cloud")))
        assert topo.by_name["c0"].role == "cloud"
        assert topo.clients == []

    def test_unknown_role_is_named(self):
        with pytest.raises(ValueError, match="'satellite'"):
            parse_topology(_document(("s0", "satellite")))
        topo = Topology("t", 0, [Site("dc0", "dc"),
                                 Site("s0", "satellite", dc="dc0")], [])
        with pytest.raises(ValueError, match="'satellite'"):
            build_site(None, topo, topo.by_name["s0"])

    def test_built_with_no_session_and_no_interest(self):
        RecordingCloud.calls = []
        topo = parse_topology(_document(("c0", "cloud"), ("e0", "edge")))
        assert [s.name for s in sum(settle_order(topo), [])] == ["e0"]
        world = build_sim_world(topo, actor_cls={"c0": RecordingCloud})
        cloud, dc = world.actors["c0"], world.actors["dc0"]
        assert isinstance(cloud, RecordingCloud)
        assert RecordingCloud.calls == []
        assert "c0" not in dc.sessions and "e0" in dc.sessions
        # Every transaction is a round trip to the DC.
        key = ObjectKey("app", "c0")
        cloud.execute(updates=[(key, "counter", "increment", (2,))])
        world.sim.run_for(500.0)
        assert [s.served_by for s in cloud.txn_stats] == ["dc"]
        assert dc.state_digest()[key] == 2
        assert cloud.state_digest() == {}


@pytest.mark.parametrize("type_name", ["rga", "orsett"])
def test_key_of_a_type_the_workload_cannot_update_is_named(type_name):
    document = _document(("e0", "edge"))
    document["keys"].append({"bucket": "app", "key": "doc",
                             "type": type_name})
    with pytest.raises(ValueError, match=f"app/doc: type '{type_name}'"):
        parse_topology(document)


def test_checks_and_links_take_linear_time():
    """2·10^4 edge sites and 40 groups of 5: validation and the role
    links are one pass each, not a scan of every site per site."""
    n_edges, n_groups = 20_000, 40
    dc_ids = ["dc0", "dc1"]
    keys = [(ObjectKey("scale", f"own{i}"), "counter")
            for i in range(n_edges)]
    sites = [Site(d, "dc") for d in dc_ids]
    sites += [Site(f"n{i}", "edge", dc=dc_ids[i % 2], keys=[keys[i]])
              for i in range(n_edges)]
    sites += [Site(f"g{g}m{m}", "member", dc="dc0", group=f"g{g}",
                   parent=f"g{g}m0", keys=[keys[g]])
              for g in range(n_groups) for m in range(5)]
    actors = {d: SimpleNamespace(shard_ids=[f"{d}/shard0"])
              for d in dc_ids}
    start = time.perf_counter()
    topo = Topology("wide", 0, sites, keys)
    links = list(_role_links(topo, actors))
    elapsed = time.perf_counter() - start
    # Shards, the mesh, one uplink per edge and per parent, and the
    # ten LAN pairs of each group.
    assert len(links) == 2 + 1 + n_edges + n_groups * (1 + 10)
    assert [s.name for s in topo.members_of("g3")] == \
        [f"g3m{m}" for m in range(5)]
    assert elapsed < 1.0, f"{elapsed:.2f} s"
