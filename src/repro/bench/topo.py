"""Shared benchmark topologies: the DC-backed peer group.

Every commit ablation drives the same world — one DC, an n-member peer
group interested in a hot key plus one private key per member.  This
module describes it as a :class:`~repro.serve.topology.Topology` and
has ``build_sim_world`` build it; the ``sites`` knob stretches the group
across locations (same-site pairs on LAN, cross-site pairs 15 ms apart),
which is the geo-distributed shape the deadline fast path is measured
on.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional, Sequence

from ..core.txn import ObjectKey
from ..dc.datacenter import DataCenter
from ..groups.peergroup import GroupMember
from ..serve.builder import build_sim_world
from ..serve.topology import Site, Topology
from ..serve.workload import READ, Op, run_op
from ..sim.network import CELLULAR, LatencyModel
from ..sim.runtime import Simulation

#: Metro-to-metro latency between two locations of a stretched group.
CROSS_SITE = LatencyModel(15.0, 2.0)


@dataclass
class GroupBench:
    """A warmed peer-group world, statistics cleared, ready to measure."""

    sim: Simulation
    dc: DataCenter
    members: List[GroupMember]
    hot: ObjectKey
    cold_keys: List[ObjectKey]

    def clear_stats(self) -> None:
        for member in self.members:
            member.txn_stats.clear()


def build_group_bench(variant: str = "async", n_members: int = 5,
                      seed: int = 23, *,
                      sites: Optional[Sequence[int]] = None) -> GroupBench:
    """One DC plus an ``n_members`` peer group, formed, warmed, cleared.

    ``sites[i]`` assigns member ``i`` to a location: same-site pairs get
    a LAN link, cross-site pairs get ``CROSS_SITE``.  Without ``sites``
    every pair is on LAN.  The group's uplink is cellular.
    """
    hot = ObjectKey("bench", "hot")
    cold_keys = [ObjectKey("bench", f"cold{i}")
                 for i in range(n_members)]
    links = {("m0", "dc0"): CELLULAR}
    if sites is not None:
        links.update({(f"m{a}", f"m{b}"): CROSS_SITE
                      for a in range(n_members) for b in range(a)
                      if sites[a] != sites[b]})
    topo = Topology(
        "group-bench", seed,
        [Site("dc0", "dc", n_shards=1)]
        + [Site(f"m{i}", "member", dc="dc0", group="g", parent="m0",
                commit_variant=variant) for i in range(n_members)],
        [(key, "counter") for key in [hot] + cold_keys], links=links)
    world = build_sim_world(topo)
    sim = world.sim
    members = [world.actors[f"m{i}"] for i in range(n_members)]
    sim.run_for(1000.0 - sim.now)   # one second of settling in all
    # Warm every cache (one touch per key per member), then discard the
    # warm-up statistics: the ablations measure steady-state commits.
    for member in members:
        for key in [hot] + cold_keys:
            run_op(member, Op(0.0, member.node_id, key, "counter", READ))
    sim.run_for(2000.0)
    bench = GroupBench(sim, world.actors["dc0"], members, hot, cold_keys)
    bench.clear_stats()
    return bench
