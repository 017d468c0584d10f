"""Build topology sites on either transport backend.

A :class:`~repro.serve.topology.Topology` is the one description of a
multi-actor world; this module is the one place that turns it into
actors:

* the live path builds *one* site per process over an
  :class:`~repro.transport.asyncio_backend.AsyncioTransport`
  (:func:`build_site`, :func:`bootstrap_group`);
* :func:`build_sim_world` builds *every* site into one
  :class:`~repro.sim.runtime.Simulation`, sets the links and settles
  the tree — the serve reference run, the chaos topologies, the obs
  workload and the bench worlds all come through it.

Links take their latency from the roles at their ends (the paper's
section 7.2 classes, :func:`_role_links`); ``Topology.links`` overrides
single pairs, and a pair neither names is on the simulation's default.

Group bootstrap is config-driven rather than object-driven: every
member derives the roster from the topology and calls ``init_group``
locally, and the parent absorbs each member's interest set from the
topology — the cross-process equivalent of
``repro.groups.peergroup.form_group``, which reaches into all member
objects directly and therefore only works inside one process.
"""

from __future__ import annotations

from dataclasses import replace
from functools import partial
from typing import Any, Dict, Iterator, List, Mapping, Optional, Tuple

from ..dc.datacenter import DataCenter
from ..edge.cloud_client import CloudClient
from ..edge.node import EdgeNode
from ..edge.pop import PoPNode
from ..groups.peergroup import GroupMember
from ..sim.network import CELLULAR, ETHERNET, LAN, LatencyModel
from ..sim.runtime import Simulation
from .topology import Site, Topology
from .workload import Op, canonical_digest, expected_state, run_op

#: Core-cloud mesh latency (paper section 7.2 geo-distribution stand-in).
DC_MESH = LatencyModel(5.0, 1.0)

#: How long each settle phase of :func:`build_sim_world` runs.
CONNECT_SETTLE_MS = 300.0
GROUP_SETTLE_MS = 500.0


def build_site(transport: Any, topo: Topology, site: Site,
               cls: Optional[type] = None) -> Any:
    """Construct one site's protocol actor over ``transport``.

    Returns the site's principal actor (the DC, PoP, edge node, group
    member or cache-less cloud client).  Interest declaration happens
    here; ``connect()`` and group
    bootstrap are the caller's job so the sim path can interleave
    settling phases.  ``cls`` substitutes the role's actor class (a test
    double with the same constructor).
    """
    if site.role == "dc":
        peer_ids = [s.name for s in topo.dcs if s.name != site.name]
        return (cls or DataCenter)(
            site.name, transport, None, peer_dcs=peer_ids,
            n_shards=site.n_shards, k_target=site.k_target)
    if site.role == "pop":
        return (cls or PoPNode)(site.name, transport, None,
                                dc_id=site.dc)
    if site.role == "cloud":
        return (cls or CloudClient)(site.name, transport, None,
                                    dc_id=site.dc)
    if site.role == "edge":
        node = (cls or EdgeNode)(site.name, transport, None,
                                 dc_id=site.dc)
    elif site.role == "member":
        node = (cls or GroupMember)(
            site.name, transport, None, dc_id=site.dc,
            group_id=site.group, parent_id=site.parent,
            commit_variant=site.commit_variant)
    else:
        raise ValueError(f"unknown role {site.role!r}")
    for key, type_name in topo.keys_of(site):
        node.declare_interest(key, type_name)
    return node


def bootstrap_group(topo: Topology, member: GroupMember) -> None:
    """Config-driven group formation for one member.

    Every member installs the same roster; the parent additionally
    absorbs each member's interest (the keys the topology gives it) and
    opens the group's DC session.
    """
    sites = sorted(topo.members_of(member.group_id),
                   key=lambda s: s.name)
    member.init_group(tuple(s.name for s in sites))
    if member.is_parent:
        for site in sites:
            member._absorb_interest(site.name, topo.keys_of(site))
        member.connect()


# ---------------------------------------------------------------------------
# the simulated world
# ---------------------------------------------------------------------------

class SimWorld:
    """Every topology site inside one simulation."""

    def __init__(self, topo: Topology, sim: Simulation,
                 actors: Dict[str, Any]):
        self.topo = topo
        self.sim = sim
        self.actors = actors
        self.committed = 0
        self.aborted = 0

    @property
    def dcs(self) -> List[DataCenter]:
        return [self.actors[s.name] for s in self.topo.dcs]


#: Uplink class by role: a relay (a PoP, a group's parent) is on carrier
#: Ethernet, a plain edge or cloud client on cellular.
UPLINK = {"pop": ETHERNET, "member": ETHERNET, "edge": CELLULAR,
          "cloud": CELLULAR}


def _role_links(topo: Topology, actors: Mapping[str, Any]) \
        -> Iterator[Tuple[str, str, LatencyModel]]:
    """The links the roles imply: LAN inside a DC and inside a group,
    ``DC_MESH`` between DCs, ``UPLINK`` from whoever holds a session."""
    dcs = topo.dcs
    for site in topo.sites:
        if site.role == "dc":
            for shard in actors[site.name].shard_ids:
                yield site.name, shard, LAN
            peers, mesh = dcs, DC_MESH
        else:
            peers, mesh = topo.members_of(site.group), LAN
            if site.role != "member" or site.name == site.parent:
                yield site.name, site.dc, UPLINK[site.role]
        for peer in peers:
            if peer.name < site.name:
                yield peer.name, site.name, mesh


def settle_order(topo: Topology) -> Tuple[List[Site], List[Site]]:
    """Who joins in which settle phase, derived from the tree.

    First the sites whose upstream is a DC open their sessions; once
    those are up, the sites below a relay connect and the groups form,
    so a PoP's children are seeded from a PoP that already has a
    session, whatever order the sites are listed in.  A cloud client
    opens no session, so it is in neither phase.
    """
    direct, below = [], []
    for site in topo.sites:
        if site.role in ("dc", "cloud"):
            continue
        relayed = topo.by_name[site.dc].role == "pop"
        (below if relayed or site.role == "member" else direct) \
            .append(site)
    return direct, below


def build_sim_world(topo: Topology, sim: Optional[Simulation] = None,
                    actor_cls: Optional[Mapping[str, type]] = None) \
        -> SimWorld:
    """Build the whole topology into a warmed-up simulation.

    ``sim`` is the simulation to build into (default: a fresh one seeded
    from the topology, CELLULAR between unlinked pairs).  ``actor_cls``
    maps a site name to the class to build it from instead of its
    role's — the seam the chaos self-check plants its buggy double
    through.  A settle phase nobody joins takes no simulated time.
    """
    if sim is None:
        sim = Simulation(seed=topo.seed, default_latency=CELLULAR)
    transport = sim.network.transport_view(sim.loop)
    actor_cls = actor_cls or {}
    actors: Dict[str, Any] = {}
    # DCs first, whatever the listing order: sessions need them up.
    for site in sorted(topo.sites, key=lambda s: s.role != "dc"):
        actors[site.name] = sim.actors[site.name] = build_site(
            transport, topo, site, actor_cls.get(site.name))
    for a, b, model in _role_links(topo, actors):
        sim.network.set_link(a, b, model)
    for (a, b), model in topo.links.items():
        sim.network.set_link(a, b, model)

    for sites, settle_ms in zip(settle_order(topo),
                                (CONNECT_SETTLE_MS, GROUP_SETTLE_MS)):
        for site in sites:
            if site.role == "member":
                bootstrap_group(topo, actors[site.name])
            else:
                actors[site.name].connect()
        if sites:
            sim.run_for(settle_ms)
    return SimWorld(topo, sim, actors)


def add_site(world: SimWorld, site: Site) -> Any:
    """Build one more site into a running world (a late joiner).

    The site is built on the world's transport and linked to the sites
    already there by the role rule; connecting or joining its group is
    the caller's job.
    """
    topo = replace(world.topo, sites=world.topo.sites + [site])
    sim = world.sim
    actor = world.actors[site.name] = sim.actors[site.name] = build_site(
        sim.network.transport_view(sim.loop), topo, site)
    for a, b, model in _role_links(topo, world.actors):
        if site.name in (a, b):
            sim.network.set_link(a, b, model)
    world.topo = topo
    return actor


def schedule_ops(world: SimWorld, ops: List[Op]) -> None:
    """Schedule ``ops`` on their clients, offsets counted from now."""
    start = world.sim.now

    def done(result, stats):
        world.committed += 1

    def abort(exc):
        world.aborted += 1

    for op in ops:
        world.sim.loop.schedule_at(
            start + op.at_ms,
            partial(run_op, world.actors[op.client], op, done, abort))


def run_reference(topo: Topology,
                  ops: Optional[List[Op]] = None) -> Dict[str, Any]:
    """Run the topology's workload under the DES to convergence.

    Returns the canonical digest every DC agreed on, plus whether the
    run converged to the analytic expectation of the op list.
    """
    if ops is None:
        ops = topo.workload()
    world = build_sim_world(topo)
    schedule_ops(world, ops)
    world.sim.run_for(topo.window_ms)

    expect_digest = canonical_digest(expected_state(topo.keys, ops))
    converged = False
    waited = 0.0
    step = 500.0
    while waited <= topo.settle_max_ms:
        digests = {canonical_digest(dc.state_digest())
                   for dc in world.dcs}
        if len(digests) == 1 and digests == {expect_digest}:
            converged = True
            break
        world.sim.run_for(step)
        waited += step
    digests = sorted(canonical_digest(dc.state_digest())
                     for dc in world.dcs)
    return {
        "digest": digests[0] if len(set(digests)) == 1 else None,
        "dc_digests": digests,
        "expected_digest": expect_digest,
        "converged": converged,
        "committed": world.committed,
        "aborted": world.aborted,
        "ops": len(ops),
        "settle_ms": waited,
    }
