"""Chat worlds: the paper's experimental configurations as topologies.

Three system configurations (paper section 7.3):

* ``"antidote"`` — geo-replicated AntidoteDB/Cure: clients have no cache
  and execute every transaction with a round trip to a DC;
* ``"swiftcloud"`` — clients keep a local cache and talk directly to a
  remote DC (no peer groups);
* ``"colony"``   — clients additionally form peer groups with a
  collaborative cache and a sync point.

:func:`chat_topology` describes one of them over a Mattermost trace as a
:class:`~repro.serve.topology.Topology`; :func:`build_chat_world` has
``build_sim_world`` build it, with each client paired with its trace user.
Latencies follow section 7.2: the builder's role rule gives 0.15 ms
inside a cluster/peer group and 50 ms mobile cellular from a client to
its DC; the topology sets 10 ms carrier Ethernet between DCs, and
cellular on a group parent's uplink (a relay's role default is
Ethernet).
"""

from __future__ import annotations

import random
from typing import Any, List, Tuple

from ..chat.model import workspace_objects
from ..edge.node import TxnStats
from ..groups.peergroup import GroupMember
from ..serve.builder import SimWorld, build_sim_world
from ..serve.topology import Key, Site, Topology
from ..sim.network import CELLULAR, ETHERNET
from ..workload.trace import MattermostTrace

MODES = ("antidote", "swiftcloud", "colony")

#: Users per Colony peer group; the first one is the group's parent.
GROUP_SIZE = 12


def _chat_keys(trace: MattermostTrace, user: str, rng: random.Random,
               coverage: float) -> List[Key]:
    """The objects the user caches: ~``coverage`` of its channels."""
    keys: List[Key] = []
    for workspace in trace.user_workspaces[user]:
        keep = [c for c in trace.channels[workspace]
                if rng.random() < coverage]
        keys += [(handle.key, handle.TYPE_NAME)
                 for handle in workspace_objects(workspace, user, keep)]
    return keys


def chat_topology(mode: str, n_dcs: int, trace: MattermostTrace,
                  n_clients: int, n_solo: int = 0,
                  cache_coverage: float = 0.9, seed: int = 7) -> Topology:
    """The first ``n_clients`` trace users in ``mode``, then ``n_solo``
    more as solo edge clients (cached, no group), over ``n_dcs`` DCs."""
    if mode not in MODES:
        raise ValueError(f"unknown mode {mode!r}")
    dc_ids = [f"dc{i}" for i in range(n_dcs)]
    sites = [Site(d, "dc", n_shards=2, k_target=min(2, n_dcs))
             for d in dc_ids]
    links = {(a, b): ETHERNET for a in dc_ids for b in dc_ids if a < b}
    users = trace.users[:n_clients]
    if mode == "antidote":
        sites += [Site(f"client/{user}", "cloud", dc=dc_ids[i % n_dcs],
                       keys=[]) for i, user in enumerate(users)]
    elif mode == "swiftcloud":
        rng = random.Random(seed * 31 + 1)
        sites += [Site(f"edge/{user}", "edge", dc=dc_ids[i % n_dcs],
                       keys=_chat_keys(trace, user, rng, cache_coverage))
                  for i, user in enumerate(users)]
    else:
        rng = random.Random(seed * 31 + 2)
        for i, user in enumerate(users):
            group = i // GROUP_SIZE
            dc = dc_ids[group % n_dcs]
            parent = f"peer/{users[group * GROUP_SIZE]}"
            sites.append(Site(
                f"peer/{user}", "member", dc=dc, group=f"group{group}",
                parent=parent,
                keys=_chat_keys(trace, user, rng, cache_coverage)))
            # The sync point reaches its DC over cellular.
            links[(parent, dc)] = CELLULAR
    rng = random.Random(seed * 131)
    solo = trace.users[n_clients:n_clients + n_solo]
    sites += [Site(f"solo/{user}", "edge", dc=dc_ids[i % n_dcs],
                   keys=_chat_keys(trace, user, rng, cache_coverage))
              for i, user in enumerate(solo)]
    keys = list(dict.fromkeys(key for site in sites
                              for key in site.keys or ()))
    return Topology(f"chat-{mode}", seed, sites, keys, links=links)


def _user(site: Site) -> str:
    return site.name.partition("/")[2]


class ChatWorld:
    """A built chat world: the simulation, its DCs, its clients.

    ``clients`` and ``solo`` are ``(user, actor)`` in listing order: the
    ``n_clients`` users of the mode, then the solo edge users.
    """

    def __init__(self, world: SimWorld, trace: MattermostTrace,
                 n_clients: int, cache_coverage: float):
        self.world = world
        self.sim = world.sim
        self.dcs = world.dcs
        self.trace = trace
        population = [s for s in world.topo.sites if s.role != "dc"]
        mode_sites = population[:len(trace.users[:n_clients])]
        self.clients = [self._client(s) for s in mode_sites]
        self.solo = [self._client(s)
                     for s in population[len(mode_sites):]]
        # Caches are LRU-capped below the working set, so the LRU keeps
        # churning and roughly a (1 - coverage) fraction of channel reads
        # miss in steady state (the paper's ~90% hit ratio, section 7.3)
        # instead of the cache absorbing the whole database.  A parent
        # is the group's PoP-class cache, and a solo user keeps all it
        # holds: both are unbounded.
        for site in mode_sites:
            if site.role == "edge" or (site.role == "member"
                                       and site.name != site.parent):
                n_channels = sum(len(trace.channels[workspace])
                                 for workspace
                                 in trace.user_workspaces[_user(site)])
                world.actors[site.name].cache.capacity = 4 + max(
                    1, int(cache_coverage * n_channels))

    def _client(self, site: Site) -> Tuple[str, Any]:
        return _user(site), self.world.actors[site.name]

    @property
    def groups(self) -> List[List[GroupMember]]:
        """Each peer group's members, parent first."""
        topo = self.world.topo
        names = dict.fromkeys(s.group for s in topo.sites
                              if s.role == "member")
        return [[self.world.actors[s.name] for s in topo.members_of(g)]
                for g in names]

    def warm_up(self, until_ms: float = 2000.0) -> None:
        """Let sessions open and caches seed until ``until_ms``."""
        self.sim.run_for(max(0.0, until_ms - self.sim.now))

    def users(self) -> List[Tuple[str, Any]]:
        """Every ``(user, actor)`` pair, the closed loop's clients."""
        return self.clients + self.solo

    def all_stats(self) -> List[TxnStats]:
        return [s for _user, node in self.users() for s in node.txn_stats]


def build_chat_world(mode: str, n_dcs: int, trace: MattermostTrace,
                     n_clients: int, n_solo: int = 0,
                     cache_coverage: float = 0.9,
                     seed: int = 7) -> ChatWorld:
    """:func:`chat_topology`, built into a settled simulation."""
    topo = chat_topology(mode, n_dcs, trace, n_clients, n_solo,
                         cache_coverage, seed)
    return ChatWorld(build_sim_world(topo), trace, n_clients,
                     cache_coverage)
