"""Deployment harness: build the paper's experimental topologies.

Three system configurations (paper section 7.3):

* ``"antidote"`` — geo-replicated AntidoteDB/Cure: clients have no cache
  and execute every transaction with a round trip to a DC;
* ``"swiftcloud"`` — clients keep a local cache and talk directly to a
  remote DC (no peer groups);
* ``"colony"``   — clients additionally form peer groups with a
  collaborative cache and a sync point.

Latencies follow section 7.2: 0.15 ms inside a cluster/peer group, 10 ms
carrier Ethernet (DC-DC), 50 ms mobile cellular (client-DC).
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple

from ..api.client import Connection
from ..chat.app import ChatApp
from ..dc.datacenter import DataCenter
from ..edge.cloud_client import CloudClient
from ..edge.node import EdgeNode, TxnStats
from ..groups.peergroup import GroupMember, form_group
from ..serve.builder import build_sim_world
from ..serve.topology import Site, Topology
from ..sim.network import CELLULAR, ETHERNET, LAN, LatencyModel
from ..sim.runtime import Simulation
from ..workload.trace import MattermostTrace

MODES = ("antidote", "swiftcloud", "colony")


@dataclass
class DeploymentConfig:
    mode: str = "colony"
    n_dcs: int = 1
    n_clients: int = 12
    group_size: int = 12            # colony mode only
    k_target: Optional[int] = None  # default: min(2, n_dcs)
    n_shards: int = 2
    commit_variant: str = "async"
    cache_coverage: float = 0.9     # fraction of own channels cached
    bounded_cache: bool = True      # LRU-cap caches at the declared size
    service_time_ms: Optional[float] = None  # DC request CPU cost
    client_latency: LatencyModel = field(default_factory=lambda: CELLULAR)
    dc_latency: LatencyModel = field(default_factory=lambda: ETHERNET)
    group_latency: LatencyModel = field(default_factory=lambda: LAN)
    seed: int = 7

    def resolved_k(self) -> int:
        if self.k_target is not None:
            return self.k_target
        return min(2, self.n_dcs)


class Deployment:
    """A built simulation: DCs, clients, per-user chat apps."""

    def __init__(self, config: DeploymentConfig, trace: MattermostTrace):
        if config.mode not in MODES:
            raise ValueError(f"unknown mode {config.mode!r}")
        self.config = config
        self.trace = trace
        self.sim = Simulation(seed=config.seed,
                              default_latency=config.client_latency)
        self.dcs: List[DataCenter] = []
        self.clients: List[Tuple[str, object, ChatApp]] = []
        self.groups: List[List[GroupMember]] = []
        self._build()

    # -- construction ---------------------------------------------------------
    def _build(self) -> None:
        cfg = self.config
        dc_ids = [f"dc{i}" for i in range(cfg.n_dcs)]
        # The core cloud is a topology of DCs only; the client side
        # below declares its interest through ChatApp, from the trace.
        mesh = Topology(
            "deployment", cfg.seed,
            [Site(d, "dc", n_shards=cfg.n_shards,
                  k_target=cfg.resolved_k()) for d in dc_ids], [],
            links={(a, b): cfg.dc_latency for a in dc_ids
                   for b in dc_ids if a < b})
        self.dcs = build_sim_world(mesh, self.sim).dcs
        if cfg.service_time_ms is not None:
            for dc in self.dcs:
                dc.service_time_ms = cfg.service_time_ms

        users = self.trace.users[:cfg.n_clients]
        if cfg.mode == "antidote":
            self._build_cloud_clients(users, dc_ids)
        elif cfg.mode == "swiftcloud":
            self._build_edge_clients(users, dc_ids)
        else:
            self._build_groups(users, dc_ids)

    def _client_interest(self, app: ChatApp, user: str,
                         rng: random.Random,
                         node: Optional[EdgeNode] = None,
                         bound: bool = True) -> None:
        """Warm the cache with ~cache_coverage of the user's channels.

        With ``bounded_cache`` the LRU capacity is pinned to the declared
        size: later fetches of cold objects evict resident ones, which
        sustains the paper's steady-state hit ratio (~90%, section 7.3)
        instead of the cache monotonically absorbing the whole database.
        """
        for workspace in self.trace.user_workspaces[user]:
            channels = self.trace.channels[workspace]
            keep = [c for c in channels
                    if rng.random() < self.config.cache_coverage]
            app.open_workspace(workspace, keep)
        if node is not None and bound and self.config.bounded_cache:
            # Capacity below the working set: the LRU keeps churning, so
            # roughly a (1 - coverage) fraction of channel reads miss in
            # steady state (the paper's ~90% hit ratio, section 7.3).
            n_channels = sum(len(self.trace.channels[ws])
                             for ws in self.trace.user_workspaces[user])
            node.cache.capacity = 4 + max(
                1, int(self.config.cache_coverage * n_channels))

    def _build_cloud_clients(self, users: List[str],
                             dc_ids: List[str]) -> None:
        for index, user in enumerate(users):
            dc_id = dc_ids[index % len(dc_ids)]
            node_id = f"client/{user}"
            node = self.sim.spawn(CloudClient, node_id, dc_id=dc_id,
                                  user=user)
            self.sim.network.set_link(node_id, dc_id,
                                      self.config.client_latency)
            app = ChatApp(Connection(node), user)
            self.clients.append((user, node, app))

    def _build_edge_clients(self, users: List[str],
                            dc_ids: List[str]) -> None:
        rng = random.Random(self.config.seed * 31 + 1)
        for index, user in enumerate(users):
            self.clients.append(self.spawn_edge_client(
                f"edge/{user}", user, dc_ids[index % len(dc_ids)], rng))

    def spawn_edge_client(self, node_id: str, user: str, dc_id: str,
                          rng: random.Random, bound: bool = True) \
            -> Tuple[str, EdgeNode, ChatApp]:
        """A connected solo edge client with a warmed interest set."""
        node = self.sim.spawn(EdgeNode, node_id, dc_id=dc_id, user=user)
        self.sim.network.set_link(node_id, dc_id,
                                  self.config.client_latency)
        app = ChatApp(Connection(node), user)
        self._client_interest(app, user, rng, node=node, bound=bound)
        node.connect()
        return user, node, app

    def spawn_member(self, node_id: str, user: str,
                     peers: List[GroupMember], dc_id: str,
                     group_id: str, parent_id: str) \
            -> Tuple[GroupMember, ChatApp]:
        """A group member on fast links to ``peers``, interest unset."""
        node = self.sim.spawn(
            GroupMember, node_id, dc_id=dc_id, group_id=group_id,
            parent_id=parent_id,
            commit_variant=self.config.commit_variant, user=user)
        for peer in peers:
            self.sim.network.set_link(node_id, peer.node_id,
                                      self.config.group_latency)
        return node, ChatApp(Connection(node), user)

    def _build_groups(self, users: List[str], dc_ids: List[str]) -> None:
        cfg = self.config
        rng = random.Random(cfg.seed * 31 + 2)
        for group_index in range(0, len(users), cfg.group_size):
            chunk = users[group_index:group_index + cfg.group_size]
            dc_id = dc_ids[(group_index // cfg.group_size) % len(dc_ids)]
            group_id = f"group{group_index // cfg.group_size}"
            members: List[GroupMember] = []
            parent_id = f"peer/{chunk[0]}"
            for user in chunk:
                node, app = self.spawn_member(
                    f"peer/{user}", user, members, dc_id, group_id,
                    parent_id)
                # Parents act as the group's PoP-class cache: unbounded.
                self._client_interest(app, user, rng, node=node,
                                      bound=(node.node_id != parent_id))
                members.append(node)
                self.clients.append((user, node, app))
            # Cellular from the parent to its DC.
            self.sim.network.set_link(parent_id, dc_id,
                                      self.config.client_latency)
            form_group(members)
            self.groups.append(members)

    # -- operation -----------------------------------------------------------------
    def warm_up(self, duration_ms: float = 2000.0) -> None:
        """Let sessions open and caches seed."""
        self.sim.run_for(duration_ms)

    def all_stats(self) -> List[TxnStats]:
        out: List[TxnStats] = []
        for _user, node, _app in self.clients:
            out.extend(node.txn_stats)
        return out

    def apps_by_user(self) -> Dict[str, ChatApp]:
        return {user: app for user, _node, app in self.clients}
