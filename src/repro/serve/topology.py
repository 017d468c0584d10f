"""TOML topology files for live deployments.

A topology describes the deployment the way the paper's Figure 1 does:
sites, their roles, who connects to whom — plus the seeded workload the
deployment is driven with.  Example::

    [deployment]
    name = "serve-3dc"
    seed = 0

    [workload]
    n_txns = 18
    window_ms = 2000.0

    [[keys]]
    bucket = "app"
    key = "c0"
    type = "counter"      # or "orset": the two the workload updates

    [[sites]]
    name = "dc0"
    role = "dc"
    listen = "127.0.0.1:7450"
    n_shards = 2
    k_target = 2

    [[sites]]
    name = "m0"
    role = "member"
    listen = "127.0.0.1:7453"
    dc = "dc0"
    group = "g"
    parent = "m0"
    commit_variant = "async"

    [[sites]]
    name = "far"
    role = "edge"
    listen = "127.0.0.1:7456"
    dc = "dc1"

    [supervisor]
    listen = "127.0.0.1:7459"

Every ``dc`` site automatically peers with every other ``dc`` site (the
paper's core-cloud mesh).  ``member`` sites sharing a ``group`` form one
peer group; the ``parent`` member opens the group's DC session.  Edge
and member sites declare interest in every listed key — or only in
their own ``keys = ["app/c0"]`` subset — and issue the workload's
transactions unless ``client = false``.

Simulated links take their latency from the roles at their ends (see
``repro.serve.builder``); a ``[[links]]`` entry (``a``, ``b``,
``base_ms``, ``jitter_ms``) overrides one pair.

The same value describes every simulated world in ``src/`` — the chaos
topologies, the obs and bench worlds build a :class:`Topology` directly
— so a description that names a site that does not exist is rejected
here, for all of them, rather than dropping messages at run time.
"""

from __future__ import annotations

import tomllib
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Set, Tuple

from ..core.txn import ObjectKey
from ..groups.peergroup import COMMIT_VARIANTS
from ..sim.network import LatencyModel
from .workload import Op, generate_ops

ROLES = ("dc", "pop", "edge", "member", "cloud")
#: The ``[[keys]]`` types ``generate_ops`` has an update for.
KEY_TYPES = ("counter", "orset")

Key = Tuple[ObjectKey, str]


@dataclass
class Site:
    name: str
    role: str
    host: str = "127.0.0.1"
    port: int = 0
    dc: Optional[str] = None          # upstream (edge/member/pop roles)
    group: Optional[str] = None       # member role
    parent: Optional[str] = None      # member role
    commit_variant: str = "async"
    n_shards: int = 2
    k_target: int = 1
    client: bool = True               # issues workload transactions
    keys: Optional[List[Key]] = None  # subset of the topology's; None = all

    @property
    def addr(self) -> Tuple[str, int]:
        return (self.host, self.port)


@dataclass
class Topology:
    name: str
    seed: int
    sites: List[Site]
    keys: List[Key]
    n_txns: int = 18
    window_ms: float = 2000.0
    settle_max_ms: float = 30000.0
    supervisor_addr: Tuple[str, int] = ("127.0.0.1", 0)
    path: Optional[str] = None
    #: Simulated link latencies that differ from the role default.
    links: Dict[Tuple[str, str], LatencyModel] = \
        field(default_factory=dict)
    by_name: Dict[str, Site] = field(default_factory=dict)
    _key_set: Set[Key] = field(init=False, repr=False)
    _groups: Dict[Optional[str], List[Site]] = \
        field(init=False, repr=False)

    def __post_init__(self) -> None:
        self.by_name = {site.name: site for site in self.sites}
        if len(self.by_name) != len(self.sites):
            raise ValueError("duplicate site names")
        # Indexed once, so checking and linking 10^5 sites stays linear.
        self._key_set = set(self.keys)
        self._groups = {}
        for site in self.sites:
            if site.role == "member":
                self._groups.setdefault(site.group, []).append(site)
        for site in self.sites:
            self._check(site)
        for pair in self.links:
            for end in pair:
                if end not in self.by_name:
                    raise ValueError(f"link {pair!r}: {end!r} is not "
                                     "a site")

    def _check(self, site: Site) -> None:
        """Every site a site names must exist and play the right role."""
        who = f"site {site.name!r}"
        for key in site.keys or ():
            if key not in self._key_set:
                raise ValueError(f"{who}: key {key[0]} is not in the "
                                 "topology's keys")
        if site.role == "dc":
            return
        if site.dc is None:
            raise ValueError(f"{who}: role {site.role!r} needs dc = ...")
        upstream = self.by_name.get(site.dc)
        if upstream is None or upstream.role not in ("dc", "pop"):
            raise ValueError(f"{who}: upstream {site.dc!r} is not a "
                             "dc or pop site")
        if site.role != "member":
            return
        if site.group is None or site.parent is None:
            raise ValueError(f"{who}: member needs group and parent")
        members = self.members_of(site.group)
        if site.parent not in [m.name for m in members]:
            raise ValueError(f"{who}: parent {site.parent!r} is not a "
                             f"member of group {site.group!r}")
        if site.parent != members[0].parent:
            raise ValueError(f"{who}: group {site.group!r} disagrees "
                             f"on its parent ({site.parent!r} vs "
                             f"{members[0].parent!r})")
        if site.commit_variant != members[0].commit_variant:
            raise ValueError(f"{who}: group {site.group!r} disagrees "
                             f"on its commit variant "
                             f"({site.commit_variant!r} vs "
                             f"{members[0].commit_variant!r})")

    def keys_of(self, site: Site) -> List[Key]:
        return self.keys if site.keys is None else site.keys

    @property
    def dcs(self) -> List[Site]:
        return [s for s in self.sites if s.role == "dc"]

    @property
    def clients(self) -> List[Site]:
        return [s for s in self.sites
                if s.role in ("edge", "member") and s.client]

    def members_of(self, group: Optional[str]) -> List[Site]:
        """The group's members, in listing order."""
        return self._groups.get(group, [])

    def workload(self) -> List[Op]:
        """The seeded op list: a pure function of the description."""
        return generate_ops(self.seed, [s.name for s in self.clients],
                            self.keys, self.n_txns, self.window_ms)

    def homes(self) -> Dict[str, str]:
        """Protocol node id -> site name, for transport routing.

        Each site hosts the protocol actor of its own name plus a
        control agent (``<name>.ctl``); the supervisor hosts only its
        control agent.
        """
        homes = {}
        for site in self.sites:
            homes[site.name] = site.name
            homes[f"{site.name}.ctl"] = site.name
        homes["supervisor.ctl"] = "supervisor"
        return homes

    def peer_addrs(self) -> Dict[str, Tuple[str, int]]:
        addrs = {site.name: site.addr for site in self.sites}
        addrs["supervisor"] = self.supervisor_addr
        return addrs


def _parse_addr(raw: str, context: str) -> Tuple[str, int]:
    host, sep, port = raw.rpartition(":")
    if not sep or not port.isdigit():
        raise ValueError(f"{context}: bad address {raw!r} "
                         "(expected host:port)")
    return host, int(port)


def parse_topology(data: dict, path: Optional[str] = None) -> Topology:
    deployment = data.get("deployment", {})
    workload = data.get("workload", {})

    keys: List[Key] = []
    for entry in data.get("keys", []):
        key = ObjectKey(entry["bucket"], entry["key"])
        type_name = entry.get("type", "counter")
        if type_name not in KEY_TYPES:
            raise ValueError(f"key {key.bucket}/{key.key}: type "
                             f"{type_name!r} is not one of {KEY_TYPES}")
        keys.append((key, type_name))
    if not keys:
        raise ValueError("topology declares no [[keys]]")
    key_named = {f"{key.bucket}/{key.key}": (key, type_name)
                 for key, type_name in keys}

    sites: List[Site] = []
    for entry in data.get("sites", []):
        role = entry.get("role")
        if role not in ROLES:
            raise ValueError(f"site {entry.get('name')!r}: "
                             f"unknown role {role!r}")
        host, port = _parse_addr(entry["listen"],
                                 f"site {entry['name']!r}")
        variant = entry.get("commit_variant", "async")
        if variant not in COMMIT_VARIANTS:
            raise ValueError(f"site {entry['name']!r}: unknown "
                             f"commit_variant {variant!r}")
        unknown = [k for k in entry.get("keys", []) if k not in key_named]
        if unknown:
            raise ValueError(f"site {entry['name']!r}: keys {unknown!r} "
                             "are not in [[keys]]")
        sites.append(Site(
            name=entry["name"], role=role, host=host, port=port,
            dc=entry.get("dc"), group=entry.get("group"),
            parent=entry.get("parent"), commit_variant=variant,
            n_shards=int(entry.get("n_shards", 2)),
            k_target=int(entry.get("k_target", 1)),
            client=bool(entry.get("client", True)),
            keys=([key_named[k] for k in entry["keys"]]
                  if "keys" in entry else None)))
    if not sites:
        raise ValueError("topology declares no [[sites]]")
    links = {(entry["a"], entry["b"]):
             LatencyModel(float(entry["base_ms"]),
                          float(entry.get("jitter_ms", 0.0)))
             for entry in data.get("links", [])}

    sup = data.get("supervisor", {})
    sup_addr = _parse_addr(sup.get("listen", "127.0.0.1:0"),
                           "supervisor")

    return Topology(
        name=deployment.get("name", "serve"),
        seed=int(deployment.get("seed", 0)),
        sites=sites, keys=keys,
        n_txns=int(workload.get("n_txns", 18)),
        window_ms=float(workload.get("window_ms", 2000.0)),
        settle_max_ms=float(workload.get("settle_max_ms", 30000.0)),
        supervisor_addr=sup_addr, path=path, links=links)


def load_topology(path: str) -> Topology:
    with open(path, "rb") as handle:
        data = tomllib.load(handle)
    return parse_topology(data, path=path)
