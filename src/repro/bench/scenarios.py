"""Benchmark scenarios: one function per paper figure, plus ablations.

Each function builds a deterministic simulation, drives the ColonyChat
workload, and returns plain data (series of points / summary rows) that the
``benchmarks/`` suite prints and shape-checks against the paper's claims.
Parameters default to scaled-down sizes so a full run stays fast; the paper
scale is reachable by passing larger values.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from functools import partial
from typing import Dict, List, Tuple

from ..core.txn import ObjectKey
from ..serve.builder import add_site, build_sim_world
from ..serve.topology import Site, Topology
from ..serve.workload import Op, run_op
from ..sim.network import ETHERNET, LAN, LatencyModel
from ..workload.driver import ClosedLoopDriver
from ..workload.trace import MattermostTrace, TraceConfig
from .harness import ChatWorld, build_chat_world
from .metrics import (TimelinePoint, summarise, throughput,
                      timeline)


# ---------------------------------------------------------------------------
# Figure 4: throughput vs response time, 6 configurations
# ---------------------------------------------------------------------------

@dataclass
class Fig4Point:
    mode: str
    n_dcs: int
    n_clients: int
    throughput_tps: float
    mean_latency_ms: float
    p99_latency_ms: float


def _small_trace(n_users: int, seed: int,
                 n_workspaces: int = 1,
                 channels: int = 10) -> MattermostTrace:
    return MattermostTrace(TraceConfig(
        n_users=n_users, n_workspaces=n_workspaces,
        channels_per_workspace=channels,
        big_workspace_users=n_users, seed=seed))


def fig4_point(mode: str, n_dcs: int, n_clients: int,
               measure_ms: float = 4000.0, warm_ms: float = 2000.0,
               think_time_ms: float = 10.0, seed: int = 7) -> Fig4Point:
    """One point of the throughput/latency curve for one configuration."""
    trace = _small_trace(n_clients, seed)
    world = build_chat_world(mode, n_dcs, trace, n_clients, seed=seed)
    world.warm_up(warm_ms)
    driver = ClosedLoopDriver(world.sim, world.trace, world.users(),
                              think_time_ms=think_time_ms)
    driver.start()
    start = world.sim.now
    world.sim.run_for(measure_ms)
    end = world.sim.now
    stats = world.all_stats()
    summary = summarise(stats, since=start, until=end)
    tput = throughput(stats, start, end)
    return Fig4Point(mode, n_dcs, n_clients, tput,
                     summary.mean_ms, summary.p99_ms)


def fig4_curve(mode: str, n_dcs: int,
               client_ladder: Tuple[int, ...] = (4, 8, 16, 32),
               **kwargs) -> List[Fig4Point]:
    return [fig4_point(mode, n_dcs, n, **kwargs) for n in client_ladder]


# ---------------------------------------------------------------------------
# Figures 5-7 share a topology: one DC, a peer group, solo edge users
# ---------------------------------------------------------------------------

@dataclass
class TimelineResult:
    """Latency timeline split by population, plus phase boundaries."""

    points: Dict[str, List[TimelinePoint]]
    disconnect_at_ms: float
    reconnect_at_ms: float
    duration_ms: float


def _fig567_world(seed: int, cache_coverage: float = 0.9) -> ChatWorld:
    """One workspace, 36 users: 12 in a peer group, 24 independent."""
    trace = _small_trace(36, seed, channels=12)
    world = build_chat_world("colony", 1, trace, 12, n_solo=24,
                             cache_coverage=cache_coverage, seed=seed)
    world.warm_up(2000.0)
    return world


def _run_workload(world: ChatWorld, duration_ms: float) -> None:
    ClosedLoopDriver(world.sim, world.trace, world.users(),
                     think_time_ms=150.0).start()
    world.sim.run_for(duration_ms)


def _stats(population) -> list:
    return [s for _u, node in population for s in node.txn_stats]


def _shifted(stats, t0: float) -> List[TimelinePoint]:
    """Timeline with t=0 at the workload start (after warm-up)."""
    return [TimelinePoint(p.at_ms - t0, p.latency_ms, p.served_by)
            for p in timeline(stats) if p.at_ms >= t0]


def fig5_dc_disconnection(duration_ms: float = 70_000.0,
                          disconnect_at: float = 25_000.0,
                          reconnect_at: float = 45_000.0,
                          seed: int = 11) -> TimelineResult:
    """The peer group's sync point loses (then regains) its DC link."""
    world = _fig567_world(seed)
    sim = world.sim
    t0 = sim.now
    parent = world.groups[0][0]
    sim.loop.schedule(disconnect_at,
                      lambda: sim.network.partition(parent.node_id, "dc0"))
    sim.loop.schedule(reconnect_at,
                      lambda: sim.network.heal(parent.node_id, "dc0"))
    _run_workload(world, duration_ms)
    return TimelineResult(
        points={"group": _shifted(_stats(world.clients), t0),
                "solo": _shifted(_stats(world.solo), t0)},
        disconnect_at_ms=disconnect_at, reconnect_at_ms=reconnect_at,
        duration_ms=duration_ms)


def fig6_peer_disconnection(duration_ms: float = 70_000.0,
                            disconnect_at: float = 25_000.0,
                            reconnect_at: float = 45_000.0,
                            seed: int = 12) -> TimelineResult:
    """One user drops out of its peer group and reconnects 20 s later."""
    world = _fig567_world(seed, cache_coverage=1.0)
    sim = world.sim
    t0 = sim.now
    group = world.groups[0]
    victim = group[-1]

    def cut() -> None:
        victim.disconnect_from_group()
        for other in group:
            if other is not victim:
                sim.network.partition(victim.node_id, other.node_id)

    def heal() -> None:
        for other in group:
            if other is not victim:
                sim.network.heal(victim.node_id, other.node_id)
        victim.reconnect_to_group()

    sim.loop.schedule(disconnect_at, cut)
    sim.loop.schedule(reconnect_at, heal)
    _run_workload(world, duration_ms)
    rest = [c for c in world.clients if c[1] is not victim]
    return TimelineResult(
        points={"victim": _shifted(victim.txn_stats, t0),
                "group": _shifted(_stats(rest), t0)},
        disconnect_at_ms=disconnect_at, reconnect_at_ms=reconnect_at,
        duration_ms=duration_ms)


def fig7_migration(duration_ms: float = 70_000.0,
                   join_at: float = 45_000.0,
                   seed: int = 13) -> TimelineResult:
    """A mobile client with an invalid cache joins the peer group."""
    world = _fig567_world(seed)
    sim = world.sim
    t0 = sim.now
    parent = world.groups[0][0]
    # The migrating client: same workspace, completely cold cache.
    user = world.trace.users[-1]
    node = add_site(world.world, Site(
        f"mobile/{user}", "member", dc="dc0", group=parent.group_id,
        parent=parent.node_id, keys=[]))
    sim.loop.schedule(join_at, node.join_group)
    driver = ClosedLoopDriver(sim, world.trace, world.users(),
                              think_time_ms=150.0)
    driver.start()
    # The mobile client only starts transacting once in the group.
    mobile_driver = ClosedLoopDriver(sim, world.trace, [(user, node)],
                                     think_time_ms=150.0)
    sim.loop.schedule(join_at + 50.0, mobile_driver.start)
    sim.run_for(duration_ms)
    return TimelineResult(
        points={"mobile": _shifted(node.txn_stats, t0),
                "group": _shifted(_stats(world.clients), t0)},
        disconnect_at_ms=join_at, reconnect_at_ms=join_at,
        duration_ms=duration_ms)


# ---------------------------------------------------------------------------
# Ablation A1: the K-stability trade-off (section 3.8)
# ---------------------------------------------------------------------------

@dataclass
class KStabilityRow:
    k: int
    visibility_lag_ms: float        # commit -> remote-edge visibility
    migration_rejections: int       # incompatible sessions on migration


def ablation_kstability(k: int, n_dcs: int = 3, updates: int = 30,
                        migrations: int = 6, seed: int = 21) \
        -> KStabilityRow:
    """Measure edge-visibility lag and migration compatibility vs K.

    Topology stresses the paper's trade-off (section 3.8): the edge links
    are fast (the client is well connected), dc0-dc1 are close (10 ms) and
    dc2 is far (60 ms).  Low K makes updates visible quickly but lets the
    client run ahead of the DC it migrates to (incompatible sessions);
    K = N gates visibility on the slowest DC.
    """
    far = LatencyModel(60.0, 2.0)
    dc_ids = [f"dc{i}" for i in range(n_dcs)]
    key = ObjectKey("bench", "counter")
    links = {(a, b): far if b_i >= 2 else ETHERNET
             for b_i, b in enumerate(dc_ids) for a in dc_ids[:b_i]}
    # The edges are on LAN to every DC, their migration targets too.
    links.update({(name, d): LAN for name in ("writer", "reader")
                  for d in dc_ids})
    topo = Topology(
        "kstability", seed,
        [Site(d, "dc", n_shards=1, k_target=k) for d in dc_ids]
        + [Site(name, "edge", dc="dc0") for name in ("writer", "reader")],
        [(key, "counter")], links=links)
    world = build_sim_world(topo)
    sim = world.sim
    dcs = world.dcs
    writer, reader = world.actors["writer"], world.actors["reader"]
    sim.run_for(1000.0 - sim.now)   # one second of settling in all

    lags: List[float] = []
    bump = Op(0.0, "writer", key, "counter", "increment", (1,))
    for index in range(updates):
        sim.loop.schedule(index * 400.0, partial(run_op, writer, bump))
    # Sample visibility lag: poll the reader for each new value.
    commit_times: Dict[int, float] = {}
    seen_times: Dict[int, float] = {}

    def poll() -> None:
        value = reader.read_value(key, "counter")
        if value and value not in seen_times:
            seen_times[value] = sim.now

    def record_commit() -> None:
        value = writer.read_value(key, "counter")
        if value and value not in commit_times:
            commit_times[value] = sim.now

    for t in range(0, int(updates * 400.0 + 4000.0), 2):
        sim.loop.schedule(float(t), poll)
        sim.loop.schedule(float(t), record_commit)
    sim.run_for(updates * 400.0 + 4000.0)
    for value, seen in seen_times.items():
        if value in commit_times:
            lags.append(seen - commit_times[value])

    # Migration probe: hop the writer between the two close DCs right
    # after committing, and count causally-incompatible session
    # rejections (the writer's K-stable knowledge from the old DC may be
    # ahead of the new DC when K is low).
    rejections_before = sum(dc.stats["rejected"] for dc in dcs)
    hop_targets = [dc_ids[(i + 1) % 2] for i in range(migrations)]

    def hop(target: str) -> None:
        run_op(writer, bump)
        # Migrate just after the fresh update becomes K-stable at the old
        # DC and is pushed back — the window where, for low K, the writer
        # knows more than the new DC does.
        sim.loop.schedule(1.5, lambda: writer.migrate_to(target))

    for index, target in enumerate(hop_targets):
        sim.loop.schedule(index * 120.0, lambda t=target: hop(t))
    sim.run_for(migrations * 120.0 + 4000.0)
    rejections = sum(dc.stats["rejected"] for dc in dcs) \
        - rejections_before
    lag = sum(lags) / len(lags) if lags else float("nan")
    return KStabilityRow(k, lag, rejections)


# ---------------------------------------------------------------------------
# Ablation A2: commit variants (section 5.1.4)
# ---------------------------------------------------------------------------

@dataclass
class CommitVariantRow:
    variant: str
    mean_commit_latency_ms: float
    aborts: int
    commits: int
    p50_commit_latency_ms: float = float("nan")
    fast_commits: int = 0
    fallbacks: int = 0
    fast_path_ratio: float = 0.0
    digest: str = ""


def commit_workload(bench, txns_per_member: int = 20,
                    conflict_rate: float = 1.0,
                    seed: int = 23) -> CommitVariantRow:
    """Drive the standard commit workload over a built group bench.

    Each member commits ``txns_per_member`` counter updates, all members
    firing in the same instant each round so conflicting transactions
    are genuinely concurrent; ``conflict_rate`` picks the shared hot key
    over the member's private key.  The row carries latency summaries,
    the tiga fast-path counters (zero for the other variants), and the
    converged state digest — equal digests across variants prove the
    fast path changes *when* transactions commit, never *what* they
    compute.
    """
    from .metrics import percentile

    sim = bench.sim
    members = bench.members
    rng = random.Random(seed)
    for member_index, member in enumerate(members):
        for txn_index in range(txns_per_member):
            if rng.random() < conflict_rate:
                key = bench.hot
            else:
                key = bench.cold_keys[member_index]
            op = Op(txn_index * 50.0, member.node_id, key, "counter",
                    "increment", (1,))
            sim.loop.schedule(op.at_ms, partial(run_op, member, op))
    sim.run_for(txns_per_member * 50.0 + 5000.0)

    stats = [s for m in members for s in m.txn_stats
             if not s.read_only]
    commits = [s for s in stats if not s.aborted]
    aborts = [s for s in stats if s.aborted]
    latencies = sorted(s.latency for s in commits)
    mean = (sum(latencies) / len(latencies)
            if latencies else float("nan"))
    fast = sum(m.tiga_stats["fast_commits"] for m in members)
    keys = [bench.hot] + list(bench.cold_keys)
    digests = [[(repr(k), state.get(k) or 0) for k in keys]
               for state in
               [m.state_digest() for m in members]
               + [bench.dc.state_digest()]]
    digest = repr(digests[0]) if all(d == digests[0] for d in digests) \
        else "DIVERGED"
    return CommitVariantRow(
        members[0].commit_variant, mean, len(aborts), len(commits),
        p50_commit_latency_ms=percentile(latencies, 50.0),
        fast_commits=fast,
        fallbacks=sum(m.tiga_stats["fallbacks"] for m in members),
        fast_path_ratio=fast / len(commits) if commits else 0.0,
        digest=digest)


def ablation_commit_variant(variant: str, n_members: int = 5,
                            txns_per_member: int = 20,
                            conflict_rate: float = 1.0,
                            seed: int = 23) -> CommitVariantRow:
    """Commit latency and aborts: consensus on vs off the critical path."""
    from .topo import build_group_bench

    bench = build_group_bench(variant, n_members=n_members, seed=seed)
    return commit_workload(bench, txns_per_member=txns_per_member,
                           conflict_rate=conflict_rate, seed=seed)


# ---------------------------------------------------------------------------
# Ablation A3: metadata size (sections 3.3-3.4)
# ---------------------------------------------------------------------------

@dataclass
class MetadataRow:
    n_dcs: int
    n_replicas: int
    colony_vector_bytes: int        # one entry per DC (this design)
    per_replica_vector_bytes: int   # one entry per replica (Depot/PRACTI)


def ablation_metadata(n_dcs: int, n_replicas: int,
                      entry_bytes: int = 8) -> MetadataRow:
    """Vector size: per-DC (Colony) vs per-replica (flat causal) design."""
    return MetadataRow(n_dcs, n_replicas,
                       colony_vector_bytes=entry_bytes * n_dcs,
                       per_replica_vector_bytes=entry_bytes * n_replicas)
