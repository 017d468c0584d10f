"""Chaos scenario runner: build world, inject faults, drive, check.

One scenario = one seed on one topology.  The seed determines the
simulator's RNG, the fault schedule and the workload, so a failing
scenario replays bit-for-bit with ``--topology T --seed N``.

Three standard topologies mirror the paper's deployment tiers, each a
``repro.serve.topology.Topology`` built by ``build_sim_world``:

``group``  2-DC mesh (K=2), a 3-member peer group on dc0, a solo far
           edge on dc1
``pop``    2-DC mesh, a PoP on dc0 proxying two child edges, a far edge
           on dc1
``tree``   the full Figure 1 tree: DC mesh <- PoP <- {peer group, far}

With ``partial_interest`` (CLI ``--interest partial``) each topology
also gets ``by``, a bystander edge on dc0 that holds only the first of
the three keys, and its last PoP child / group member (``e1`` / ``m2``)
holds only the other two — so some session is outside the audience of
every stability round, at the DC and below a relay.

On an invariant violation the runner shrinks the fault schedule with a
greedy delta-debugging pass (drop one event at a time, keep the drop if
the violation survives) and reports the minimal failing schedule.
"""

from __future__ import annotations

import json
import random
from functools import partial
from typing import Any, Callable, Dict, List, Optional, Sequence, Tuple

from ..core.journal import JournalEntry
from ..core.txn import ObjectKey
from ..dc.datacenter import DataCenter
from ..edge.node import EdgeNode
from ..groups.peergroup import COMMIT_VARIANTS
from ..serve.builder import SimWorld, build_sim_world
from ..serve.topology import Site, Topology
from ..serve.workload import READ, Op, expected_state, run_op
from ..sim.network import LatencyModel
from ..sim.runtime import Simulation
from .invariants import InvariantChecker, InvariantViolation
from .schedule import FaultEvent, FaultInjector, FaultSpec, \
    generate_schedule

TOPOLOGIES = ("group", "pop", "tree")


class ScenarioConfig:
    """Knobs for one scenario run (all deterministic given the seed)."""

    def __init__(self, topology: str = "group", seed: int = 0,
                 n_txns: int = 24, window_ms: float = 6000.0,
                 max_faults: int = 8, checkpoint_ms: float = 250.0,
                 settle_step_ms: float = 500.0,
                 settle_max_ms: float = 40000.0,
                 commit_variant: str = "async",
                 clock_skew: bool = False,
                 partial_interest: bool = False):
        if topology not in TOPOLOGIES:
            raise ValueError(f"unknown topology {topology!r}")
        if commit_variant not in COMMIT_VARIANTS:
            raise ValueError(f"unknown commit variant {commit_variant!r}")
        self.topology = topology
        self.seed = seed
        self.n_txns = n_txns
        self.window_ms = window_ms
        self.max_faults = max_faults
        self.checkpoint_ms = checkpoint_ms
        self.settle_step_ms = settle_step_ms
        self.settle_max_ms = settle_max_ms
        # Group commit variant under test ("async", "psi" or "tiga").
        self.commit_variant = commit_variant
        # Opt-in clock-skew faults: static per-member clock offsets at
        # build time plus scheduled step/drift events on group members.
        self.clock_skew = clock_skew
        # Opt-in narrow interest sets: a bystander session and one PoP
        # child / group member hold a strict subset of the keys, so
        # interest-scoped push fan-out has somebody to leave out.
        self.partial_interest = partial_interest


class World:
    """A built topology, ready for workload and fault injection."""

    def __init__(self, built: SimWorld, replicas: Sequence[str],
                 spec: FaultSpec):
        topo = built.topo
        self.sim: Simulation = built.sim
        self.dcs: List[DataCenter] = built.dcs
        # Every edge-tier node; all but the PoP issue transactions.
        self.replicas: List[EdgeNode] = [built.actors[name]
                                         for name in replicas]
        self.clients = [built.actors[name] for name in replicas
                        if topo.by_name[name].role != "pop"]
        self.remote_clients = [built.actors["far"]]
        self.keys = topo.keys
        self.spec = spec
        self.k_target = topo.dcs[0].k_target
        # Node id -> the keys it holds, for the nodes that do not hold
        # them all (``partial_interest``); the workload keeps to them.
        self.narrow = {site.name: site.keys for site in topo.sites
                       if site.keys is not None}

    @property
    def actors(self) -> Dict[str, Any]:
        return {r.node_id: r for r in self.replicas}

    @property
    def peer_dcs(self) -> Dict[str, List[str]]:
        return {dc.node_id: list(dc.peer_dcs) for dc in self.dcs}


KEYS = [(ObjectKey("chaos", "c0"), "counter"),
        (ObjectKey("chaos", "c1"), "counter"),
        (ObjectKey("chaos", "s0"), "orset")]
#: ``partial_interest``: what the bystander and the narrow child hold.
BYSTANDER_KEYS = KEYS[:1]
NARROW_KEYS = KEYS[1:]

#: A PoP's children sit one short hop below it, not on cellular.
POP_CHILD_LINK = LatencyModel(10.0, 2.0)


def chaos_topology(name: str, seed: int, commit_variant: str = "async",
                   partial_interest: bool = False) -> Topology:
    """The standard topology ``name`` as a deployable description.

    Listing order is connect order within a settle phase.
    """
    narrow = NARROW_KEYS if partial_interest else None
    sites = [Site(f"dc{i}", "dc", k_target=2) for i in range(2)]
    if partial_interest:
        sites.append(Site("by", "edge", dc="dc0", keys=BYSTANDER_KEYS))
    if name != "group":
        sites.append(Site("pop0", "pop", dc="dc0"))
    sites.append(Site("far", "edge", dc="dc1"))
    links = {}
    if name == "pop":
        sites += [Site("e0", "edge", dc="pop0"),
                  Site("e1", "edge", dc="pop0", keys=narrow)]
        links = {("e0", "pop0"): POP_CHILD_LINK,
                 ("e1", "pop0"): POP_CHILD_LINK}
    else:
        sites += [Site(f"m{i}", "member",
                       dc="dc0" if name == "group" else "pop0",
                       group="g", parent="m0",
                       commit_variant=commit_variant,
                       keys=narrow if i == 2 else None)
                  for i in range(3)]
    return Topology(f"chaos-{name}", seed, sites, list(KEYS),
                    links=links)


#: Per topology: the edge tier in report order (``by`` goes last) and
#: what the fault schedule may hit.
_MEMBERS = ["m0", "m1", "m2"]
_GROUP_LINKS = [("m0", "m1"), ("m0", "m2"), ("m1", "m2")]
_REPLICAS = {"group": _MEMBERS + ["far"],
             "pop": ["pop0", "e0", "e1", "far"],
             "tree": ["pop0"] + _MEMBERS + ["far"]}


def _fault_spec(name: str, clock_skew: bool) -> FaultSpec:
    skew_nodes = list(_MEMBERS) if clock_skew else []
    if name == "group":
        return FaultSpec(
            wan_links=[("dc0", "dc1")],
            access_links=[("m0", "dc0"), ("far", "dc1")],
            group_links=list(_GROUP_LINKS),
            blackout_nodes=["m0", "m1", "m2", "far"],
            offline_nodes=["m0", "far"],
            churn_nodes=["m1", "m2"],
            migrations={"far": ["dc0"], "m0": ["dc1"]},
            dcs=["dc0", "dc1"], skew_nodes=skew_nodes)
    if name == "pop":
        return FaultSpec(
            wan_links=[("dc0", "dc1")],
            access_links=[("pop0", "dc0"), ("e0", "pop0"),
                          ("e1", "pop0"), ("far", "dc1")],
            blackout_nodes=["pop0", "e0", "e1", "far"],
            offline_nodes=["pop0", "e0", "e1", "far"],
            migrations={"far": ["dc0"], "pop0": ["dc1"],
                        "e0": ["dc0"]},
            dcs=["dc0", "dc1"])
    return FaultSpec(  # tree — the full Figure 1 composition
        wan_links=[("dc0", "dc1")],
        access_links=[("pop0", "dc0"), ("m0", "pop0"), ("far", "dc1")],
        group_links=list(_GROUP_LINKS),
        blackout_nodes=["pop0", "m1", "m2", "far"],
        offline_nodes=["far"],
        churn_nodes=["m1", "m2"],
        migrations={"far": ["dc0"], "m0": ["dc0"], "pop0": ["dc1"]},
        dcs=["dc0", "dc1"], skew_nodes=skew_nodes)


def build_world(topology: str, seed: int,
                edge_cls: type = EdgeNode,
                commit_variant: str = "async",
                clock_skew: bool = False,
                partial_interest: bool = False) -> World:
    """Build one of the standard topologies, warmed up and converged.

    ``edge_cls`` swaps the implementation of the solo far edge — the
    hook the self-check uses to plant a buggy test double.
    """
    topo = chaos_topology(topology, seed, commit_variant,
                          partial_interest)
    built = build_sim_world(topo, actor_cls={"far": edge_cls})
    names = list(_REPLICAS[topology])
    spec = _fault_spec(topology, clock_skew)
    if partial_interest:
        # The bystander is a replica and a client like the far edge, and
        # as exposed to faults: its link, its radio, its DC.
        names.append("by")
        spec.access_links.append(("by", "dc0"))
        spec.blackout_nodes.append("by")
        spec.offline_nodes.append("by")
        spec.migrations["by"] = ["dc1"]

    # Static per-member clock error (NTP sync is never perfect at the
    # edge): each skewed node starts up to 25ms off true time.  Drawn
    # from its own RNG stream so schedules stay stable across modes.
    if spec.skew_nodes:
        skew_rng = random.Random(f"chaos-skew/{seed}")
        for node_id in sorted(spec.skew_nodes):
            built.sim.network.clocks.set_offset(
                node_id, skew_rng.uniform(-25.0, 25.0))

    # Let the initial seeds and session handshakes fully settle.
    built.sim.run_for(400)
    return World(built, names, spec)


# ----------------------------------------------------------------------
# workload
# ----------------------------------------------------------------------
class _Workload:
    """Seeded client transactions plus the durability ledger.

    Every *locally committed* op goes on the ledger; asynchronous commit
    promises durability once the pipeline drains, so at quiescence the
    DCs must hold the ledger's fold.
    """

    def __init__(self, world: World, seed: int, start: float,
                 window: float, n_txns: int):
        self.world = world
        self.ledger: List[Op] = []
        self.committed = 0
        self.aborted = 0
        self.remote_failed = 0
        rng = random.Random(f"chaos-workload/{seed}")
        span = max(window - 500.0, 100.0)
        for i in range(n_txns):
            at = start + rng.uniform(50.0, span)
            client = rng.choice(world.clients)
            name = client.node_id
            key, type_name = rng.choice(world.narrow.get(name, world.keys))
            roll = rng.random()
            if roll < 0.15:
                method, args = READ, ()
            elif type_name == "counter":
                method, args = "increment", (rng.randint(1, 5),)
            else:
                rng.randint(1, 5)   # the amount a set add does not use
                method, args = "add", (f"{name}:{i}",)
            op = Op(at, name, key, type_name, method, args)
            remote = 0.15 <= roll < 0.25 \
                and client in world.remote_clients
            world.sim.loop.schedule_at(
                at, partial(self._fire, client, op, remote))

    def _fire(self, client: EdgeNode, op: Op, remote: bool) -> None:
        def done(result, stats):
            self.committed += 1
            self.ledger.append(op)

        if remote:
            client.run_remote_transaction(
                updates=[(op.key, op.type_name, op.method, op.args)],
                on_done=done, on_fail=self._remote_fail)
        else:
            run_op(client, op, done, self._abort)

    def _abort(self, exc: Exception) -> None:
        self.aborted += 1

    def _remote_fail(self, reason: str) -> None:
        self.remote_failed += 1

    def check_durability(self, world: World) -> List[InvariantViolation]:
        """Locally committed updates must all survive into the DCs."""
        violations = []
        reference = world.dcs[0].state_digest()
        expected = expected_state(world.keys, self.ledger)
        for key, type_name in world.keys:
            expect = expected[key]
            got = reference.get(key)
            if type_name == "orset":
                got = set(got or ())
            else:
                got = got or 0
            if got != expect:
                violations.append(InvariantViolation(
                    "durability", world.dcs[0].node_id,
                    f"{key}: DC holds {got!r}, committed {expect!r}",
                    world.sim.now))
        return violations


# ----------------------------------------------------------------------
# scenario execution
# ----------------------------------------------------------------------
class ScenarioResult:
    def __init__(self, config: ScenarioConfig,
                 schedule: List[FaultEvent]):
        self.config = config
        self.schedule = schedule
        self.violations: List[InvariantViolation] = []
        self.converged = False
        self.convergence_ms = 0.0
        self.faults_injected = 0
        self.messages_dropped = 0
        self.drops_by_link: Dict[str, int] = {}
        self.txns_committed = 0
        self.txns_aborted = 0
        self.remote_failed = 0
        self.checkpoints_run = 0
        self.minimal_schedule: Optional[List[FaultEvent]] = None

    @property
    def ok(self) -> bool:
        return not self.violations

    def to_dict(self) -> Dict[str, Any]:
        data = {
            "topology": self.config.topology,
            "seed": self.config.seed,
            "commit_variant": self.config.commit_variant,
            "clock_skew": self.config.clock_skew,
            **({"partial_interest": True}
               if self.config.partial_interest else {}),
            "ok": self.ok,
            "violations": [v.to_dict() for v in self.violations],
            "converged": self.converged,
            "convergence_ms": round(self.convergence_ms, 3),
            "faults_injected": self.faults_injected,
            "messages_dropped": self.messages_dropped,
            "drops_by_link": self.drops_by_link,
            "txns_committed": self.txns_committed,
            "txns_aborted": self.txns_aborted,
            "remote_failed": self.remote_failed,
            "checkpoints_run": self.checkpoints_run,
            "schedule": [e.to_dict() for e in self.schedule],
        }
        if self.minimal_schedule is not None:
            data["minimal_schedule"] = [e.to_dict()
                                        for e in self.minimal_schedule]
        return data


def run_scenario(config: ScenarioConfig,
                 schedule: Optional[Sequence[FaultEvent]] = None,
                 edge_cls: type = EdgeNode,
                 recorder: Optional[Any] = None) -> ScenarioResult:
    """Run one seeded scenario; deterministic for (config, schedule).

    ``recorder`` optionally attaches a lifecycle trace recorder
    (``repro.obs.TraceRecorder``) to the world's network; the checker
    watches the trace in front of it.  A recorder is a pure observer —
    it never touches RNG or scheduling — so the result (and every digest
    derived from it) is byte-identical with tracing on or off; the trace
    itself is a separate artifact.
    """
    world = build_world(config.topology, config.seed, edge_cls=edge_cls,
                        commit_variant=config.commit_variant,
                        clock_skew=config.clock_skew,
                        partial_interest=config.partial_interest)
    sim = world.sim
    if recorder is not None:
        sim.network.obs = recorder
    checker = InvariantChecker(world.dcs, world.replicas, world.k_target)
    checker.watch(sim.network)
    start = sim.now
    if schedule is None:
        schedule = generate_schedule(config.seed, world.spec,
                                     start=start,
                                     window=config.window_ms,
                                     max_faults=config.max_faults)
    schedule = list(schedule)
    result = ScenarioResult(config, schedule)
    injector = FaultInjector(sim, world.actors, world.peer_dcs)
    injector.install(schedule)
    workload = _Workload(world, config.seed, start, config.window_ms,
                         config.n_txns)

    # Fault + workload phase, with periodic safety checkpoints.
    end_of_window = start + config.window_ms
    while sim.now < end_of_window and not result.violations:
        sim.run_for(min(config.checkpoint_ms, end_of_window - sim.now))
        result.violations += checker.checkpoint()
    injector.heal_all()
    heal_time = sim.now

    # Settle phase: drive to quiescence, then the full quiescent check.
    while not result.violations:
        sim.run_for(config.settle_step_ms)
        result.violations += checker.checkpoint()
        if result.violations:
            break
        if checker.pipelines_idle() and not checker.check_convergence():
            result.converged = True
            result.convergence_ms = sim.now - heal_time
            break
        if sim.now - heal_time > config.settle_max_ms:
            break
    if not result.violations:
        result.violations += checker.check_quiescent()
        if result.converged:
            result.violations += workload.check_durability(world)

    result.faults_injected = injector.faults_injected
    stats = sim.network.stats
    result.messages_dropped = stats.messages_dropped
    result.drops_by_link = {f"{a}->{b}": n for (a, b), n
                            in sorted(stats.drops_by_link.items())}
    result.txns_committed = workload.committed
    result.txns_aborted = workload.aborted
    result.remote_failed = workload.remote_failed
    result.checkpoints_run = checker.checkpoints_run
    return result


# ----------------------------------------------------------------------
# shrinking
# ----------------------------------------------------------------------
def shrink_schedule(config: ScenarioConfig,
                    schedule: Sequence[FaultEvent],
                    max_runs: int = 60) -> List[FaultEvent]:
    """Greedy delta debugging: drop events while the failure persists."""
    current = list(schedule)
    runs = 0
    improved = True
    while improved and runs < max_runs:
        improved = False
        for i in range(len(current)):
            candidate = current[:i] + current[i + 1:]
            runs += 1
            if not run_scenario(config, schedule=candidate).ok:
                current = candidate
                improved = True
                break
            if runs >= max_runs:
                break
    return current


# ----------------------------------------------------------------------
# suite + self-check
# ----------------------------------------------------------------------
def run_suite(seeds: Sequence[int], topologies: Sequence[str],
              config_kwargs: Optional[Dict[str, Any]] = None,
              shrink: bool = True,
              log: Callable[[str], None] = lambda line: None) \
        -> Dict[str, Any]:
    """Run the seed x topology matrix and aggregate a JSON report."""
    config_kwargs = config_kwargs or {}
    scenarios = []
    failed = 0
    for topology in topologies:
        for seed in seeds:
            config = ScenarioConfig(topology=topology, seed=seed,
                                    **config_kwargs)
            result = run_scenario(config)
            if not result.ok and shrink and result.schedule:
                result.minimal_schedule = shrink_schedule(
                    config, result.schedule)
            scenarios.append(result)
            status = "ok" if result.ok else \
                f"FAIL ({result.violations[0].invariant})"
            log(f"  {topology} seed={seed}: {status} "
                f"faults={result.faults_injected} "
                f"dropped={result.messages_dropped} "
                f"converged={result.convergence_ms:.0f}ms")
            if not result.ok:
                failed += 1
    converged = [s.convergence_ms for s in scenarios if s.converged]
    report = {
        "benchmark": "chaos_harness",
        "topologies": list(topologies),
        "seeds": list(seeds),
        "totals": {
            "scenarios": len(scenarios),
            "passed": len(scenarios) - failed,
            "failed": failed,
            "faults_injected": sum(s.faults_injected
                                   for s in scenarios),
            "messages_dropped": sum(s.messages_dropped
                                    for s in scenarios),
            "txns_committed": sum(s.txns_committed for s in scenarios),
            "checkpoints_run": sum(s.checkpoints_run
                                   for s in scenarios),
            "mean_convergence_ms": round(
                sum(converged) / len(converged), 3) if converged
            else None,
            "max_convergence_ms": round(max(converged), 3)
            if converged else None,
        },
        "scenarios": [s.to_dict() for s in scenarios],
        "ok": failed == 0,
    }
    return report


class DotReplayEdge(EdgeNode):
    """Test double with a planted dot-duplication bug.

    On the first pushed transaction it re-journals the txn *past* the
    journal's dedup check — the bug class a broken migration re-seed
    would introduce.  The chaos checker must flag it as a
    ``dot-uniqueness`` violation (and, downstream, a convergence one).
    """

    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        self._replayed = False

    def _on_update_push(self, msg, sender: str) -> None:
        super()._on_update_push(msg, sender)
        if self._replayed or not msg.txns:
            return
        from bisect import insort
        txn = msg.txns[0]
        for key in txn.keys:
            journal = self.cache.journal(key)
            if journal is None or not journal.has(txn.dot):
                continue
            ops = [w.op for w in txn.tagged_writes() if w.key == key]
            # Bypass append() on purpose: its dedup check would refuse
            # the dot, and its arrival log would offer the copy to
            # cached views' delta reads.  A second entry with the same
            # dot lands in the journal behind the reader's back, as a
            # re-seed bug's would; the checker finds it in the dot
            # census.
            insort(journal._entries, JournalEntry(txn, ops))
            journal.version += 1
            self._replayed = True


def self_check(seed: int = 0) -> Tuple[bool, ScenarioResult]:
    """Prove the harness catches a planted dot-duplication bug.

    Runs the group topology with a fault-free schedule and the buggy
    far-edge double; passes iff the checker reports dot-uniqueness.
    """
    config = ScenarioConfig(topology="group", seed=seed)
    result = run_scenario(config, schedule=[], edge_cls=DotReplayEdge)
    caught = any(v.invariant == "dot-uniqueness"
                 for v in result.violations)
    return caught, result


def write_report(report: Dict[str, Any], path: str) -> None:
    with open(path, "w") as handle:
        json.dump(report, handle, indent=2, sort_keys=True)
        handle.write("\n")
