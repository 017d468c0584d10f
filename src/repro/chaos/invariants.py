"""TCC+ invariant checking over a live chaos world.

The checker reads only introspection hooks (state digests, exposed dots,
session traces, journal dot censuses, K-stability holder sets) — it never
mutates protocol state, so checkpoints can run mid-fault without
perturbing the run.

Checked properties, mapped to the paper's claims:

* **Dot uniqueness** — no journal ever applies the same transaction
  twice, across migrations, re-seeds and duplicate deliveries
  (idempotent delivery, section 4.1).
* **Causal-vector monotonicity** — every replica's causal vector and
  every DC's state/stable vector only ever grow (sessions never move
  backwards, section 3.8).
* **K-stability gating** — no edge-tier replica exposes a transaction
  held by fewer than K DCs (section 3.6): losing K-1 DCs can then never
  roll back an observed update.
* **Vector coverage** — a replica's vector never covers a K-stable
  transaction on a key it holds warm without the key's journal holding
  it: the vector is a promise about content, and interest-scoped pushes
  (a session hears of most rounds only through a heartbeat) must keep
  it (sections 3.8, 4.2).
* **Session guarantees** — read-my-writes and monotonic reads per
  session, replayed from the traced transaction log (section 3.8).
* **Strong convergence** — at quiescence, every replica's materialised
  state agrees per key with the DCs, and the DCs agree with each other
  (section 4.1).
"""

from __future__ import annotations

from typing import Any, Dict, List, Optional, Sequence, Set

from ..core.clock import VectorClock
from ..core.dot import Dot
from ..obs.trace import K_STABLE, NULL_RECORDER, REPLICATION


class InvariantViolation(Exception):
    """One broken invariant, with enough context to debug a replay."""

    def __init__(self, invariant: str, node: str, detail: str,
                 time: float = 0.0):
        super().__init__(f"[{invariant}] at {node} (t={time:.0f}ms): "
                         f"{detail}")
        self.invariant = invariant
        self.node = node
        self.detail = detail
        self.time = time

    def to_dict(self) -> Dict[str, Any]:
        return {"invariant": self.invariant, "node": self.node,
                "detail": self.detail, "time": self.time}


class InvariantChecker:
    """Incremental checker over one world's DCs and edge-tier replicas.

    ``checkpoint()`` runs the safety invariants (valid at any instant,
    faults active or not); ``check_convergence()`` adds the liveness /
    strong-convergence check that only holds at quiescence.

    A DC retires a transaction from its log once no peer can ask for it
    (DESIGN §11), so the checker keeps each DC's released transactions
    itself.  Watching the world's trace (:meth:`watch`), it takes each
    one off the ``K_STABLE`` span of its release — or, for one stored
    already inside the cut, off the span of its apply — and every
    checkpoint adds those released and still held.  Together these are
    every transaction a DC has held inside its cut.
    """

    enabled = True

    def __init__(self, dcs: Sequence[Any], replicas: Sequence[Any],
                 k_target: int):
        self.dcs = list(dcs)
        self.replicas = list(replicas)
        self.k_target = k_target
        self.checkpoints_run = 0
        # Per-node high-water vectors for the monotonicity check.
        self._last_vectors: Dict[str, VectorClock] = {}
        # Per-replica cursor into its session_log (incremental replay).
        self._session_cursor: Dict[str, int] = {}
        # The recorder every span is passed on to.
        self._trace: Any = NULL_RECORDER
        self._dc_by_id = {dc.node_id: dc for dc in self.dcs}
        # Per DC, every transaction it held inside its stable cut.
        self._released: Dict[str, Dict[Dot, Any]] = {
            dc.node_id: {} for dc in self.dcs}
        for replica in self.replicas:
            replica.trace_sessions = True

    def watch(self, network: Any) -> None:
        """Read the trace of ``network``'s actors, ahead of the recorder
        already attached to it."""
        self._trace, network.obs = network.obs, self

    def record(self, kind: str, dot: Any, node: str, t: float,
               **attrs: Any) -> None:
        """A trace span: keep a transaction a DC just released, or just
        stored inside its cut."""
        if self._trace.enabled:
            self._trace.record(kind, dot, node, t, **attrs)
        if kind == K_STABLE or (kind == REPLICATION
                                and attrs.get("phase") == "apply"):
            dc = self._dc_by_id.get(node)
            if dc is not None and dc.stability.released(dot):
                txn = dc.transaction(dot)
                if txn is not None:
                    self._released[node].setdefault(dot, txn)

    # ------------------------------------------------------------------
    # oracles
    # ------------------------------------------------------------------
    def global_holders(self, dot: Dot) -> Set[str]:
        """Every DC known (by any DC) to hold ``dot``.

        The union over per-DC K-stability trackers *and* local dot sets:
        a replicate may be received (counted locally) before any tracker
        learns of it, and a tracker may know of holders whose gossip the
        local DC has not seen.
        """
        holders: Set[str] = set()
        for dc in self.dcs:
            if dc.holds(dot):
                holders.add(dc.node_id)
            holders |= dc.stability.holders(dot)
        return holders

    # ------------------------------------------------------------------
    # safety invariants (hold at every instant)
    # ------------------------------------------------------------------
    def check_dot_uniqueness(self) -> List[InvariantViolation]:
        """No journal applies one dot twice (base + entries census)."""
        violations = []
        stores = [(dc.node_id, shard.store)
                  for dc in self.dcs for shard in dc.shards.values()]
        stores += [(r.node_id, r.cache) for r in self.replicas]
        for node_id, store in stores:
            for key in list(store.keys()):
                journal = store.journal(key)
                if journal is None:
                    continue
                census = journal.applied_dots()
                if len(census) != len(set(census)):
                    dupes = sorted({d for d in census
                                    if census.count(d) > 1})
                    violations.append(InvariantViolation(
                        "dot-uniqueness", node_id,
                        f"{key} applied dots {dupes} more than once",
                        self._now()))
        return violations

    def check_vector_monotonicity(self) -> List[InvariantViolation]:
        """Causal vectors never regress, even across migrations."""
        violations = []
        observed = [(r.node_id, r.vector) for r in self.replicas]
        for dc in self.dcs:
            observed.append((f"{dc.node_id}:state", dc.state_vector))
            observed.append((f"{dc.node_id}:stable", dc.stable_vector))
        for name, vector in observed:
            last = self._last_vectors.get(name)
            if last is not None and not last.leq(vector):
                violations.append(InvariantViolation(
                    "vector-monotonicity", name,
                    f"vector regressed from {last} to {vector}",
                    self._now()))
            self._last_vectors[name] = vector
        return violations

    def required_k(self, dot: Dot) -> int:
        """The stability threshold the gate holds ``dot`` to.

        Partial replication counts only *interested* replicas, so each
        DC computes a per-entry threshold; the gate uses the weakest
        (smallest) one any DC would apply — an edge exposing below even
        that is certainly wrong.  Where nothing is pruned every DC
        answers the global ``k_target`` and this reduces to the classic
        rule.
        """
        if not self.dcs:
            return self.k_target
        return min(dc.required_k(dot) for dc in self.dcs)

    def check_kstability_gate(self) -> List[InvariantViolation]:
        """No edge exposes a foreign txn replicated at fewer than K DCs."""
        violations = []
        for replica in self.replicas:
            for dot in replica.frontier.exposed_dots():
                holders = self.global_holders(dot)
                required = self.required_k(dot)
                if len(holders) < required:
                    violations.append(InvariantViolation(
                        "k-stability-gate", replica.node_id,
                        f"exposes {dot} held only at "
                        f"{sorted(holders)} (K={required})",
                        self._now()))
        return violations

    def check_vector_covers_journals(self) -> List[InvariantViolation]:
        """No vector covers a stable txn its warm journal lacks."""
        stable = {}
        for dc in self.dcs:
            released = self._released[dc.node_id]
            held = dc.stability.released
            for dot, txn in dc.log.txns.items():
                if held(dot):
                    released.setdefault(dot, txn)
            for dot, txn in released.items():
                stable.setdefault(dot, txn)
        violations = []
        ordered = sorted(stable)
        for replica in self.replicas:
            journal = replica.cache.journal
            for dot in ordered:
                for key in replica.frontier.covered_but_missing(
                        stable[dot], journal):
                    violations.append(InvariantViolation(
                        "vector-coverage", replica.node_id,
                        f"vector {replica.vector} covers {dot} on warm "
                        f"{key}, whose journal does not hold it",
                        self._now()))
        return violations

    def check_stream_contiguity(self) -> List[InvariantViolation]:
        """Applied commit streams have no holes below the frontier.

        A DC's state-vector entry for an origin asserts it applied that
        stream contiguously up to the frontier; log shipping must
        never let an ack or frontier advance past a missing position.
        """
        violations = []
        for dc in self.dcs:
            for origin, missing in dc.stream_gaps().items():
                violations.append(InvariantViolation(
                    "stream-contiguity", dc.node_id,
                    f"stream {origin} advertised up to "
                    f"{dc.state_vector[origin]} but misses {missing}",
                    self._now()))
        return violations

    def check_shard_contiguity(self) -> List[InvariantViolation]:
        """Per-shard streams have no unhealed holes.

        A skip-covered position whose shard mask intersects a DC's
        interest set must be filled by backfill; positions missing with
        no backfill in flight mean the interest-change protocol lost
        data.  Vacuous where nothing is pruned (no skip runs).
        """
        violations = []
        for dc in self.dcs:
            gaps = getattr(dc, "shard_stream_gaps", None)
            if gaps is None:
                continue
            for origin, missing in gaps().items():
                violations.append(InvariantViolation(
                    "shard-stream-contiguity", dc.node_id,
                    f"stream {origin}: interested positions {missing} "
                    f"skip-covered with no backfill pending",
                    self._now()))
        return violations

    def check_sessions(self) -> List[InvariantViolation]:
        """Replay new session-log entries for the session guarantees.

        Monotonic reads: the node vector recorded at successive commits
        of one session never regresses (per-key cuts may legitimately
        run ahead of it, so the per-txn snapshot vectors are *not*
        required to be totally ordered).  Read-my-writes: every own
        commit that preceded a transaction's snapshot acquisition is
        covered by that snapshot (as an uncovered local dep or through
        the snapshot vector).
        """
        violations = []
        for replica in self.replicas:
            log = replica.session_log
            start = self._session_cursor.get(replica.node_id, 0)
            prev = log[start - 1] if start else None
            for entry in log[start:]:
                if prev is not None \
                        and not prev.node_vector.leq(entry.node_vector):
                    violations.append(InvariantViolation(
                        "monotonic-reads", replica.node_id,
                        f"session frontier regressed from "
                        f"{prev.node_vector} to {entry.node_vector}",
                        entry.time))
                for dot, _at in \
                        replica._own_commit_log[:entry.own_before]:
                    if dot in entry.local_deps:
                        continue
                    txn = replica.own_transaction(dot)
                    if txn is not None and not txn.commit.is_symbolic \
                            and txn.commit.included_in(
                                entry.snapshot_vector):
                        continue
                    violations.append(InvariantViolation(
                        "read-my-writes", replica.node_id,
                        f"snapshot at t={entry.started_at:.0f} misses "
                        f"own commit {dot}", entry.time))
                prev = entry
            self._session_cursor[replica.node_id] = len(log)
        return violations

    def checkpoint(self) -> List[InvariantViolation]:
        """All safety invariants; callable mid-fault."""
        self.checkpoints_run += 1
        violations = self.check_dot_uniqueness()
        violations += self.check_vector_monotonicity()
        violations += self.check_kstability_gate()
        violations += self.check_vector_covers_journals()
        violations += self.check_stream_contiguity()
        violations += self.check_shard_contiguity()
        violations += self.check_sessions()
        return violations

    # ------------------------------------------------------------------
    # quiescent invariants
    # ------------------------------------------------------------------
    def pipelines_idle(self) -> bool:
        return all(r.pipeline_idle for r in self.replicas)

    def check_convergence(self) -> List[InvariantViolation]:
        """Strong convergence of materialised state at quiescence.

        All DCs must agree exactly; every edge-tier replica must agree
        with the DCs on each key it holds warm.
        """
        violations = []
        if not self.dcs:
            return violations
        reference = self.dcs[0].state_digest()
        for dc in self.dcs[1:]:
            digest = dc.state_digest()
            for key in set(reference) | set(digest):
                if reference.get(key) != digest.get(key):
                    violations.append(InvariantViolation(
                        "strong-convergence", dc.node_id,
                        f"{key}: {digest.get(key)!r} != "
                        f"{self.dcs[0].node_id}'s "
                        f"{reference.get(key)!r}", self._now()))
        for replica in self.replicas:
            digest = replica.state_digest()
            for key, value in digest.items():
                if key in reference and value != reference[key]:
                    violations.append(InvariantViolation(
                        "strong-convergence", replica.node_id,
                        f"{key}: {value!r} != DC {reference[key]!r}",
                        self._now()))
        return violations

    def check_quiescent(self) -> List[InvariantViolation]:
        """Safety + convergence; the final gate of a scenario."""
        violations = self.checkpoint()
        violations += self.check_convergence()
        if not self.pipelines_idle():
            stuck = [r.node_id for r in self.replicas
                     if not r.pipeline_idle]
            violations.append(InvariantViolation(
                "quiescence", ",".join(stuck),
                "pipelines still hold work after the settle window",
                self._now()))
        return violations

    # ------------------------------------------------------------------
    def _now(self) -> float:
        if self.dcs:
            return self.dcs[0].now
        if self.replicas:
            return self.replicas[0].now
        return 0.0
