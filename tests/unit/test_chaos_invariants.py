"""The invariant checker: violation plumbing and planted-bug detection."""

from repro.chaos.invariants import InvariantChecker, InvariantViolation
from repro.chaos.runner import ScenarioConfig, run_scenario, self_check
from repro.core import ObjectKey
from repro.edge import EdgeNode
from repro.sim import LatencyModel, Simulation

from ..conftest import build_cluster, build_edge, run_update


class TestInvariantViolation:
    def test_str_and_dict(self):
        violation = InvariantViolation("dot-uniqueness", "e0",
                                       "k applied twice", 1234.5)
        assert "dot-uniqueness" in str(violation)
        assert "e0" in str(violation)
        data = violation.to_dict()
        assert data == {"invariant": "dot-uniqueness", "node": "e0",
                        "detail": "k applied twice", "time": 1234.5}


class TestHealthyRun:
    def test_fault_free_scenario_passes(self):
        config = ScenarioConfig(topology="group", seed=0, n_txns=8,
                                window_ms=2000.0)
        result = run_scenario(config, schedule=[])
        assert result.ok, [str(v) for v in result.violations]
        assert result.converged
        assert result.txns_committed > 0
        assert result.faults_injected == 0

    def test_result_serialises(self):
        config = ScenarioConfig(topology="group", seed=1, n_txns=6,
                                window_ms=1500.0)
        data = run_scenario(config, schedule=[]).to_dict()
        assert data["topology"] == "group"
        assert data["seed"] == 1
        assert data["ok"] is True
        assert data["schedule"] == []


class TestPlantedBug:
    def test_dot_duplication_is_caught(self):
        # The acceptance gate: a far edge that re-journals a pushed
        # transaction past the dedup index MUST be flagged, and the
        # failing seed must be reported for replay.
        caught, result = self_check(0)
        assert caught
        assert any(v.invariant == "dot-uniqueness"
                   for v in result.violations)
        violation = next(v for v in result.violations
                         if v.invariant == "dot-uniqueness")
        assert violation.node == "far"
        assert result.config.seed == 0


class EagerSeedEdge(EdgeNode):
    """Test double with the planted bug the vector-coverage invariant
    exists for: any seed, even of one key, moves the node vector."""

    def _advance_to_seed(self, seed_vector):
        self.frontier.advance(seed_vector)
        self._after_advance()


class TestVectorCoverage:
    J = ObjectKey("b", "J")
    K = ObjectKey("b", "K")

    def lose_a_push_then_seed_another_key(self, edge_cls):
        sim = Simulation(seed=7, default_latency=LatencyModel(5.0))
        dcs = build_cluster(sim)
        writer = build_edge(sim, "w", interest=[(self.J, "counter")])
        reader = sim.spawn(edge_cls, "r", dc_id="dc0")
        reader.declare_interest(self.J, "counter")
        reader.connect()
        checker = InvariantChecker(dcs, [reader], 1)
        checker.watch(sim.network)
        sim.run_for(200)
        sim.network.partition("dc0", "r")
        run_update(writer, self.J, "counter", "increment", 1)
        sim.run_for(200)
        sim.network.heal("dc0", "r")
        reader.declare_interest(self.K, "counter")
        sim.run_for(100)
        return checker

    def test_partial_seed_past_a_lost_push_is_caught(self):
        checker = self.lose_a_push_then_seed_another_key(EagerSeedEdge)
        violations = checker.checkpoint()
        assert [(v.invariant, v.node) for v in violations] == [
            ("vector-coverage", "r")]
        assert "w@1" in violations[0].detail
        assert "b/J" in violations[0].detail

    def test_the_edge_keeps_its_vector_behind_the_gap(self):
        checker = self.lose_a_push_then_seed_another_key(EdgeNode)
        assert checker.checkpoint() == []
