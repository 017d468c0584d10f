"""Property: TCC+ invariants hold under *any* small fault schedule.

Hypothesis draws a random fault schedule against the group topology's
fault spec — random kinds, targets, times, durations, loss rates — and
the scenario must still satisfy every safety invariant and converge once
the faults heal.  This is the generative sibling of the seeded CLI
matrix (``python -m repro.chaos``): seeds explore deterministic corners,
hypothesis explores the schedule space and shrinks its own failures.
"""

from hypothesis import example, given, settings, strategies as st

from repro.chaos.runner import ScenarioConfig, build_world, run_scenario
from repro.chaos.schedule import FaultEvent

START = 1200.0       # the warmed-up world starts at t=1200ms
WINDOW = 2500.0

_SPEC = build_world("group", 0).spec
_LINKS = _SPEC.faultable_links


def _event_st():
    time_st = st.floats(START, START + WINDOW - 300.0)
    duration_st = st.floats(150.0, 1500.0)
    link_st = st.sampled_from(_LINKS)
    partition = st.builds(
        lambda t, link, d: FaultEvent(t, "partition", link, duration=d),
        time_st, link_st, duration_st)
    loss = st.builds(
        lambda t, link, d, r: FaultEvent(t, "loss", link, rate=r,
                                         duration=d),
        time_st, link_st, duration_st, st.floats(0.05, 0.8))
    blackout = st.builds(
        lambda t, node, d: FaultEvent(t, "blackout", (node,), duration=d),
        time_st, st.sampled_from(_SPEC.blackout_nodes), duration_st)
    offline = st.builds(
        lambda t, node, d: FaultEvent(t, "offline", (node,), duration=d),
        time_st, st.sampled_from(_SPEC.offline_nodes), duration_st)
    churn = st.builds(
        lambda t, node, d: FaultEvent(t, "churn", (node,), duration=d),
        time_st, st.sampled_from(_SPEC.churn_nodes), duration_st)
    isolate = st.builds(
        lambda t, dc, d: FaultEvent(t, "dc_isolate", (dc,), duration=d),
        time_st, st.sampled_from(_SPEC.dcs), duration_st)
    return st.one_of(partition, loss, blackout, offline, churn, isolate)


def _sorted_schedule(events):
    return sorted(events, key=lambda e: e.time)


schedule_st = st.lists(_event_st(), min_size=1, max_size=4) \
    .map(_sorted_schedule)


class TestChaosProperties:
    # Pinned: the sync point re-opens after a blackout and its push
    # chain must restart at the seed cut — restarted at the vector it
    # declared, the next relay names a prev the members already cover
    # and they skip what they missed ([strong-convergence] at m1).
    @example(schedule=[FaultEvent(1200.0, "blackout", ("m0",),
                                  duration=547.0)])
    @settings(max_examples=5, deadline=None)
    @given(schedule=schedule_st)
    def test_invariants_hold_under_random_faults(self, schedule):
        config = ScenarioConfig(topology="group", seed=0, n_txns=10,
                                window_ms=WINDOW)
        result = run_scenario(config, schedule=schedule)
        assert result.ok, (
            [str(v) for v in result.violations],
            [e.to_dict() for e in schedule])
        assert result.converged
