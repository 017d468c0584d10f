"""End-to-end chaos scenarios: every topology, replayable seeds."""

import pytest

from repro.chaos import runner
from repro.chaos.runner import (KEYS, TOPOLOGIES, ScenarioConfig,
                                build_world, run_scenario, run_suite)
from repro.chaos.schedule import FaultEvent
from repro.groups import GroupMember


@pytest.mark.parametrize("topology", TOPOLOGIES)
def test_seeded_scenario_passes(topology):
    config = ScenarioConfig(topology=topology, seed=0, n_txns=12,
                            window_ms=3000.0, max_faults=4)
    result = run_scenario(config)
    assert result.ok, [str(v) for v in result.violations]
    assert result.converged
    assert result.faults_injected > 0


@pytest.mark.parametrize("topology", TOPOLOGIES)
def test_partial_interest_scenario_passes(topology):
    """``--interest partial``: sessions outside a round's audience, at
    the DC and below a relay, under faults."""
    config = ScenarioConfig(topology=topology, seed=0, n_txns=12,
                            window_ms=3000.0, max_faults=4,
                            partial_interest=True)
    result = run_scenario(config)
    assert result.ok, [str(v) for v in result.violations]
    assert result.converged
    assert result.to_dict()["partial_interest"] is True


@pytest.mark.parametrize("topology", TOPOLOGIES)
def test_partial_interest_world_has_narrow_sessions(topology):
    world = build_world(topology, 0, partial_interest=True)
    held = {r.node_id: r.cache.keys() for r in world.replicas}
    everything = {key for key, _type in KEYS}
    narrow = "e1" if topology == "pop" else "m2"
    assert set(world.narrow) == {"by", narrow}
    assert held["by"] < everything and held[narrow] < everything
    assert held["by"] | held[narrow] == everything
    assert held["by"].isdisjoint(held[narrow])
    assert "by" in world.dcs[0].sessions        # DC-facing
    assert all(held[node] == everything
               for node in held if node not in world.narrow)
    # Without the flag nothing changes: no bystander, nobody narrow.
    plain = build_world(topology, 0)
    assert plain.narrow == {}
    assert "by" not in plain.actors
    assert "partial_interest" not in run_scenario(
        ScenarioConfig(topology=topology, seed=0, n_txns=2,
                       window_ms=600.0), schedule=[]).to_dict()


def test_member_resync_across_cuts_keeps_vector_coverage():
    """Regression (``--topology tree --seed 139 --interest partial``): a
    member's warm-set resync is answered key by key, and over a lossy
    link the replies are cut at different vectors with the relays in
    between refused.  Advancing to the merge of the replies' cuts — the
    rule before ``EdgeNode._advance_to_seed`` — made m2's vector cover
    transactions its earlier-cut key never received."""
    result = run_scenario(ScenarioConfig(topology="tree", seed=139,
                                         partial_interest=True))
    assert result.ok, [str(v) for v in result.violations]


def test_duplicate_remote_request_is_sequenced_once():
    """Regression (``--topology pop --seed 74``, shrunk; also ``tree``
    197 and ``--interest partial`` ``pop`` 85): ``far`` retries a remote
    transaction across a DC isolation, the duplicate ``RemoteTxnRequest``
    runs its 2PC beside the first copy's, and both completions reached
    the sequencer — one dot at positions 13 *and* 14 of dc0's stream,
    and the next flush died in ``encode_stream_entry`` (``ValueError:
    stream position ... contradicts commit entry``).  ``CommitLog.
    sequence`` now refuses a dot the log holds."""
    schedule = [
        FaultEvent(2099.0, "dc_isolate", ("dc1",), duration=1465.0),
        FaultEvent(4429.0, "partition", ("dc0", "dc1"), duration=1022.0),
        FaultEvent(5527.0, "blackout", ("e0",), duration=1231.0),
        FaultEvent(6035.0, "dc_isolate", ("dc1",), duration=1613.0),
        FaultEvent(6344.0, "migrate", ("far", "dc0")),
    ]
    result = run_scenario(ScenarioConfig(topology="pop", seed=74),
                          schedule=schedule)
    assert result.ok, [str(v) for v in result.violations]
    assert result.converged


def test_sync_point_seeds_group_txns_awaiting_their_stamp():
    """Regression (``--interest partial --topology group --seed 495``):
    a sync point cuts the seeds it serves by commit stamp, and a
    transaction it first received through the group kept its symbolic
    stamp until the CommitAck although the covering push had already
    moved the vector, so a member resyncing in between was seeded
    without it at a cut that claimed it.  ``EdgeNode._on_update_push``
    now adopts the pushed stamp for a dot it already holds."""
    result = run_scenario(ScenarioConfig(topology="group", seed=495,
                                         partial_interest=True))
    assert result.ok, [str(v) for v in result.violations]


def test_sync_point_seed_after_migration_keeps_vector_coverage():
    """Regression (``--topology group --seed 27``, full interest, shrunk
    to its two faults): the same seeding bug without any narrowed
    interest.  After sync point m0's migration, m1's blackout ends in a
    resync that m0 answers 1 ms after the push covering ``m2@13``: its
    copy of ``m2@13`` was still symbolic, so the seeds left it out while
    their cut ``dc1:15`` covered it.  Vector coverage now runs in every
    mode, so this is checked at full interest too."""
    schedule = [
        FaultEvent(1311.0, "migrate", ("m0", "dc1")),
        FaultEvent(4307.0, "blackout", ("m1",), duration=1400.0),
    ]
    result = run_scenario(ScenarioConfig(topology="group", seed=27),
                          schedule=schedule)
    assert result.ok, [str(v) for v in result.violations]
    assert result.converged


def test_member_back_from_churn_with_nothing_warm_learns_the_vector():
    """Regression (``--interest partial --topology group --seed 102``,
    shrunk to its one fault): narrowed member m2 had never fetched, so
    nothing was warm when it came back from churn behind the relays.  Its
    resync had nothing to fetch, the vector was never learned, and the
    transactions queued for visibility waited on it for good.  With
    nothing warm the resync now fetches the interest set."""
    schedule = [FaultEvent(3097.0, "churn", ("m2",), duration=630.0)]
    result = run_scenario(ScenarioConfig(topology="group", seed=102,
                                         partial_interest=True),
                          schedule=schedule)
    assert result.ok, [str(v) for v in result.violations]
    assert result.converged


def test_a_seed_folds_only_what_its_cut_covers():
    """Regression (``--topology tree --seed 54``, shrunk to its three
    faults): the sync point m0, migrated to a dc0 cut off from dc1,
    re-opened its session declaring ``m0@10``, stamped by dc0 alone.
    The DC read the seed of s0 at its stable cut *plus* that dependency,
    so the base folded a dot the cut did not cover; m0 then seeded m2
    from its cache, and m2 showed ``m0@10`` held at one DC with K=2.  A
    seed's base now folds only what its cut covers."""
    schedule = [
        FaultEvent(3756.9859442727134, "churn", ("m2",),
                   duration=1880.576880633816),
        FaultEvent(4922.294993446383, "dc_isolate", ("dc1",),
                   duration=303.8371462594595),
        FaultEvent(5282.097959063816, "migrate", ("m0", "dc0"))]
    result = run_scenario(ScenarioConfig(topology="tree", seed=54),
                          schedule=schedule)
    assert result.ok, [str(v) for v in result.violations]
    assert result.converged


def test_an_own_commit_waiting_for_its_release_is_not_settled():
    """Regression (``--commit-variant tiga --topology group --seed 24``,
    shrunk to its three faults): m1's rounds fell back to EPaxos, whose
    Commits the sync point m0 lost across its blackout and partition.
    m1 held its own ``m1@12``..``m1@14`` in ``_psi_pending`` until their
    release, and in that window they counted as settled (not in
    ``unacked``), so m1 stopped re-sending the Commits: m0 never
    released them, and never shipped them or what followed them.  An
    own commit is settled only once released and stamped."""
    schedule = [
        FaultEvent(4490.010692785593, "churn", ("m1",),
                   duration=1599.9522974953188),
        FaultEvent(5240.25659869739, "blackout", ("m0",),
                   duration=492.7644891513569),
        FaultEvent(5981.981033682309, "partition", ("m0", "m1"),
                   duration=427.7638061733386)]
    result = run_scenario(ScenarioConfig(topology="group", seed=24,
                                         commit_variant="tiga"),
                          schedule=schedule)
    assert result.ok, [str(v) for v in result.violations]
    assert result.converged


@pytest.mark.xfail(strict=True, raises=AssertionError,
                   reason="known failure 3(c): certification reads commit "
                   "stamps, which resolve at different times on different "
                   "members (DESIGN §9)")
def test_psi_members_agree_on_every_verdict(monkeypatch):
    """``--commit-variant psi --topology group --seed 1``: as the CLI
    runs it, the sync point m0 certifies and ships ``m1@5``, ``m1@6``,
    ``m2@10`` and ``m2@13``, which their writers m1 and m2 abort.  In
    NMSI's terms, an abort reported for a transaction that committed."""
    worlds = []

    def build(*args, **kwargs):
        worlds.append(build_world(*args, **kwargs))
        return worlds[-1]

    monkeypatch.setattr(runner, "build_world", build)
    run_scenario(ScenarioConfig(topology="group", seed=1,
                                commit_variant="psi"))
    verdicts = {name: frozenset(actor.orderer.aborted)
                for name, actor in worlds[0].actors.items()
                if isinstance(actor, GroupMember)}
    assert len(set(verdicts.values())) == 1, verdicts


def test_same_seed_replays_identically():
    """The acceptance property: (seed, schedule) -> identical outcome."""
    config = ScenarioConfig(topology="group", seed=3, n_txns=10,
                            window_ms=2500.0, max_faults=4)
    first = run_scenario(config)
    second = run_scenario(config)
    assert first.to_dict() == second.to_dict()


def test_explicit_schedule_replay():
    """A saved failing schedule re-runs exactly (the --replay path)."""
    schedule = [
        FaultEvent(1400.0, "partition", ("dc0", "dc1"), duration=800.0),
        FaultEvent(1900.0, "offline", ("far",), duration=600.0),
    ]
    config = ScenarioConfig(topology="group", seed=5, n_txns=10,
                            window_ms=2500.0)
    first = run_scenario(config, schedule=schedule)
    second = run_scenario(config, schedule=schedule)
    assert first.to_dict() == second.to_dict()
    assert first.faults_injected == 2


def test_run_suite_report_shape():
    report = run_suite([0], ["group"],
                       config_kwargs={"n_txns": 8, "window_ms": 2000.0},
                       shrink=False)
    assert report["benchmark"] == "chaos_harness"
    assert report["totals"]["scenarios"] == 1
    assert report["totals"]["passed"] == 1
    assert report["ok"] is True
    (scenario,) = report["scenarios"]
    assert scenario["topology"] == "group"
    assert scenario["checkpoints_run"] > 0


def test_crash_recover_timer_lifecycle():
    """Regression: process crash/recover must not resurrect stale timers.

    A ``crash`` fault fail-stops a group member's process and recovers
    it mid-window.  Before the timer-epoch fix, timers armed before the
    crash (retry/keepalive callbacks closing over pre-crash state) fired
    into the recovered actor and corrupted its retry bookkeeping.  The
    scenario converging with zero invariant violations — and replaying
    byte-identically — is the regression guard.
    """
    schedule = [
        FaultEvent(1200.0, "crash", ("m1",), duration=700.0),
        FaultEvent(1600.0, "crash", ("far",), duration=500.0),
        # Overlapping windows on one node: recover only after the last.
        FaultEvent(2100.0, "crash", ("m1",), duration=400.0),
        FaultEvent(2300.0, "crash", ("m1",), duration=600.0),
    ]
    config = ScenarioConfig(topology="group", seed=11, n_txns=12,
                            window_ms=3000.0)
    first = run_scenario(config, schedule=schedule)
    assert first.ok, [str(v) for v in first.violations]
    assert first.converged
    assert first.faults_injected == 4
    second = run_scenario(config, schedule=schedule)
    assert first.to_dict() == second.to_dict()


def test_generated_schedules_can_include_crashes():
    """crash_nodes opts a spec into generated crash faults."""
    from repro.chaos.schedule import FaultSpec, generate_schedule

    spec = FaultSpec(crash_nodes=["m1", "m2"])
    events = [e for s in range(8)
              for e in generate_schedule(s, spec, start=500.0,
                                         window=2000.0)]
    assert events and all(e.kind == "crash" for e in events)
    assert {t for e in events for t in e.targets} <= {"m1", "m2"}
