"""Property tests for peer groups: convergence and SI under randomness."""

from hypothesis import example, given, settings, strategies as st

from repro.core import ObjectKey
from repro.groups import GroupMember, form_group
from repro.sim import LAN, LatencyModel, Simulation

from ..conftest import build_cluster, run_update

KEYS = [ObjectKey("b", name) for name in ("x", "y")]

OWN_KEYS = [ObjectKey("b", f"own{i}") for i in range(3)]


def variant_world(seed, commit_variant, keys):
    sim = Simulation(seed=seed, default_latency=LatencyModel(10.0))
    build_cluster(sim, n_dcs=1, k_target=1)
    members = []
    for i in range(3):
        node = sim.spawn(GroupMember, f"m{i}", dc_id="dc0", group_id="g",
                         parent_id="m0", commit_variant=commit_variant)
        for key in keys:
            node.declare_interest(key, "counter")
        members.append(node)
    for a in members:
        for b in members:
            if a.node_id < b.node_id:
                sim.network.set_link(a.node_id, b.node_id, LAN)
    form_group(members)
    sim.run_for(300)
    for member in members:
        for key in keys:
            def body(tx, k=key):
                return (yield tx.read(k, "counter"))
            member.run_transaction(body)
    sim.run_for(500)
    return sim, members


@settings(max_examples=10, deadline=None)
@given(schedule=st.lists(st.tuples(st.integers(0, 2),
                                   st.integers(0, 400)),
                         min_size=1, max_size=10),
       seed=st.integers(0, 5000))
# As absolute times these two put two steps of m0 on one instant
# (25 + 0 == 0 + 25), which psi rightly aborts.
@example(schedule=[(0, 25), (0, 0)], seed=0)
@example(schedule=[(0, 354)] + [(0, 0)] * 6 + [(0, 179)], seed=0)
def test_tiga_zero_skew_matches_epaxos_path(schedule, seed):
    """With synchronized clocks and no conflicts, the deadline fast
    path is pure mechanism: the converged state must be identical to
    the consensus-on-the-critical-path (EPaxos) variant's, member for
    member, for any update schedule."""
    digests = {}
    for variant in ("tiga", "psi"):
        sim, members = variant_world(seed, variant, OWN_KEYS)
        # Conflict-free by construction: each member only ever updates
        # its own key, and steps are scheduled a drawn *gap* plus 25 ms
        # after one another, which keeps a member's own updates from
        # being concurrent with themselves — so psi never aborts and
        # the digest comparison is exact.
        at_ms = 0.0
        for step, (member_index, gap_ms) in enumerate(schedule):
            at_ms += gap_ms
            sim.loop.schedule(
                at_ms + 25.0 * step,
                (lambda m=members[member_index],
                        k=OWN_KEYS[member_index]:
                 run_update(m, k, "counter", "increment", 1)))
        sim.run_for(20_000)
        digests[variant] = [
            tuple(m.read_value(k, "counter") for k in OWN_KEYS)
            for m in members]
        assert all(m.pipeline_idle for m in members), variant
    assert digests["tiga"] == digests["psi"]

# A step: (member index, key index, action)
step_st = st.tuples(st.integers(0, 2), st.integers(0, 1),
                    st.sampled_from(["update", "advance", "blip"]))


def group_world(seed):
    sim = Simulation(seed=seed, default_latency=LatencyModel(10.0))
    build_cluster(sim, n_dcs=1, k_target=1)
    members = []
    for i in range(3):
        node = sim.spawn(GroupMember, f"m{i}", dc_id="dc0", group_id="g",
                         parent_id="m0")
        for key in KEYS:
            node.declare_interest(key, "counter")
        members.append(node)
    for a in members:
        for b in members:
            if a.node_id < b.node_id:
                sim.network.set_link(a.node_id, b.node_id, LAN)
    form_group(members)
    sim.run_for(300)
    # Warm every member's cache ("all users start with an initialised
    # cache", section 7.3.1): direct cache peeks below then reflect the
    # true visible state rather than a never-fetched cold journal.
    for member in members:
        for key in KEYS:
            def body(tx, k=key):
                return (yield tx.read(k, "counter"))
            member.run_transaction(body)
    sim.run_for(500)
    return sim, members


@settings(max_examples=20, deadline=None)
@given(steps=st.lists(step_st, min_size=1, max_size=12),
       seed=st.integers(0, 5000))
def test_group_converges_under_random_schedules(steps, seed):
    sim, members = group_world(seed)
    expected = {key: 0 for key in KEYS}
    blipped = None
    for member_index, key_index, action in steps:
        member = members[member_index]
        key = KEYS[key_index]
        if action == "update":
            if member is not blipped:
                run_update(member, key, "counter", "increment", 1)
                expected[key] += 1
        elif action == "advance":
            sim.run_for(120.0)
        elif action == "blip" and member_index != 0:
            # A non-parent member drops off the group for a moment.
            if blipped is None:
                blipped = member
                member.disconnect_from_group()
                for other in members:
                    if other is not member:
                        sim.network.partition(member.node_id,
                                              other.node_id)
    if blipped is not None:
        for other in members:
            if other is not blipped:
                sim.network.heal(blipped.node_id, other.node_id)
        blipped.reconnect_to_group()
    sim.run_for(20_000)
    for key in KEYS:
        values = {m.read_value(key, "counter") for m in members}
        assert values == {expected[key]}, (key, values, expected)


@settings(max_examples=15, deadline=None)
@given(burst=st.lists(st.integers(0, 2), min_size=2, max_size=6),
       seed=st.integers(0, 5000))
def test_conflicting_visibility_order_agreement(burst, seed):
    """All members agree on the relative order of conflicting txns."""
    sim, members = group_world(seed)
    key = KEYS[0]
    for member_index in burst:
        run_update(members[member_index], key, "counter", "increment", 1)
    sim.run_for(10_000)
    logs = [[str(t.dot) for t in m.visibility_log if t.touches(key)]
            for m in members]
    assert logs[0] == logs[1] == logs[2]
    assert len(logs[0]) == len(burst)


@settings(max_examples=10, deadline=None)
@given(writers=st.lists(st.integers(0, 2), min_size=1, max_size=5),
       seed=st.integers(0, 5000))
def test_psi_group_agrees_on_aborts(writers, seed):
    """PSI: every member reaches the same commit/abort verdicts — the
    same aborted dots at every member, and those are exactly the aborts
    the writers were told of."""
    sim = Simulation(seed=seed, default_latency=LatencyModel(10.0))
    build_cluster(sim, n_dcs=1, k_target=1)
    members = []
    for i in range(3):
        node = sim.spawn(GroupMember, f"m{i}", dc_id="dc0", group_id="g",
                         parent_id="m0", commit_variant="psi")
        node.declare_interest(KEYS[0], "counter")
        members.append(node)
    for a in members:
        for b in members:
            if a.node_id < b.node_id:
                sim.network.set_link(a.node_id, b.node_id, LAN)
    form_group(members)
    sim.run_for(300)
    outcomes = []
    for writer in writers:
        def body(tx):
            yield tx.update(KEYS[0], "counter", "increment", 1)
        members[writer].run_transaction(
            body, on_done=lambda r, s: outcomes.append("commit"),
            on_abort=lambda e: outcomes.append("abort"))
    sim.run_for(10_000)
    assert len(outcomes) == len(writers)
    verdicts = [m.orderer.aborted for m in members]
    assert verdicts[0] == verdicts[1] == verdicts[2]
    assert len(verdicts[0]) == outcomes.count("abort")
    commits = outcomes.count("commit")
    values = {m.read_value(KEYS[0], "counter") for m in members}
    assert values == {commits}


# ----------------------------------------------------------------------
# indexed PSI certification == the full reverse scan it replaced
# ----------------------------------------------------------------------
CERT_KEYS = [ObjectKey("b", f"k{i}") for i in range(3)]
CERT_DCS = ["dc0", "dc1"]


def full_scan_conflicts(visibility_log, txn):
    """The oracle: ``GroupMember._psi_conflicts`` as it was, a scan of
    the whole log, before certification was indexed (kept verbatim)."""
    for prior in reversed(visibility_log):
        if not prior.conflicts_with(txn):
            continue
        if prior.dot in txn.snapshot.local_deps:
            continue
        if not prior.commit.is_symbolic \
                and prior.commit.included_in(txn.snapshot.vector):
            continue
        return True
    return False


stamp_st = st.dictionaries(st.sampled_from(CERT_DCS), st.integers(1, 12),
                           max_size=2)
keys_st = st.lists(st.sampled_from(CERT_KEYS), min_size=1, max_size=3)
cert_step_st = st.one_of(
    # Append a writer of `keys` to the log, its stamp as given.
    st.tuples(st.just("log"), keys_st, stamp_st),
    # A DC acknowledgement reaches an entry already in the log.
    st.tuples(st.just("ack"), st.integers(0, 40),
              st.sampled_from(CERT_DCS), st.integers(1, 12)),
    # Certify a candidate: keys, snapshot vector, which log entries
    # (by position modulo the log length) it names as local deps.
    st.tuples(st.just("certify"), keys_st, stamp_st,
              st.lists(st.integers(0, 40), max_size=4)))


@settings(max_examples=300, deadline=None)
@given(steps=st.lists(cert_step_st, min_size=1, max_size=40))
def test_indexed_certification_equals_full_log_scan(steps):
    """Arbitrary logs, snapshots and commit-stamp states — including
    stamps that resolve late, never, or at different DCs, between two
    certifications that share the index's cached per-key floors."""
    from repro.core import (CommitStamp, Dot, Snapshot, Transaction,
                            VectorClock, WriteOp)
    from repro.crdt import Counter
    from repro.groups.certification import LogWriters

    def txn(counter, keys, stamp, vector=None, deps=()):
        op = Counter().prepare("increment", 1)
        return Transaction(
            dot=Dot(counter, "m"), origin="m",
            snapshot=Snapshot(VectorClock(vector or {}), deps),
            commit=CommitStamp(stamp),
            writes=[WriteOp(key, op) for key in keys])

    log, index = [], LogWriters()
    for number, step in enumerate(steps, start=1):
        if step[0] == "log":
            entry = txn(number, step[1], step[2])
            log.append(entry)
            index.add(entry)
        elif step[0] == "ack":
            if log:
                acked = log[step[1] % len(log)]
                if step[2] not in acked.commit.entries:
                    acked.commit = acked.commit.with_entry(step[2], step[3])
        else:
            deps = [log[i % len(log)].dot for i in step[3]] if log else []
            candidate = txn(number, step[1], {}, vector=step[2],
                            deps=deps)
            assert index.conflicts(candidate) \
                == full_scan_conflicts(log, candidate)
