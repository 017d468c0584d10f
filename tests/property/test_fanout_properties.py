"""Property: an interest-scoped push chain never skips silently.

``SessionFanout`` decides who is sent what and from which cursor; the
edge decides whether to accept (its vector must cover ``prev``) and how
far a seed may move its vector.  This test runs the real fan-out against
a model of the upstream tier (a stable cut over two origin streams) and
model receivers applying the edge's rules, with **any subset of sends
lost** — a single session's push, a whole round, a heartbeat, a seed.

For every interleaving of open / re-open / interest add and remove (with
their one-key seeds) / object fetch / stability round / heartbeat:

* *safety*, after every step: a receiver holds every stable transaction
  on each warm key up to that key's frontier ``merge(vector, seed cut)``
  — its vector never covers what it does not hold;
* *detection*, at the end: after one heartbeat that nobody loses, every
  receiver has either caught up with the stable cut or noticed a gap.
"""

from hypothesis import given, settings, strategies as st

from repro.core import ObjectKey, VectorClock
from repro.dc.fanout import SessionFanout

KEYS = [ObjectKey("p", name) for name in "abc"]
ORIGINS = ["dc0", "dc1"]
N_RECEIVERS = 3


class Upstream:
    """What a DC does around its fan-out: streams, cuts, seeds."""

    def __init__(self):
        self.fanout = SessionFanout()
        self.txns = []                      # (origin, ts, key)
        self.committed = {o: 0 for o in ORIGINS}
        self.stable = VectorClock.zero()
        self.pushed = VectorClock.zero()    # collection cursor

    def commit(self, origin, key):
        self.committed[origin] += 1
        self.txns.append((origin, self.committed[origin], key))

    def on(self, key, cut):
        return {t for t in self.txns
                if t[2] == key and t[1] <= cut[t[0]]}

    def seed_cut(self, receiver):
        return self.stable.merge(receiver.vector)

    def round(self):
        """Everything committed becomes stable; route what is new."""
        self.stable = VectorClock(self.committed)
        new = [t for t in self.txns
               if self.pushed[t[0]] < t[1] <= self.stable[t[0]]]
        self.pushed = self.stable
        return self.fanout.route((([t[2]], t) for t in new),
                                 self.stable.to_dict())


class Receiver:
    """The edge's rules, nothing else."""

    def __init__(self, name):
        self.name = name
        self.interest = set()
        self.cuts = {}                      # warm key -> seed cut
        self.held = set()
        self.vector = VectorClock.zero()
        self.gap = False
        self.session = False                # believes it has a session

    def frontier(self, key):
        return self.vector.merge(self.cuts[key])

    def on_push(self, txns, stable, prev):
        if not self.vector.dominates_dict(prev):
            self.gap = True
            return
        self.held.update(txns)
        self.vector = self.vector.merge_dict(stable)

    def on_seed(self, seeds, cut):
        """``EdgeNode._install_seed`` + ``_advance_to_seed``."""
        for key, txns in seeds.items():
            if key not in self.interest:
                continue
            if key in self.cuts and cut.leq(self.cuts[key]):
                continue
            self.cuts[key] = self.cuts.get(key, VectorClock.zero()) \
                .merge(cut)
            self.held.update(txns)
        floor = cut
        for key in self.cuts:
            floor = floor.meet(self.frontier(key))
        self.vector = self.vector.merge(floor)
        self.session = True

    def drop(self, key):
        self.interest.discard(key)
        self.cuts.pop(key, None)


def _deliver(receivers, sends, lost):
    for session, txns, prev, stable in sends:
        index = int(session.session_id[1:])
        if index not in lost:
            receivers[index].on_push(txns, stable, prev)


lost_st = st.frozensets(st.integers(0, N_RECEIVERS - 1))
receiver_st = st.integers(0, N_RECEIVERS - 1)
key_st = st.sampled_from(KEYS)

op_st = st.one_of(
    st.tuples(st.just("write"), st.sampled_from(ORIGINS), key_st, lost_st),
    st.tuples(st.just("commit"), st.sampled_from(ORIGINS), key_st),
    st.tuples(st.just("round"), lost_st),
    st.tuples(st.just("heartbeat"), lost_st),
    st.tuples(st.just("open"), receiver_st, st.booleans()),
    st.tuples(st.just("add"), receiver_st, key_st, st.booleans()),
    st.tuples(st.just("remove"), receiver_st, key_st),
    st.tuples(st.just("fetch"), receiver_st, key_st, st.booleans()),
)
#: Each receiver's interest set when the run starts (it may be empty).
interests_st = st.lists(st.frozensets(key_st), min_size=N_RECEIVERS,
                        max_size=N_RECEIVERS)


def _step(up, receivers, op):
    kind = op[0]
    if kind == "write":     # the common case: a commit, stable at once
        _step(up, receivers, ("commit", op[1], op[2]))
        _step(up, receivers, ("round", op[3]))
    elif kind == "commit":
        up.commit(op[1], op[2])
    elif kind == "round":
        sends = up.round()
        stable = up.stable.to_dict()
        _deliver(receivers, [(s, t, p, stable) for s, t, p in sends],
                 op[1])
    elif kind == "heartbeat":
        stable = up.stable.to_dict()
        runs = up.fanout.heartbeat(stable)
        _deliver(receivers, [(s, (), prev, stable)
                             for prev, sessions in runs
                             for s in sessions], op[1])
    elif kind == "open":
        r = receivers[op[1]]
        up.fanout.open(r.name, {k: "counter" for k in r.interest})
        cut = up.seed_cut(r)
        up.fanout.restart(r.name, cut.to_dict())
        if not op[2]:
            r.gap = False
            r.on_seed({k: up.on(k, cut) for k in r.interest}, cut)
    elif kind == "add":
        r, key = receivers[op[1]], op[2]
        r.interest.add(key)
        if r.session and key not in \
                up.fanout.sessions[r.name].interest:
            up.fanout.add_interest(r.name, key, "counter")
            cut = up.seed_cut(r)
            if not op[3]:
                r.on_seed({key: up.on(key, cut)}, cut)
    elif kind == "remove":
        r, key = receivers[op[1]], op[2]
        r.drop(key)
        if r.session:
            up.fanout.drop_interest(r.name, key)
    elif kind == "fetch":
        r, key = receivers[op[1]], op[2]
        if r.session and key in r.interest and key in \
                up.fanout.sessions[r.name].interest and not op[3]:
            cut = up.seed_cut(r)
            r.on_seed({key: up.on(key, cut)}, cut)


def _check_safety(up, receivers, trail):
    for r in receivers:
        for key in r.cuts:
            frontier = r.frontier(key)
            missing = {t for t in up.on(key, up.stable)
                       if t[1] <= frontier[t[0]]} - r.held
            assert not missing, (
                f"{r.name} covers {sorted(missing)} on {key} at "
                f"{frontier} without holding them", trail)


class TestFanoutChain:
    @settings(max_examples=400, deadline=None)
    @given(interests=interests_st,
           ops=st.lists(op_st, min_size=1, max_size=30))
    def test_no_round_is_skipped_silently(self, interests, ops):
        up = Upstream()
        receivers = [Receiver(f"r{i}") for i in range(N_RECEIVERS)]
        for i, r in enumerate(receivers):
            r.interest = set(interests[i])
            _step(up, receivers, ("open", i, False))
        for i, op in enumerate(ops):
            _step(up, receivers, op)
            _check_safety(up, receivers, (interests, ops[:i + 1]))
        _step(up, receivers, ("round", frozenset()))
        _step(up, receivers, ("heartbeat", frozenset()))
        _check_safety(up, receivers, ops)
        for r in receivers:
            if r.name in up.fanout.sessions and r.session:
                assert r.gap or up.stable.leq(r.vector), (
                    f"{r.name} lags at {r.vector} behind {up.stable} "
                    f"and saw no gap", ops)

    def test_whole_lost_round_is_caught_by_the_heartbeat(self):
        up = Upstream()
        r = Receiver("r0")
        r.interest = {KEYS[0]}
        everyone = frozenset(range(N_RECEIVERS))
        ops = [("open", 0, False), ("commit", "dc0", KEYS[0]),
               ("round", everyone), ("heartbeat", frozenset())]
        for op in ops:
            _step(up, [r], op)
        assert r.gap and r.vector == VectorClock.zero()
