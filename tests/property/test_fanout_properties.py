"""Property: an interest-scoped push chain never skips silently.

``SessionFanout`` decides who is sent what and from which cursor; the
edge decides whether to accept (its vector must cover ``prev``) and how
far a seed may move its vector.  This test runs the real fan-out against
a model of the upstream tier (a stable cut over two origin streams) and
**real** ``EdgeNode`` receivers, handed real ``SessionAck`` /
``ObjectResponse`` / ``UpdatePush`` messages by the test instead of by a
network, so that **any subset of sends can be lost** — a single
session's push, a whole round, a heartbeat, a seed.

For every interleaving of open / re-open / interest add and remove (with
their one-key seeds) / object fetch / stability round / heartbeat:

* *safety*, after every step: an edge holds every stable transaction on
  each warm key up to that key's frontier ``merge(vector, seed cut)``
  — its vector never covers what it does not hold;
* *detection*, at the end: after one heartbeat that nobody loses, every
  edge that believes its session open has caught up with the stable cut
  (one that saw a gap has closed it and is re-opening).
"""

from hypothesis import example, given, settings, strategies as st

from repro.core import (CommitStamp, Dot, ObjectKey, Snapshot, Transaction,
                        VectorClock, WriteOp)
from repro.core.journal import ObjectJournal, ObjectState
from repro.crdt import Counter
from repro.dc.fanout import SessionFanout
from repro.dc.messages import ObjectResponse, SessionAck, UpdatePush
from repro.edge import EdgeNode
from repro.sim import LatencyModel, Simulation

KEYS = [ObjectKey("p", name) for name in "abc"]
ORIGINS = ["dc0", "dc1"]
N_RECEIVERS = 3
UP = "up"           # the edges' ``connected_dc``; nobody listens there


class Upstream:
    """What a DC does around its fan-out: streams, cuts, seeds."""

    def __init__(self):
        self.fanout = SessionFanout()
        self.txns = []
        self.committed = {o: 0 for o in ORIGINS}
        self.stable = VectorClock.zero()
        self.pushed = VectorClock.zero()    # collection cursor

    def commit(self, origin, key):
        self.committed[origin] += 1
        ts = self.committed[origin]
        self.txns.append(Transaction(
            Dot(ts, origin), origin, Snapshot(VectorClock()),
            CommitStamp({origin: ts}),
            [WriteOp(key, Counter().prepare("increment", 1))]))

    def on(self, key, cut):
        return [t for t in self.txns
                if t.touches(key) and t.commit.included_in(cut)]

    def seed(self, key, cut):
        journal = ObjectJournal(key, "counter")
        for txn in self.on(key, cut):
            journal.append(txn)
        journal.advance_base(lambda entry: True)
        return ObjectState.of(key, "counter", journal.materialise(),
                              journal.base_dots)

    def round(self):
        """Everything committed becomes stable; route what is new."""
        self.stable = VectorClock(self.committed)
        new = [t for t in self.txns
               if not t.commit.included_in(self.pushed)]
        self.pushed = self.stable
        return self.fanout.route(
            ((t.keys, t) for t in new), self.stable.to_dict())


def _deliver(edges, sends, lost):
    for session, txns, prev, stable in sends:
        index = int(session.session_id[1:])
        if index not in lost:
            edges[index].on_message(
                UpdatePush(tuple(t.handoff() for t in txns), stable, prev),
                UP)


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
#: Each edge's interest set when the run starts (it may be empty).
interests_st = st.lists(st.frozensets(key_st), min_size=N_RECEIVERS,
                        max_size=N_RECEIVERS)


def _step(up, edges, op):
    kind = op[0]
    if kind == "write":     # the common case: a commit, stable at once
        _step(up, edges, ("commit", op[1], op[2]))
        _step(up, edges, ("round", op[3]))
    elif kind == "commit":
        up.commit(op[1], op[2])
    elif kind == "round":
        sends = up.round()
        stable = up.stable.to_dict()
        _deliver(edges, [(s, t, p, stable) for s, t, p in sends], op[1])
    elif kind == "heartbeat":
        stable = up.stable.to_dict()
        runs = up.fanout.heartbeat(stable)
        _deliver(edges, [(s, (), prev, stable)
                         for prev, sessions in runs
                         for s in sessions], op[1])
    elif kind == "open":    # also a re-open, wanted by the edge or not
        edge = edges[op[1]]
        interest = [key for key, _t in edge.cache.interest()]
        up.fanout.open(edge.node_id, {k: "counter" for k in interest})
        cut = up.stable.merge(edge.vector)
        up.fanout.restart(edge.node_id, cut.to_dict())
        if not op[2]:
            edge.on_message(SessionAck(
                UP, tuple(up.seed(k, cut) for k in interest),
                cut.to_dict()), UP)
    elif kind == "add":
        edge, key = edges[op[1]], op[2]
        edge.declare_interest(key, "counter")
        session = up.fanout.sessions.get(edge.node_id)
        if edge.session_open and key not in session.interest:
            up.fanout.add_interest(edge.node_id, key, "counter")
            cut = up.stable.merge(edge.vector)
            if not op[3]:
                edge.on_message(SessionAck(UP, (up.seed(key, cut),),
                                           cut.to_dict()), UP)
    elif kind == "remove":
        edge, key = edges[op[1]], op[2]
        told = edge.session_open
        edge.retract_interest(key)
        if told:
            up.fanout.drop_interest(edge.node_id, key)
    elif kind == "fetch":
        edge, key = edges[op[1]], op[2]
        session = up.fanout.sessions.get(edge.node_id)
        if edge.session_open and key in edge.cache \
                and key in session.interest and not op[3]:
            cut = up.stable.merge(edge.vector)
            edge.on_message(ObjectResponse(up.seed(key, cut),
                                           cut.to_dict()), UP)


def _check_safety(up, edges, trail):
    for edge in edges:
        for key, cut in edge.frontier.key_cut.items():
            frontier = edge.vector.merge(cut)
            journal = edge.cache.journal(key)
            missing = [t.dot for t in up.on(key, frontier)
                       if not journal.has(t.dot)]
            assert not missing, (
                f"{edge.node_id} covers {missing} on {key} at "
                f"{frontier} without holding them", trail)


def _world(interests):
    sim = Simulation(seed=0, default_latency=LatencyModel(5.0))
    up = Upstream()
    edges = [sim.spawn(EdgeNode, f"r{i}", dc_id=UP)
             for i in range(N_RECEIVERS)]
    for i, edge in enumerate(edges):
        for key in KEYS:
            if key in interests[i]:
                edge.declare_interest(key, "counter")
        _step(up, edges, ("open", i, False))
    return up, edges


class TestFanoutChain:
    # Pinned: a push is lost, then a one-key seed (an interest add's
    # answer, a fetch) arrives at a later cut — merging that cut into
    # the vector would cover the lost transaction for good.
    @example(interests=[frozenset(KEYS[:1]), frozenset(), frozenset()],
             ops=[("write", "dc0", KEYS[0], frozenset({0})),
                  ("add", 0, KEYS[1], False)])
    @example(interests=[frozenset(KEYS[:2]), frozenset(), frozenset()],
             ops=[("write", "dc0", KEYS[0], frozenset({0})),
                  ("fetch", 0, KEYS[1], False)])
    @settings(max_examples=400, deadline=None)
    @given(interests=interests_st,
           ops=st.lists(op_st, min_size=1, max_size=30))
    def test_no_round_is_skipped_silently(self, interests, ops):
        up, edges = _world(interests)
        for i, op in enumerate(ops):
            _step(up, edges, op)
            _check_safety(up, edges, (interests, ops[:i + 1]))
        _step(up, edges, ("round", frozenset()))
        _step(up, edges, ("heartbeat", frozenset()))
        _check_safety(up, edges, (interests, ops))
        for edge in edges:
            # A refused push closes the session (and asks for a new one).
            assert not edge.session_open or up.stable.leq(edge.vector), (
                f"{edge.node_id} lags at {edge.vector} behind "
                f"{up.stable} and saw no gap", (interests, ops))

    def test_whole_lost_round_is_caught_by_the_heartbeat(self):
        up, edges = _world([{KEYS[0]}, set(), set()])
        everyone = frozenset(range(N_RECEIVERS))
        for op in [("commit", "dc0", KEYS[0]), ("round", everyone),
                   ("heartbeat", frozenset())]:
            _step(up, edges, op)
        assert not edges[0].session_open
        assert edges[0].vector == VectorClock.zero()
        # The bystanders were never owed that round: they just catch up.
        assert all(e.session_open and e.vector == up.stable
                   for e in edges[1:])
