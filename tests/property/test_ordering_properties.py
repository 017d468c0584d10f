"""The group orderers, driven with no world: FIFO links interleaved in
any order, message drops, then a heal.

* :class:`ConsensusOrder` releases every proposed transaction once at
  every member, interfering ones in one sequence everywhere.
* :class:`DeadlineOrder` releases every proposed transaction exactly
  once at every member, and what it releases in deadline order keeps
  one relative order everywhere.
* A fast round that cannot gather its quorum is withdrawn and comes
  back through the EPaxos fallback.
"""

from hypothesis import given, settings, strategies as st

from repro.epaxos import TigaAck, TigaSequencer
from repro.groups.ordering import ConsensusOrder, DeadlineOrder

from ..orderers import KEYS, OrderGroup

message_st = st.one_of(
    st.tuples(st.just("propose"), st.integers(0, 4), st.integers(0, 1)),
    st.tuples(st.just("deliver"), st.integers(0, 50)),
    st.tuples(st.just("drop"), st.integers(0, 50)))
step_st = st.one_of(message_st,
                    st.tuples(st.just("advance"), st.floats(0.0, 500.0)))


def run(group: OrderGroup, steps) -> None:
    for step in steps:
        if step[0] == "propose":
            name = group.names[step[1] % len(group.names)]
            group.propose(name, KEYS[step[2]])
        elif step[0] == "advance":
            group.advance(step[1])
            group.tick()
        elif step[0] == "deliver" and group.in_flight:
            heads = group.heads()
            group.deliver(heads[step[1] % len(heads)])
        elif group.in_flight:
            group.drop(step[1] % len(group.in_flight))
    group.settle()


def once_each(group: OrderGroup, name: str) -> bool:
    dots = group.dots(name)
    return len(dots) == len(set(dots))


@settings(max_examples=150, deadline=None)
@given(n=st.sampled_from([3, 5]),
       steps=st.lists(step_st, min_size=1, max_size=40))
def test_consensus_releases_one_sequence_per_key(n, steps):
    """Time passes between messages, so own instances are re-sent and
    blocked ones recovered while replies to earlier rounds are still in
    flight; each reply counts once per replier and round."""
    group = OrderGroup([f"m{i}" for i in range(n)], ConsensusOrder)
    run(group, steps)
    for key in KEYS:
        orders = {tuple(d for d in group.dots(name)
                        if group.proposed[d].touches(key))
                  for name in group.names}
        assert len(orders) == 1, orders
    for name in group.names:
        assert once_each(group, name), name
        assert set(group.dots(name)) == set(group.proposed), name


@settings(max_examples=150, deadline=None)
@given(n=st.sampled_from([3, 5]),
       steps=st.lists(step_st, min_size=1, max_size=40))
def test_deadline_releases_each_dot_once_in_one_deadline_order(n, steps):
    group = OrderGroup([f"m{i}" for i in range(n)], DeadlineOrder)
    run(group, steps)
    for name in group.names:
        assert once_each(group, name), name
        assert set(group.dots(name)) == set(group.proposed), name
    # Releases that came in deadline order keep one relative order.
    position = [{dot: i for i, (dot, fast)
                 in enumerate(group.released[name]) if fast}
                for name in group.names]
    fast_dots = set().union(*position)
    for a in fast_dots:
        for b in fast_dots:
            before = {pos[a] < pos[b] for pos in position
                      if a in pos and b in pos}
            assert len(before) <= 1, (a, b)


@settings(max_examples=50, deadline=None)
@given(n=st.sampled_from([3, 5]),
       steps=st.lists(step_st, min_size=0, max_size=30))
def test_withdrawn_fast_round_comes_back_through_consensus(n, steps):
    """No ack ever reaches the coordinator: its round times out, is
    withdrawn, and EPaxos releases the transaction everywhere."""
    group = OrderGroup([f"m{i}" for i in range(n)], DeadlineOrder)
    dot = group.propose("m0")

    def no_acks(src, dst, payload):
        return not (dst == "m0" and isinstance(payload, TigaAck))

    for step in steps:
        if step[0] == "advance":
            group.advance(step[1])
            group.tick()
        group.deliver_all(no_acks)
    group.advance(TigaSequencer.ROUND_TIMEOUT_MS + 100.0)
    group.tick()
    group.settle()
    assert group.orders["m0"].stats["fallbacks"] == 1
    assert not group.committed["m0"]
    for name in group.names:
        assert group.released[name] == [(dot, False)], name
