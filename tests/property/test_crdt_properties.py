"""Property-based CRDT tests: convergence under concurrent schedules.

Model: replicas advance in *rounds*.  In each round every replica prepares
one operation against its current state (so each op causally follows all
ops of earlier rounds, and ops within a round are concurrent).  Delivery
respects causal order (round by round), but within a round each replica
applies the concurrent ops in a different order.  Strong convergence
requires identical values everywhere afterwards.
"""

from hypothesis import given, settings, strategies as st

from repro.crdt import new_crdt

REPLICAS = ("a", "b", "c")

# Per-type operation generators: (method, args_strategy).
VALUES = st.integers(min_value=0, max_value=5)


def op_strategy(type_name):
    if type_name in ("counter", "pncounter"):
        return st.tuples(st.sampled_from(["increment", "decrement"]),
                         st.tuples(st.integers(0, 10)))
    if type_name in ("lwwregister", "mvregister"):
        return st.tuples(st.just("assign"), st.tuples(VALUES))
    if type_name == "gset":
        return st.tuples(st.just("add"), st.tuples(VALUES))
    if type_name == "orset":
        return st.tuples(st.sampled_from(["add", "add", "remove"]),
                         st.tuples(VALUES))
    if type_name == "rwset":
        return st.tuples(st.sampled_from(["add", "add", "remove"]),
                         st.tuples(VALUES))
    if type_name in ("ewflag", "dwflag"):
        return st.tuples(st.sampled_from(["enable", "disable"]),
                         st.just(()))
    if type_name in ("gmap", "ormap"):
        inner = st.tuples(st.sampled_from(["k1", "k2"]),
                          st.just("counter"), st.just("increment"),
                          st.integers(1, 3))
        return st.tuples(st.just("update"), inner)
    raise AssertionError(type_name)


def rounds_strategy(type_name, max_rounds=4):
    return st.lists(
        st.lists(op_strategy(type_name), min_size=len(REPLICAS),
                 max_size=len(REPLICAS)),
        min_size=1, max_size=max_rounds)


def run_schedule(type_name, rounds):
    """Execute the round-based schedule; return the replica states."""
    replicas = {r: new_crdt(type_name) for r in REPLICAS}
    counter = 0
    for round_index, round_ops in enumerate(rounds):
        prepared = []
        for replica_name, (method, args) in zip(REPLICAS, round_ops):
            source = replicas[replica_name]
            try:
                op = source.prepare(method, *args)
            except Exception:
                continue  # e.g. invalid index ops; skip
            counter += 1
            prepared.append(op.with_tag((counter, replica_name, 0)))
        # Deliver the concurrent ops in a different order per replica.
        orders = {
            "a": prepared,
            "b": list(reversed(prepared)),
            "c": sorted(prepared, key=lambda o: o.tag[1]),
        }
        for replica_name, ordered in orders.items():
            for op in ordered:
                replicas[replica_name].apply(op)
    return replicas


CONVERGENT_TYPES = ["counter", "pncounter", "lwwregister", "mvregister",
                    "gset", "orset", "rwset", "ewflag", "dwflag", "gmap",
                    "ormap"]


def make_convergence_test(type_name):
    @settings(max_examples=30, deadline=None)
    @given(rounds=rounds_strategy(type_name))
    def test(rounds):
        replicas = run_schedule(type_name, rounds)
        values = [replicas[r].value() for r in REPLICAS]
        assert values[0] == values[1] == values[2]
    test.__name__ = f"test_{type_name}_strong_convergence"
    return test


for _type in CONVERGENT_TYPES:
    globals()[f"test_{_type}_strong_convergence"] = \
        make_convergence_test(_type)


@settings(max_examples=30, deadline=None)
@given(rounds=rounds_strategy("orset"))
def test_orset_serialisation_stable_under_schedule(rounds):
    from repro.crdt import ORSet
    replicas = run_schedule("orset", rounds)
    for name in REPLICAS:
        state = replicas[name]
        assert ORSet.from_dict(state.to_dict()).value() == state.value()


@settings(max_examples=30, deadline=None)
@given(items=st.lists(st.tuples(st.sampled_from(REPLICAS), VALUES),
                      min_size=1, max_size=12))
def test_rga_concurrent_appends_converge(items):
    """Concurrent RGA appends at different replicas converge."""
    from repro.crdt import RGASequence
    replicas = {r: RGASequence() for r in REPLICAS}
    prepared = []
    for index, (origin, value) in enumerate(items):
        op = replicas[origin].prepare("append", value)
        tagged = op.with_tag((index + 1, origin, 0))
        replicas[origin].apply(tagged)
        prepared.append((origin, tagged))
    # Ship every op to the other replicas (causal order per origin is
    # preserved because each origin's list is already in tag order).
    for target in REPLICAS:
        for origin, op in prepared:
            if origin != target:
                replicas[target].apply(op)
    values = [replicas[r].value() for r in REPLICAS]
    assert values[0] == values[1] == values[2]
    assert sorted(values[0]) == sorted(v for _o, v in items)


@settings(max_examples=30, deadline=None)
@given(amounts=st.lists(st.integers(-5, 5), min_size=1, max_size=20))
def test_counter_value_is_sum(amounts):
    from repro.crdt import Counter
    counter = Counter()
    for index, amount in enumerate(amounts):
        op = counter.prepare("increment", amount)
        counter.apply(op.with_tag((index + 1, "a", 0)))
    assert counter.value() == sum(amounts)


# -- the set CRDTs against a set-based oracle ------------------------------
#
# Two replicas of an ``ORSet`` or ``RWSet`` prepare operations locally and
# exchange them when told to, so a remove may miss a concurrent add.  The
# oracle keeps each element's live tags as a ``set`` and applies the same
# operations; after every step the CRDT's tags must equal the oracle's and
# be one sorted tuple per element.  A ``clone`` step carries on with the
# copy, and the original must never change again: a clone shares the
# tag tuples, so an effect may only replace one.

ELEMENTS = st.integers(0, 4)
ORSET_STEPS = st.one_of(
    st.tuples(st.just("add"), ELEMENTS),
    st.tuples(st.just("add_all"), st.lists(ELEMENTS, max_size=3)),
    st.tuples(st.just("remove"), ELEMENTS),
    st.tuples(st.just("clear")),
    st.tuples(st.just("clone")),
    st.tuples(st.just("deliver")))
RWSET_STEPS = st.one_of(
    st.tuples(st.just("add"), ELEMENTS),
    st.tuples(st.just("remove"), ELEMENTS),
    st.tuples(st.just("clone")),
    st.tuples(st.just("deliver")))


def _tag_maps(crdt):
    """The CRDT's element -> tags maps, by name."""
    if crdt.TYPE_NAME == "orset":
        return {"instances": crdt._instances}
    return {"adds": crdt._adds, "removes": crdt._removes}


def _as_sets(crdt):
    return {name: {v: set(tags) for v, tags in live.items()}
            for name, live in _tag_maps(crdt).items()}


def _discard(live, value, raw_tags):
    tags = live.get(value)
    if tags is not None:
        tags.difference_update(tuple(raw) for raw in raw_tags)
        if not tags:
            del live[value]


def _oracle_apply(oracle, op):
    payload, tag = op.payload, op.tag
    if op.type_name == "orset":
        live = oracle["instances"]
        if op.method == "add":
            live.setdefault(payload["value"], set()).add(tag)
        elif op.method == "add_all":
            for index, value in enumerate(payload["values"]):
                live.setdefault(value, set()).add(tag + (index,))
        elif op.method == "remove":
            _discard(live, payload["value"], payload["observed"])
        else:
            for value, raw_tags in payload["observed"]:
                _discard(live, value, raw_tags)
    elif op.method == "add":
        _discard(oracle["removes"], payload["value"],
                 payload["observed_removes"])
        oracle["adds"].setdefault(payload["value"], set()).add(tag)
    else:
        _discard(oracle["adds"], payload["value"], payload["observed_adds"])
        oracle["removes"].setdefault(payload["value"], set()).add(tag)


def _oracle_value(oracle):
    if "instances" in oracle:
        return set(oracle["instances"])
    return set(oracle["adds"]) - set(oracle["removes"])


def check_against_oracle(type_name, steps):
    replicas = [new_crdt(type_name), new_crdt(type_name)]
    oracles = [_as_sets(r) for r in replicas]
    inboxes = [[], []]
    cloned = []             # (original, its tags when it was cloned)
    for counter, (at, (action, *args)) in enumerate(steps, start=1):
        if action == "clone":
            cloned.append((replicas[at], _as_sets(replicas[at])))
            replicas[at] = replicas[at].clone()
        elif action == "deliver":
            for op in inboxes[at]:
                replicas[at].apply(op)
                _oracle_apply(oracles[at], op)
            inboxes[at].clear()
        else:
            op = replicas[at].prepare(action, *args).with_tag(
                (counter, "ab"[at], 0))
            replicas[at].apply(op)
            _oracle_apply(oracles[at], op)
            inboxes[1 - at].append(op)
        for crdt, oracle in zip(replicas, oracles):
            assert _as_sets(crdt) == oracle
            assert crdt.value() == _oracle_value(oracle)
            assert all(type(tags) is tuple and list(tags) == sorted(oracle[
                name][value]) for name, live in _tag_maps(crdt).items()
                for value, tags in live.items())
    for original, tags in cloned:
        assert _as_sets(original) == tags
    for crdt in replicas:
        restored = type(crdt).from_dict(crdt.to_dict())
        assert _as_sets(restored) == _as_sets(crdt)
        assert restored.to_dict() == crdt.to_dict()


@settings(deadline=None)
@given(steps=st.lists(st.tuples(st.sampled_from((0, 1)), ORSET_STEPS),
                      max_size=30))
def test_orset_matches_a_set_based_oracle(steps):
    check_against_oracle("orset", steps)


@settings(deadline=None)
@given(steps=st.lists(st.tuples(st.sampled_from((0, 1)), RWSET_STEPS),
                      max_size=30))
def test_rwset_matches_a_set_based_oracle(steps):
    check_against_oracle("rwset", steps)
