"""Property tests: the wire codec is a bijection on its value domain.

Three generators: arbitrary value trees (the codec's full domain), the
per-class sample corpus perturbed structurally (realistic messages) and
arbitrary core values the codec carries as records (transactions and
their parts, stream entries, object states).
"""

import pytest
from hypothesis import given, settings, strategies as st

from repro.core.clock import VectorClock
from repro.core.dot import Dot
from repro.core.journal import ObjectState
from repro.core.txn import (CommitStamp, ObjectKey, Snapshot, StreamEntry,
                            Transaction, WriteOp)
from repro.crdt.base import INT, VALUE, Operation
from repro.dc import messages as dc
from repro.dc.messages import ShardApply, ShardApplyBatch
from repro.groups import messages as grp
from repro.transport import samples
from repro.transport.codec import (CodecError, decode_frame, decode_message,
                                   decode_value, encode_frame,
                                   encode_message, encode_value,
                                   op_schemas, record_classes)

_scalars = st.one_of(
    st.none(),
    st.booleans(),
    st.integers(min_value=-(2**80), max_value=2**80),
    st.floats(allow_nan=False),
    st.text(max_size=40),
    st.binary(max_size=40),
)

_hashable = st.recursive(
    st.one_of(st.none(), st.booleans(),
              st.integers(min_value=-(2**40), max_value=2**40),
              st.text(max_size=12)),
    lambda inner: st.one_of(
        st.tuples(inner), st.tuples(inner, inner),
        st.frozensets(inner, max_size=4)),
    max_leaves=8)

_values = st.recursive(
    _scalars,
    lambda inner: st.one_of(
        st.lists(inner, max_size=5),
        st.lists(inner, max_size=5).map(tuple),
        st.frozensets(_hashable, max_size=5),
        st.frozensets(_hashable, max_size=5).map(set),
        st.dictionaries(_hashable, inner, max_size=5)),
    max_leaves=24)


@given(_values)
@settings(max_examples=300, deadline=None)
def test_value_round_trip(value):
    back = decode_value(encode_value(value))
    assert back == value
    assert type(back) is type(value)


@given(st.dictionaries(st.text(max_size=8), _values, max_size=6),
       st.randoms(use_true_random=False))
@settings(max_examples=150, deadline=None)
def test_encoding_is_insertion_order_canonical(mapping, rnd):
    items = list(mapping.items())
    rnd.shuffle(items)
    assert encode_value(dict(items)) == encode_value(mapping)
    keys = frozenset(mapping)
    shuffled_keys = list(mapping)
    rnd.shuffle(shuffled_keys)
    assert encode_value(frozenset(shuffled_keys)) == encode_value(keys)


_sample_messages = st.sampled_from(samples.all_samples())


@given(_sample_messages)
@settings(max_examples=200, deadline=None)
def test_every_message_class_round_trips(message):
    back = decode_message(encode_message(message))
    assert back == message
    assert type(back) is type(message)


@given(_sample_messages, st.text(min_size=1, max_size=16),
       st.text(min_size=1, max_size=16))
@settings(max_examples=100, deadline=None)
def test_frame_round_trip(message, src, dst):
    frame = encode_frame(src, dst, message)
    assert int.from_bytes(frame[:4], "big") == len(frame) - 4
    assert decode_frame(frame[4:]) == (src, dst, message)


# -- records -----------------------------------------------------------------

_ids = st.text(min_size=1, max_size=6)
_counts = st.dictionaries(_ids, st.integers(0, 2**40), max_size=4)

dots = st.builds(Dot, st.integers(0, 2**40), _ids)
#: Dots as dependencies come: few origins, near counters (dot runs).
_deps = st.one_of(dots, st.builds(Dot, st.integers(-3, 300),
                                  st.sampled_from(("dc0", "dc1", "édge"))))
object_keys = st.builds(ObjectKey, st.text(max_size=8), st.text(max_size=8))


def _payload_field(kind):
    """Values of one payload field kind (``repro.crdt.base``)."""
    if kind == INT:
        return st.integers(min_value=-(2**70), max_value=2**70)
    if kind == VALUE:
        return _values
    if kind[1] is list:
        return st.lists(_values, max_size=3)
    return st.dictionaries(st.text(max_size=6), _values, max_size=3)


#: Any operation of the op table, its payload by that op's schema.
operations = st.sampled_from(op_schemas()).flatmap(
    lambda schema: st.builds(
        Operation, st.just(schema[1]), st.just(schema[2]),
        st.fixed_dictionaries({name: _payload_field(kind)
                               for name, kind in schema[3]}),
        st.none() | st.tuples(st.integers(0, 2**20), _ids,
                              st.integers(0, 9))))
write_ops = st.builds(WriteOp, object_keys, operations)
_writes = st.lists(write_ops, max_size=3).map(tuple)
vectors = st.builds(VectorClock,
                    st.dictionaries(_ids, st.integers(1, 2**40), max_size=4))
snapshots = st.builds(Snapshot, vectors, st.frozensets(_deps, max_size=6))
stamps = st.builds(CommitStamp, _counts)
transactions = st.builds(Transaction, dots, _ids, snapshots, stamps, _writes,
                         st.none() | _ids)
#: A tuple of dots as records hold one: sorted, no dot twice.
_sorted_dots = st.frozensets(_deps, max_size=6).map(
    lambda ds: tuple(sorted(ds)))
stream_entries = st.builds(StreamEntry, dots, _ids, st.none() | _ids,
                           _counts, _sorted_dots, _counts, _writes)

object_states = st.builds(
    ObjectState, object_keys, st.text(max_size=8),
    st.dictionaries(st.text(max_size=6), _values, max_size=3),
    _sorted_dots)

RECORDS = {Dot: dots, ObjectKey: object_keys, Operation: operations,
           WriteOp: write_ops, VectorClock: vectors, Snapshot: snapshots,
           CommitStamp: stamps, Transaction: transactions,
           StreamEntry: stream_entries, ObjectState: object_states}


def test_every_record_class_has_a_generator():
    assert set(record_classes().values()) == set(RECORDS)


@given(st.one_of(*RECORDS.values()))
@settings(deadline=None)
def test_record_round_trip(record):
    back = decode_value(encode_value(record))
    assert back == record
    assert type(back) is type(record)


@given(st.lists(transactions, min_size=1, max_size=3))
@settings(deadline=None)
def test_messages_carrying_transactions_round_trip(txns):
    for message in (ShardApply(txns[0]), ShardApplyBatch(tuple(txns))):
        back = decode_frame(encode_frame("dc0", "dc0/s1", message)[4:])
        assert back == ("dc0", "dc0/s1", message)


@given(st.lists(transactions, min_size=1, max_size=3), dots, _counts,
       _counts)
@settings(deadline=None)
def test_edge_and_group_messages_carrying_values_round_trip(txns, dot,
                                                            stable, prev):
    """Every message that carries transactions or dots as values."""
    batch = tuple(txns)
    for message in (dc.EdgeCommit(txns[0]), dc.EdgeCommitBatch(batch),
                    dc.CommitAck(dot, stable), dc.CommitReject(dot, "no"),
                    dc.UpdatePush(batch, stable, prev),
                    grp.GroupRelayPush(batch, stable, prev),
                    grp.GroupCommitAck(dot, prev),
                    grp.TxnPull("m1", (dot, txns[0].dot)),
                    grp.TxnPushMsg(batch)):
        back = decode_frame(encode_frame("dc0", "e1", message)[4:])
        assert back == ("dc0", "e1", message)
        assert type(back[2]) is type(message)


@given(st.lists(object_keys, min_size=1, max_size=3),
       st.lists(dots, max_size=3).map(tuple), object_states, _counts)
@settings(deadline=None)
def test_messages_naming_keys_dots_and_states_round_trip(keys, deps, state,
                                                         vector):
    """Every message that names a key, a dot or an object version."""
    interest = tuple((key, "counter") for key in keys)
    for message in (
            dc.SessionOpen("e1", interest, vector, deps, None),
            dc.SessionAck("dc0", (state, state), vector),
            dc.InterestChange("e1", interest, tuple(keys), vector),
            dc.ObjectRequest("e1", keys[0], "counter", vector),
            dc.ObjectResponse(state, vector),
            dc.RemoteTxnRequest("c1", 7, interest, tuple(
                (key, "counter", "increment", (1,)) for key in keys),
                vector, deps, "u1", deps[0] if deps else None),
            dc.ShardRead(3, keys[0], "counter", vector, deps),
            dc.ShardReadReply(3, state),
            grp.JoinGroup("m1", interest),
            grp.InterestAnnounce("m1", interest, tuple(keys)),
            grp.GroupFetch(keys[0], "counter", "m1"),
            grp.GroupFetchReply(state.key, state, vector, True),
            grp.GroupFetchReply(keys[0], None, vector, False)):
        back = decode_frame(encode_frame("dc0", "e1", message)[4:])
        assert back == ("dc0", "e1", message)
        assert type(back[2]) is type(message)


@given(_sorted_dots.filter(lambda deps: len(deps) > 1),
       st.randoms(use_true_random=False))
@settings(deadline=None)
def test_dot_runs_are_canonical_and_a_tuple_must_be_in_dot_order(deps, rnd):
    """Equal dot sets, equal bytes; a tuple is written only in the
    order it decodes to, each dot once."""
    shuffled = list(deps)
    rnd.shuffle(shuffled)
    vector = VectorClock({"dc0": 1})
    assert encode_value(Snapshot(vector, shuffled)) \
        == encode_value(Snapshot(vector, deps))

    def entry(ds):
        return StreamEntry(Dot(1, "dc0"), "dc0", None, {}, ds, {}, ())
    assert decode_value(encode_value(entry(deps))) == entry(deps)
    for bad in (tuple(reversed(deps)), deps + deps[-1:]):
        with pytest.raises(CodecError):
            encode_value(entry(bad))
