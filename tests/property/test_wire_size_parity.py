"""Property tests: a value costs on the wire what its dict form's
formula says, with the record-side constants.

Messages carry ``Transaction`` values and ``StreamEntry`` records where
they once carried ``to_dict()`` forms.  Every ``wire_size()`` keeps the
formula the dict form was sized by, computed from the value; only the
constants differ — ``*_RECORD_*`` are calibrated against the schema'd
record the codec writes, and none is above its dict-side twin, so no
size rose.  The oracles are the dict forms — ``txn_wire_size`` over
``Transaction.to_dict()`` and, for stream entries, the dict encoder and
its size formula kept verbatim below — evaluated with the record
constants in place of the dict ones.  The messages that name keys, dots
and object states keep their dict-era formulas too (``naming_sizes``),
with the key, dot and state constants recalibrated the same way.
"""

from typing import Any, Dict, Mapping
from unittest.mock import patch

from hypothesis import given, settings, strategies as st

from repro.core.clock import VectorClock
from repro.core.dot import Dot
from repro.core.journal import ObjectState
from repro.core.txn import ObjectKey, Transaction
from repro.dc import messages
from repro.dc import messages as dc
from repro.dc.messages import (DOT_BYTES, DOT_RECORD_BYTES, HEADER_BYTES,
                               KEY_RECORD_BYTES,
                               OBJECT_STATE_RECORD_OVERHEAD_BYTES,
                               SKIP_MARKER_BYTES,
                               STREAM_ENTRY_OVERHEAD_BYTES,
                               TXN_OVERHEAD_BYTES,
                               TXN_RECORD_OVERHEAD_BYTES,
                               WRITE_OVERHEAD_BYTES,
                               WRITE_RECORD_OVERHEAD_BYTES, ReplicateBatch,
                               ShardApply, ShardApplyBatch, ShardBackfill,
                               ShardCommit, ShardPrepare, _writes_wire_size,
                               stream_entry_wire_size, txn_record_size,
                               txn_wire_size, vector_wire_size)
from repro.dc.replog import decode_stream_entry, encode_stream_entry
from repro.groups import messages as grp
from repro.transport import samples
from repro.transport.codec import encode_value

from .test_codec_roundtrip import (_counts, _ids, dots, object_keys,
                                   object_states, transactions)

#: The dict-side constant each record-side one stands in for.
RECORD_CONSTANTS = {"DOT_BYTES": DOT_RECORD_BYTES,
                    "TXN_OVERHEAD_BYTES": TXN_RECORD_OVERHEAD_BYTES,
                    "WRITE_OVERHEAD_BYTES": WRITE_RECORD_OVERHEAD_BYTES}


def with_record_constants(size, *args):
    """``size(*args)`` with the record constants in the dict formulas."""
    with patch.multiple(messages, **RECORD_CONSTANTS):
        return size(*args)


def test_no_record_constant_is_above_its_dict_twin():
    assert DOT_RECORD_BYTES <= DOT_BYTES
    assert TXN_RECORD_OVERHEAD_BYTES <= TXN_OVERHEAD_BYTES
    assert WRITE_RECORD_OVERHEAD_BYTES <= WRITE_OVERHEAD_BYTES


# ----------------------------------------------------------------------
# the oracle: the dict stream entry and its size (verbatim)
# ----------------------------------------------------------------------


def dict_stream_entry(txn: Transaction, stream_dc: str, ts: int,
                      base: VectorClock) -> Dict[str, Any]:
    assigned = txn.commit.entries.get(stream_dc)
    if assigned is not None and assigned != ts:
        raise ValueError(
            f"stream position {ts} contradicts commit entry "
            f"{stream_dc}:{assigned} for {txn.dot}")
    entry = {
        "dot": txn.dot.to_dict(),
        "origin": txn.origin,
        "issuer": txn.issuer,
        "sv": txn.snapshot.vector.delta_from(base),
        "deps": [d.to_dict() for d in sorted(txn.snapshot.local_deps)],
        "cx": {dc: t for dc, t in txn.commit.entries.items()
               if dc != stream_dc},
        "writes": [w.to_dict() for w in txn.writes],
    }
    return entry


def dict_stream_entry_wire_size(entry: Mapping[str, Any]) -> int:
    size = STREAM_ENTRY_OVERHEAD_BYTES + messages.DOT_BYTES
    size += len(str(entry.get("origin", "")))
    size += vector_wire_size(entry.get("sv") or {})
    size += messages.DOT_BYTES * len(entry.get("deps") or ())
    size += 8 * len(entry.get("cx") or {})
    size += _writes_wire_size(entry.get("writes") or ())
    return size

# ----------------------------------------------------------------------


@given(transactions)
@settings(deadline=None)
def test_transaction_size_is_its_dict_forms(txn):
    size = with_record_constants(txn_wire_size, txn.to_dict())
    assert txn_record_size(txn) == size <= txn_wire_size(txn.to_dict())
    assert ShardApply(txn).wire_size() == HEADER_BYTES + size
    assert ShardPrepare(1, txn).wire_size() == HEADER_BYTES + 8 + size
    assert ShardCommit(1, txn).wire_size() == HEADER_BYTES + 8 + size
    assert ShardApplyBatch((txn, txn)).wire_size() == HEADER_BYTES + 2 * size
    assert ShardBackfill(0, ((3, txn),), 3).wire_size() \
        == HEADER_BYTES + 12 + 8 + size


@given(transactions, _ids,
       st.builds(VectorClock,
                 st.dictionaries(_ids, st.integers(1, 2**40), max_size=4)))
@settings(deadline=None)
def test_stream_entry_size_is_its_dict_forms(txn, stream_dc, base):
    ts = txn.commit.entries.get(stream_dc, 1)    # the position it names
    entry, size = encode_stream_entry(txn, stream_dc, ts, base)
    oracle = dict_stream_entry(txn, stream_dc, ts, base)
    assert size == stream_entry_wire_size(entry) \
        == with_record_constants(dict_stream_entry_wire_size, oracle)
    # The record holds what the dict held, as values.
    assert entry.dot.to_dict() == oracle["dot"]
    assert (entry.origin, entry.issuer, entry.sv, entry.cx) \
        == (oracle["origin"], oracle["issuer"], oracle["sv"], oracle["cx"])
    assert [d.to_dict() for d in entry.deps] == oracle["deps"]
    assert [w.to_dict() for w in entry.writes] == oracle["writes"]
    # And decodes to the transaction, sharing its writes.
    back = decode_stream_entry(entry, stream_dc, ts, base)
    assert back.to_dict() == {**txn.to_dict(), "commit": {
        "entries": {**txn.commit.entries, stream_dc: ts}}}
    assert back.writes is txn.writes


@given(st.lists(transactions, max_size=4), _counts, _counts,
       st.lists(st.integers(1, 5), max_size=3))
@settings(deadline=None)
def test_frame_size_is_its_dict_forms(txns, base, sender, skips):
    entries = [encode_stream_entry(txn, "dc0", txn.commit.entries.get(
        "dc0", i + 1), VectorClock(base))[0] for i, txn in enumerate(txns)]
    frame = ReplicateBatch("dc0", 1, base,
                           tuple(entries) + tuple((n, 1) for n in skips),
                           sender)
    assert frame.wire_size() == (
        HEADER_BYTES + 8 + len("dc0") + vector_wire_size(base)
        + vector_wire_size(sender)
        + sum(with_record_constants(
            dict_stream_entry_wire_size, dict_stream_entry(
                txn, "dc0", txn.commit.entries.get("dc0", i + 1),
                VectorClock(base))) for i, txn in enumerate(txns))
        + SKIP_MARKER_BYTES * len(skips))


# ----------------------------------------------------------------------
# messages that name keys, dots and object states
# ----------------------------------------------------------------------

#: The record-side constant of a key, a dot and an object state, and
#: the dict-side number each stands in for.
NAMING_TWINS = ((KEY_RECORD_BYTES, 24), (DOT_RECORD_BYTES, DOT_BYTES),
                (OBJECT_STATE_RECORD_OVERHEAD_BYTES, 60))


def naming_sizes(key, dot, state):
    """Each class's ``wire_size()`` formula from when it carried dicts
    (verbatim), with the key, dot and state constants as parameters."""
    def state_size(s):
        return state + len(repr(s.base)) + dot * len(s.base_dots)

    vector = vector_wire_size
    return {
        dc.SessionOpen: lambda m: (
            HEADER_BYTES + len(m.edge_id) + key * len(m.interest)
            + vector(m.state_vector) + dot * len(m.local_deps)),
        dc.SessionAck: lambda m: (
            HEADER_BYTES + sum(state_size(o) for o in m.objects)
            + vector(m.stable_vector)),
        dc.InterestChange: lambda m: (
            HEADER_BYTES + len(m.edge_id) + key * len(m.add)
            + key * len(m.remove) + vector(m.state_vector)),
        dc.ObjectRequest: lambda m: (
            HEADER_BYTES + len(m.edge_id) + key + vector(m.state_vector)),
        dc.ObjectResponse: lambda m: (
            HEADER_BYTES + state_size(m.object_state)
            + vector(m.stable_vector)),
        dc.RemoteTxnRequest: lambda m: (
            HEADER_BYTES + len(m.client_id) + key * len(m.reads)
            + sum(key + 24 + len(repr(args))
                  for _k, _t, _m, args in m.updates)
            + vector(m.snapshot or {}) + dot * len(m.local_deps)
            + (dot if m.dot is not None else 0)),
        dc.ShardRead: lambda m: (
            HEADER_BYTES + 8 + key + vector(m.visible_vector)
            + dot * len(m.extra_dots)),
        dc.ShardReadReply: lambda m: (
            HEADER_BYTES + state_size(m.object_state)),
        grp.JoinGroup: lambda m: (
            HEADER_BYTES + len(m.node_id)
            + sum(key + len(t) for _k, t in m.interest)),
        grp.InterestAnnounce: lambda m: (
            HEADER_BYTES + len(m.member)
            + sum(key + len(t) for _k, t in m.add) + key * len(m.remove)),
        grp.GroupFetch: lambda m: (
            HEADER_BYTES + key + len(m.type_name) + len(m.requester)),
        grp.GroupFetchReply: lambda m: (
            HEADER_BYTES + key + 1 + vector(m.state_vector)
            + (state_size(m.object_state)
               if m.object_state is not None else 0)),
    }


RECORD_SIZES = naming_sizes(KEY_RECORD_BYTES, DOT_RECORD_BYTES,
                            OBJECT_STATE_RECORD_OVERHEAD_BYTES)
DICT_SIZES = naming_sizes(24, DOT_BYTES, 60)

_interest = st.lists(st.tuples(object_keys, _ids), max_size=3).map(tuple)
_deps = st.lists(dots, max_size=3).map(tuple)
naming_messages = st.one_of(
    st.builds(dc.SessionOpen, _ids, _interest, _counts, _deps,
              st.none() | _ids),
    st.builds(dc.SessionAck, _ids,
              st.lists(object_states, max_size=3).map(tuple), _counts),
    st.builds(dc.InterestChange, _ids, _interest,
              st.lists(object_keys, max_size=3).map(tuple), _counts),
    st.builds(dc.ObjectRequest, _ids, object_keys, _ids, _counts),
    st.builds(dc.ObjectResponse, object_states, _counts),
    st.builds(dc.RemoteTxnRequest, _ids, st.integers(0, 99), _interest,
              st.lists(st.tuples(object_keys, _ids, _ids,
                                 st.tuples(st.integers())),
                       max_size=2).map(tuple),
              st.none() | _counts, _deps, st.none() | _ids,
              st.none() | dots),
    st.builds(dc.ShardRead, st.integers(0, 99), object_keys, _ids, _counts,
              _deps),
    st.builds(dc.ShardReadReply, st.integers(0, 99), object_states),
    st.builds(grp.JoinGroup, _ids, _interest),
    st.builds(grp.InterestAnnounce, _ids, _interest,
              st.lists(object_keys, max_size=3).map(tuple)),
    st.builds(grp.GroupFetch, object_keys, _ids, _ids),
    st.builds(grp.GroupFetchReply, object_keys, st.none() | object_states,
              _counts, st.booleans()))


def test_no_naming_constant_is_above_its_dict_twin():
    for record, dict_side in NAMING_TWINS:
        assert record <= dict_side
    # Calibrated against the records the codec writes.
    assert len(encode_value(ObjectKey("scale", "cell1"))) == KEY_RECORD_BYTES
    assert len(encode_value(Dot(300, "m0"))) == DOT_RECORD_BYTES
    state = ObjectState(ObjectKey("app", "cell1"), "counter", {}, ())
    assert len(encode_value(state)) - len(encode_value({})) \
        == OBJECT_STATE_RECORD_OVERHEAD_BYTES


def test_every_naming_class_has_a_formula_and_samples():
    assert set(RECORD_SIZES) <= set(samples.samples_by_class())
    for cls, sized in RECORD_SIZES.items():
        for message in samples.samples_by_class()[cls]:
            assert message.wire_size() == sized(message) \
                <= DICT_SIZES[cls](message)


@given(naming_messages)
@settings(deadline=None)
def test_naming_sizes_are_their_dict_forms_with_record_constants(message):
    cls = type(message)
    assert message.wire_size() == RECORD_SIZES[cls](message) \
        <= DICT_SIZES[cls](message)
