"""Property tests: a value costs on the wire what its record says, and
no size rose.

Messages carry ``Transaction`` values and ``StreamEntry`` records where
they once carried ``to_dict()`` forms.  Every ``wire_size()`` keeps the
formula the dict form was sized by, computed from the value, with the
record's terms in place of the dict's: the ``*_RECORD_*`` constants, a
write's ``WriteOp.record_bytes`` (its key, its op id and its payload's
fields by the op's schema, no names) and dependency dots as runs
(``dot_runs_bytes``).  Each size is stated here in full and held at or
below two oracles: the dict form's formula with the record constants of
before operations had a schema (``PARENT_RECORD_CONSTANTS``), and the
same formula with the dict constants — so no size rose.  The dict
oracles are ``txn_wire_size`` over ``Transaction.to_dict()`` and, for
stream entries, the dict encoder and its size formula kept verbatim
below.  The messages that name keys, dots and object states keep their
dict-era formulas too (``naming_sizes``).
"""

from typing import Any, Dict, Mapping
from unittest.mock import patch

from hypothesis import given, settings, strategies as st

from repro.core.clock import VectorClock
from repro.core.dot import Dot
from repro.core.journal import ObjectState
from repro.core.txn import (DOT_RUN_OVERHEAD_BYTES, ObjectKey, Snapshot,
                            Transaction, WriteOp, dot_runs_bytes)
from repro.crdt.base import Operation
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

#: The dict-side constant each record-side one stood in for, at the
#: values they had while an operation was written by name and each dot
#: as its own record.
PARENT_RECORD_CONSTANTS = {"DOT_BYTES": 8, "TXN_OVERHEAD_BYTES": 16,
                           "WRITE_OVERHEAD_BYTES": 8}


def with_parent_constants(size, *args):
    """``size(*args)`` with the earlier record constants in the dict
    formulas."""
    with patch.multiple(messages, **PARENT_RECORD_CONSTANTS):
        return size(*args)


def test_no_record_constant_is_above_its_dict_twin():
    assert DOT_RECORD_BYTES <= PARENT_RECORD_CONSTANTS["DOT_BYTES"] \
        <= DOT_BYTES
    assert TXN_RECORD_OVERHEAD_BYTES \
        <= PARENT_RECORD_CONSTANTS["TXN_OVERHEAD_BYTES"] <= TXN_OVERHEAD_BYTES
    assert WRITE_RECORD_OVERHEAD_BYTES \
        <= PARENT_RECORD_CONSTANTS["WRITE_OVERHEAD_BYTES"] \
        <= WRITE_OVERHEAD_BYTES


def test_write_and_dot_run_terms_are_the_record_bytes():
    write = WriteOp(ObjectKey("app", "k"),
                    Operation("counter", "increment", {"amount": 1}))
    # Inside a transaction a write has no record tag or class id.
    assert len(encode_value(write)) - 2 \
        == WRITE_RECORD_OVERHEAD_BYTES + write.record_bytes
    empty = Snapshot(VectorClock({}))
    three = Snapshot(VectorClock({}), [Dot(c, "m0") for c in (300, 301, 303)])
    assert len(encode_value(three)) - len(encode_value(empty)) \
        == dot_runs_bytes(3) == 3 + DOT_RUN_OVERHEAD_BYTES
    assert dot_runs_bytes(0) == 0


def write_size(write: WriteOp) -> int:
    """A write record as charged: its overhead, the key's two strings,
    the op id and each payload field's ``repr``."""
    return (WRITE_RECORD_OVERHEAD_BYTES + len(write.key.bucket)
            + len(write.key.key) + 1
            + sum(len(repr(v)) for v in write.op.payload.values()))


def runs_size(n: int) -> int:
    return n + DOT_RUN_OVERHEAD_BYTES if n else 0


def txn_size(txn: Transaction) -> int:
    """A transaction record as charged."""
    return (TXN_RECORD_OVERHEAD_BYTES + DOT_RECORD_BYTES
            + 8 * len(txn.snapshot.vector)
            + runs_size(len(txn.snapshot.local_deps))
            + 8 * max(1, len(txn.commit.entries))
            + sum(map(write_size, txn.writes)))


def byte_size_before(txn: Transaction) -> int:
    """``Transaction.byte_size`` while dots and operations were
    estimated one by one (verbatim)."""
    size = 16  # dot
    size += 8 * len(txn.snapshot.vector)
    size += 16 * len(txn.snapshot.local_deps)
    size += 8 * max(1, len(txn.commit.entries))
    for write in txn.writes:
        size += len(repr(write.key)) + len(repr(write.op.payload))
    return size


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


def entry_size(entry) -> int:
    """A stream entry record as charged."""
    return (STREAM_ENTRY_OVERHEAD_BYTES + DOT_RECORD_BYTES + len(entry.origin)
            + 8 * len(entry.sv) + runs_size(len(entry.deps))
            + 8 * len(entry.cx) + sum(map(write_size, entry.writes)))


@given(transactions)
@settings(deadline=None)
def test_transaction_size_is_its_dict_forms(txn):
    size = txn_size(txn)
    assert txn_record_size(txn) == size \
        <= with_parent_constants(txn_wire_size, txn.to_dict()) \
        <= txn_wire_size(txn.to_dict())
    assert txn.byte_size() <= byte_size_before(txn)
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
    assert size == stream_entry_wire_size(entry) == entry_size(entry) \
        <= with_parent_constants(dict_stream_entry_wire_size, oracle)
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
        + vector_wire_size(sender) + sum(map(entry_size, entries))
        + SKIP_MARKER_BYTES * len(skips))


# ----------------------------------------------------------------------
# messages that name keys, dots and object states
# ----------------------------------------------------------------------

#: The record-side constant of a key, a dot and an object state, and
#: the dict-side number each stands in for.
NAMING_TWINS = ((KEY_RECORD_BYTES, 24), (DOT_RECORD_BYTES, DOT_BYTES),
                (OBJECT_STATE_RECORD_OVERHEAD_BYTES, 60))


def naming_sizes(key, dot, state, state_dots):
    """Each class's ``wire_size()`` formula from when it carried dicts
    (verbatim), with the key, dot and state constants and the charge for
    an object state's ``n`` dots as parameters."""
    def state_size(s):
        return state + len(repr(s.base)) + state_dots(len(s.base_dots))

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
                            OBJECT_STATE_RECORD_OVERHEAD_BYTES, runs_size)
DICT_SIZES = naming_sizes(24, DOT_BYTES, 60, lambda n: DOT_BYTES * n)

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
