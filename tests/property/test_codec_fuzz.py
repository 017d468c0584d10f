"""Hostile bytes: the decoder answers with a message or ``CodecError``.

The inbound connection protocol's ``buffer_updated``
(``asyncio_backend._Inbound``) catches ``CodecError`` and nothing else,
so any other exception out of ``decode_frame`` is a fatal error of that
connection, reported to the event loop's exception handler.  The corpus is
the frame of every sample message; the mutations are the ones a broken
or malicious peer produces: a flipped, dropped or extra byte, and a
stream cut at any offset.  A message that decodes holds only
well-typed records: a ``Transaction`` inside it is one a shard could
apply, never a shell around whatever the bytes said.  What the
decoder's table of shared values holds changes neither the outcome nor
the value, which is the one the oracle of ``test_codec_oracle.py``
reads.
"""

import pytest
from hypothesis import given, strategies as st

from repro.core.clock import VectorClock
from repro.core.dot import Dot
from repro.core.journal import ObjectState
from repro.core.txn import (CommitStamp, ObjectKey, Snapshot, StreamEntry,
                            Transaction, WriteOp)
from repro.crdt.base import Operation
from repro.transport import codec, samples
from repro.transport.codec import (DECODE_VALUES_MAX, MAX_DEPTH, CodecError,
                                   decode_frame, decode_message,
                                   decode_value, encode_frame,
                                   encode_message, encode_value,
                                   message_classes, op_schemas)

from .test_codec_oracle import oracle_decode_frame

BODIES = [encode_frame("dc0", "édge-1", message)[4:]
          for message in samples.all_samples()]
REGISTERED = tuple(message_classes().values())


def decodes_or_refuses(body):
    """``decode_frame`` on arbitrary bytes: an addressed registered
    message, or ``CodecError`` (any other exception fails the test)."""
    try:
        src, dst, message = decode_frame(body)
    except CodecError:
        return None
    assert type(src) is str and type(dst) is str
    assert isinstance(message, REGISTERED)
    assert_records_well_typed(message)
    return message


def _is(value, *types):
    return type(value) in types


def _all(items, cls):
    return all(type(item) is cls for item in items)


def _counts(mapping):
    return type(mapping) is dict and all(
        type(k) is str and type(v) is int for k, v in mapping.items())


#: ``(type name, method)`` -> the payload's field names, in order.
_OP_FIELDS = {(type_name, method): [name for name, _kind in fields]
              for _oid, type_name, method, fields in op_schemas()}


def _dot_tuple(dots):
    """A tuple of dots as records hold one: sorted, no dot twice."""
    return (_is(dots, tuple) and _all(dots, Dot)
            and list(dots) == sorted(set(dots)))


#: Record class -> what its fields must be, stated apart from the codec.
RECORD_SHAPES = {
    Dot: lambda d: _is(d.counter, int) and _is(d.origin, str),
    ObjectKey: lambda k: _is(k.bucket, str) and _is(k.key, str),
    Operation: lambda o: (_is(o.payload, dict)
                          and list(o.payload) == _OP_FIELDS.get(
                              (o.type_name, o.method))
                          and _is(o.tag, tuple, type(None))),
    WriteOp: lambda w: _is(w.key, ObjectKey) and _is(w.op, Operation),
    VectorClock: lambda v: _counts(dict(v.items())),
    Snapshot: lambda s: (_is(s.vector, VectorClock)
                         and _is(s.local_deps, frozenset)
                         and _all(s.local_deps, Dot)),
    CommitStamp: lambda c: _counts(c.entries),
    Transaction: lambda t: (_is(t.dot, Dot) and _is(t.origin, str)
                            and _is(t.snapshot, Snapshot)
                            and _is(t.commit, CommitStamp)
                            and _is(t.writes, tuple)
                            and _all(t.writes, WriteOp)
                            and _is(t.issuer, str, type(None))),
    StreamEntry: lambda e: (_is(e.dot, Dot) and _is(e.origin, str)
                            and _is(e.issuer, str, type(None))
                            and _counts(e.sv) and _counts(e.cx)
                            and _dot_tuple(e.deps)
                            and _is(e.writes, tuple)
                            and _all(e.writes, WriteOp)),
    ObjectState: lambda o: (_is(o.key, ObjectKey) and _is(o.type_name, str)
                            and _is(o.base, dict)
                            and _dot_tuple(o.base_dots)),
}

#: Where records nest inside one another.
_RECORD_PARTS = {
    WriteOp: lambda w: (w.key, w.op),
    Snapshot: lambda s: (s.vector, *s.local_deps),
    Transaction: lambda t: (t.dot, t.snapshot, t.commit, *t.writes),
    StreamEntry: lambda e: (e.dot, *e.deps, *e.writes),
    ObjectState: lambda o: (o.key, *o.base_dots),
}


def assert_records_well_typed(value):
    """Every record reachable from a decoded message has the shape its
    class promises."""
    t = type(value)
    shape = RECORD_SHAPES.get(t)
    if shape is not None:
        assert shape(value), value
        for part in _RECORD_PARTS.get(t, lambda _v: ())(value):
            assert_records_well_typed(part)
    elif t in (tuple, list, set, frozenset):
        for item in value:
            assert_records_well_typed(item)
    elif t is dict:
        for item in value.values():
            assert_records_well_typed(item)
    elif hasattr(t, "__dataclass_fields__"):
        for name in t.__dataclass_fields__:
            assert_records_well_typed(getattr(value, name))


_edit = st.tuples(st.sampled_from(("flip", "delete", "insert")),
                  st.integers(min_value=0), st.integers(0, 255))


def mutate(body, edits):
    raw = bytearray(body)
    for how, where, byte in edits:
        if how == "insert":
            raw.insert(where % (len(raw) + 1), byte)
        elif raw:
            at = where % len(raw)
            if how == "flip":
                raw[at] = byte
            else:
                del raw[at]
    return bytes(raw)


@given(st.sampled_from(BODIES), st.lists(_edit, min_size=1, max_size=3))
def test_mutated_frames_decode_or_raise_codec_error(body, edits):
    decodes_or_refuses(mutate(body, edits))


@given(st.sampled_from(BODIES), st.lists(_edit, min_size=1, max_size=3))
def test_mutated_messages_and_values_raise_only_codec_error(body, edits):
    # The body of a frame is four values; read it as one and as a
    # message to reach the other two entry points.
    raw = mutate(body, edits)
    for decode in (decode_value, decode_message):
        try:
            decode(raw)
        except CodecError:
            pass


#: One value holding ``DECODE_VALUES_MAX`` dots that no sample names.
FILLERS = encode_value(tuple(Dot(i, "filler")
                             for i in range(DECODE_VALUES_MAX)))


def reading(body):
    """``decode_frame``'s outcome: ``None`` for ``CodecError``, else the
    frame encoded again (bytes, so that a decoded NaN compares equal)."""
    try:
        decoded = decode_frame(body)
    except CodecError:
        return None
    return encode_frame(*decoded)


@given(st.sampled_from(BODIES), st.lists(_edit, min_size=1, max_size=3))
def test_mutated_frames_read_the_same_whatever_the_value_table_holds(
        body, edits):
    raw = mutate(body, edits)
    codec._DEC_VALUES.clear()
    empty = reading(raw)
    for valid in BODIES:                # the corpus's own values
        decode_frame(valid)
    assert reading(raw) == empty
    codec._DEC_VALUES.clear()
    decode_value(FILLERS)               # full of others: emptied midway
    assert len(codec._DEC_VALUES) == DECODE_VALUES_MAX
    assert reading(raw) == empty
    if empty is not None:
        assert empty == encode_frame(*oracle_decode_frame(raw))


@given(st.binary(max_size=64))
def test_arbitrary_bytes_decode_or_raise_codec_error(raw):
    decodes_or_refuses(raw)


def test_every_strict_prefix_of_every_frame_is_refused():
    for body in BODIES:
        for cut in range(len(body)):
            with pytest.raises(CodecError):
                decode_frame(body[:cut])


def test_every_single_byte_flip_decodes_or_is_refused():
    # Exhaustive where hypothesis samples: every offset of every frame,
    # low bit, high bit and all bits.
    for body in BODIES:
        raw = bytearray(body)
        for at in range(len(raw)):
            keep = raw[at]
            for mask in (0x01, 0x80, 0xFF):
                raw[at] = keep ^ mask
                decodes_or_refuses(bytes(raw))
            raw[at] = keep


def frame_of(*values):
    return b"".join(encode_value(value) for value in values)


#: ``CommitAck(Dot(3, "m0"), {"dc0": 7})``: its class id, then its
#: fields — the dot's, inline, and the vector as counts.
KEY = bytes([0x17])
ACK_DOT = b"\x06" + frame_of("m0")
FIELDS = ACK_DOT + b"\x01" + frame_of("dc0") + b"\x0e"

HOSTILE = {
    "empty": b"",
    "invalid utf-8": b"\x05\x02\xc3\x28",
    "lone continuation byte in a key": b"\x09\x01\x05\x01\x80\x00",
    "list as dict key": b"\x09\x01\x07\x00\x00",
    "dict in a set": b"\x0a\x01\x09\x00",
    "list in a frozenset": b"\x0b\x01\x07\x00",
    "unknown tag": b"\x0e",
    "truncated float": b"\x04\x00\x00",
    "string longer than the buffer": b"\x05\x7fab",
    "count longer than the buffer": b"\x07\xff\xff\xff\xff\x0f\x00",
    "endless varint": b"\x03" + b"\xff" * 200,
    "string length past 2**63": b"\x05" + b"\xff" * 9 + b"\x01abc",
    "dict count past 2**63": b"\x09" + b"\xff" * 20 + b"\x01\x00",
    "trailing byte": b"\x00\x00",
    "nested list bomb": bytes([0x07, 1]) * 5000,
    "nested dict bomb": bytes([0x09, 1, 0x00]) * 5000,
    "nested message bomb": b"\x0c" * 5000,
    # An lwwregister assign whose value is an assign whose value ...
    "nested record bomb": b"\x0d\x03\x0d" * 5000,
}


@pytest.mark.parametrize("raw", HOSTILE.values(), ids=HOSTILE.keys())
def test_hostile_values_raise_codec_error(raw):
    with pytest.raises(CodecError):
        decode_value(raw)


#: The message's fields as the string-keyed form wrote them: a tuple.
OLD_FIELDS = (Dot(3, "m0"), {"dc0": 7})

#: A class id is one byte of the fixed table, above every value tag, and
#: is followed by the fields by schema.  The type key and field tuple of
#: earlier releases start with a value tag, which no table id is.
BAD_MESSAGES = {
    "type key is a list": frame_of([KEY[0]]) + FIELDS,
    "type key is a dict": frame_of({}) + FIELDS,
    "type key is an int": frame_of(KEY[0]) + FIELDS,
    "type key is unknown": bytes([0xEE]) + FIELDS,
    "type key is a record's class id": bytes([0x01]) + FIELDS,
    "type key is a string": frame_of("dc.CommitAck", OLD_FIELDS),
    "fields is a list": KEY + frame_of(list(OLD_FIELDS)),
    "fields is a string": KEY + frame_of("ab"),
    "fields is an int": KEY + frame_of(5),
    "one field short": KEY + ACK_DOT,
    "one field over": KEY + FIELDS + b"\x00",
}


@pytest.mark.parametrize("raw", BAD_MESSAGES.values(), ids=BAD_MESSAGES.keys())
def test_bad_type_key_fields_or_arity_raise_codec_error(raw):
    assert decode_message(KEY + FIELDS) == codec.message_classes()[0x17](
        *OLD_FIELDS)
    with pytest.raises(CodecError):
        decode_message(raw)
    with pytest.raises(CodecError):
        decode_frame(frame_of("a", "b") + raw)
    with pytest.raises(CodecError):       # the same, as a nested payload
        decode_value(b"\x0c" + raw)


# -- records, byte by byte ----------------------------------------------------

def varint(n):
    out = bytearray()
    while n > 0x7F:
        out.append(n & 0x7F | 0x80)
        n >>= 7
    out.append(n)
    return bytes(out)


def s(text):
    """A string field: tag, length, UTF-8 — as any string value."""
    return encode_value(text)


def i(n):
    """An int field: a zigzag varint and no tag."""
    return varint(n << 1 if n >= 0 else ((-n) << 1) - 1)


def counts(mapping):
    return varint(len(mapping)) + b"".join(
        s(key) + i(value) for key, value in sorted(mapping.items()))


def seq(*records):
    return varint(len(records)) + b"".join(records)


def rec(class_id, *fields):
    """A record as a value: the record tag, its class id, its fields."""
    return b"\x0d" + bytes([class_id]) + b"".join(fields)


def runs(*runs):
    """Dot runs, as written: ``(origin, first counter, delta, ...)`` per
    run, in the order given."""
    out = varint(len(runs))
    for origin, first, *deltas in runs:
        out += s(origin) + varint(1 + len(deltas)) + i(first)
        out += b"".join(varint(delta) for delta in deltas)
    return out


DOT = i(3) + s("dc0")                       # the fields of Dot(3, "dc0")
RUNS = runs(("dc0", 3))                     # the dot runs of (Dot(3, "dc0"),)
_VC = counts({"dc0": 2})
_SNAP = _VC + runs()                        # no local deps
_STAMP = counts({"dc0": 3})
_KEY = s("b") + s("k")


def txn(dot=DOT, origin=s("e1"), snapshot=_SNAP, commit=_STAMP,
        writes=seq(), issuer=b"\x00"):
    return rec(0x08, dot, origin, snapshot, commit, writes, issuer)


def state(key=_KEY, type_name=s("counter"),
          base=encode_value({"type": "counter", "value": 1}),
          base_dots=RUNS):
    return rec(0x0A, key, type_name, base, base_dots)


def stream_entry(deps=runs()):
    return rec(0x09, DOT, s("dc0"), b"\x00", counts({}), deps, counts({}),
               seq())


#: Op ids of the table (``test_op_schemas.PINNED``).
INCREMENT, ORSET_REMOVE, GMAP_UPDATE, RGA_INSERT = 0x01, 0x09, 0x13, 0x16


def op(op_id, *fields, tag=b"\x00"):
    """An operation record: its op id, its payload's fields, its tag."""
    return rec(0x03, bytes([op_id]), *fields, tag)


BAD_RECORDS = {
    "dot one field short": rec(0x01, i(3)),
    "dot one field over": rec(0x01, DOT, i(1)),
    "dot counter is a string": rec(0x01, s("3"), s("dc0")),
    "dot origin is an int": rec(0x01, i(3), encode_value(7)),
    "vector value is a string": rec(0x05, varint(1) + s("dc0") + s("2")),
    "vector is a list": rec(0x05, encode_value([1, 2])),
    "snapshot deps are a list": rec(0x06, _VC, encode_value([])),
    "snapshot dep is a dot record": rec(0x06, _VC, seq(rec(0x01, DOT))),
    "stamp entry is negative text": rec(0x07, varint(1) + s("dc0")
                                        + s("-1")),
    "transaction one field short": txn()[:-1],
    "transaction dot is a dict": txn(dot=encode_value(
        {"counter": 3, "origin": "dc0"})),
    "transaction snapshot is a vector": txn(snapshot=_VC),
    "transaction writes hold a dict": txn(writes=seq(encode_value(
        {"key": {}, "op": {}}))),
    "transaction issuer is an int": txn(issuer=encode_value(5)),
    "write op is key and key": rec(0x04, _KEY, _KEY),
    "unknown op id": op(0xEE, i(1)),
    "op id 0": op(0x00, i(1)),
    "operation in its old named form": rec(0x03, s("counter"),
                                           s("increment"),
                                           encode_value({"amount": 1}),
                                           b"\x00"),
    "payload field missing": op(ORSET_REMOVE, s("x")),
    "payload field of the wrong kind": op(ORSET_REMOVE, s("x"),
                                          encode_value({})),
    "counter amount is a string": op(INCREMENT, s("1")),
    "map child is a list": op(GMAP_UPDATE, s("k"), encode_value([])),
    "rga anchor is a tuple": op(RGA_INSERT, encode_value((1, "a", 0)),
                                s("v")),
    "operation cut before its tag": op(INCREMENT, i(1), tag=b""),
    "tag is a list": op(INCREMENT, i(1), tag=encode_value([1, "a", 0])),
    "stream entry deps are dots in a list": stream_entry(
        encode_value([rec(0x01, DOT)])),
    "stream entry one field over": stream_entry() + b"\x00",
    "unknown class id": rec(0xEE, DOT),
    "string where an int is due": rec(
        0x09, DOT, s("dc0"), b"\x00",
        varint(2) + s("dc1") + s("2") + s("dc2") + i(1), runs(), counts({}),
        seq()),
    "truncated inside a nested record": txn()[:2 + len(DOT) + 4 + 3],
    "object state base is a list": state(base=encode_value([1])),
    "object state base is a CRDT record": state(base=rec(0x02, _KEY)),
    "object state run has no counters": state(base_dots=varint(1)
                                              + s("dc0")),
    "object state dots are a list": state(base_dots=encode_value([])),
    "object state one field short": state()[:-len(RUNS)],
    "truncated inside the object state's key": state()[:2 + len(s("b"))
                                                       + 1],
}

#: Dot runs the decoder refuses: not the encoder's form, or no form.
BAD_RUNS = {
    "origins out of order": runs(("dc1", 1), ("dc0", 2)),
    "an origin twice": runs(("dc0", 1), ("dc0", 2)),
    "a zero delta": runs(("dc0", 3, 0)),
    "an empty run": varint(1) + s("dc0") + varint(0),
    "a run-count bomb": varint(2**62) + s("dc0") + varint(1) + i(1),
    "a counter-count bomb": (varint(1) + s("dc0") + varint(2**62) + i(1)
                             + b"\x01" * 8),
    "truncated inside a run": runs(("dc0", 3, 1, 300))[:-1],
    "a run's origin is an int": varint(1) + encode_value(7) + varint(1)
    + i(1),
    "a run's counter is a string": varint(1) + s("dc0") + varint(1)
    + s("3"),
}
for name, raw in BAD_RUNS.items():
    BAD_RECORDS[f"snapshot deps: {name}"] = rec(0x06, _VC, raw)
    BAD_RECORDS[f"stream entry deps: {name}"] = stream_entry(raw)
    BAD_RECORDS[f"object state dots: {name}"] = state(base_dots=raw)


@pytest.mark.parametrize("bad", BAD_RECORDS.values(), ids=BAD_RECORDS.keys())
def test_records_of_wrong_arity_or_field_type_raise_codec_error(bad):
    apply = frame_of("a", "b") + bytes([0x15])    # an EdgeCommit: a value
    good = txn()
    assert good == encode_value(Transaction(
        Dot(3, "dc0"), "e1", Snapshot(VectorClock({"dc0": 2})),
        CommitStamp({"dc0": 3})))
    assert type(decodes_or_refuses(apply + good).txn) is Transaction
    with pytest.raises(CodecError):
        decode_value(bad)
    with pytest.raises(CodecError):      # inside a message, in a frame
        decode_frame(apply + bad)


def test_an_object_state_decodes_from_its_fields():
    assert decode_value(state()) == ObjectState(
        ObjectKey("b", "k"), "counter", {"type": "counter", "value": 1},
        (Dot(3, "dc0"),))


def test_dot_runs_decode_to_a_set_or_to_a_tuple_in_dot_order():
    both = runs(("a", 5), ("b", 1, 1))
    dots = (Dot(1, "b"), Dot(2, "b"), Dot(5, "a"))
    assert decode_value(rec(0x06, _VC, both)) \
        == Snapshot(VectorClock({"dc0": 2}), dots)
    assert decode_value(stream_entry(both)).deps == dots
    assert decode_value(state(base_dots=both)).base_dots == dots
    assert encode_value(decode_value(stream_entry(both))) \
        == stream_entry(both)


def test_a_record_is_not_a_message():
    dot = rec(0x01, DOT)
    for raw in (dot,                                 # a record as message
                bytes([0x01]) + DOT,                 # a record's class id
                frame_of("core.Dot", (3, "dc0"))):   # records have no key
        with pytest.raises(CodecError):
            decode_message(raw)
        with pytest.raises(CodecError):
            decode_frame(frame_of("a", "b") + raw)
    assert decode_value(dot) == Dot(3, "dc0")


def test_frame_addresses_must_be_strings():
    assert decode_frame(frame_of("a", "b") + KEY + FIELDS)[:2] == ("a", "b")
    with pytest.raises(CodecError):
        decode_frame(frame_of(1, "b") + KEY + FIELDS)
    with pytest.raises(CodecError):
        decode_frame(frame_of("a", None) + KEY + FIELDS)


def nested(levels):
    value = None
    for _ in range(levels):
        value = (value,)
    return value


def test_nesting_is_bounded_the_same_in_both_directions():
    deepest = nested(MAX_DEPTH)
    assert decode_value(encode_value(deepest)) == deepest
    with pytest.raises(CodecError):
        encode_value(nested(MAX_DEPTH + 1))
    with pytest.raises(CodecError):
        decode_value(bytes([0x08, 1]) * (MAX_DEPTH + 1) + b"\x00")
    for wrap in (lambda v: {"k": v}, lambda v: {1: v}, lambda v: [v],
                 lambda v: frozenset([v])):
        with pytest.raises(CodecError):
            encode_value(wrap(nested(MAX_DEPTH)))


def test_a_sample_survives_every_entry_point_untouched():
    # The fuzz above proves nothing if the corpus itself is refused.
    for body, message in zip(BODIES, samples.all_samples()):
        assert decodes_or_refuses(body) == message
        assert decode_message(encode_message(message)) == message
