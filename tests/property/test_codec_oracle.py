"""The single-pass codec against the recursive one it replaced.

``oracle_encode``/``oracle_decode`` are the value codec as it was before
the encoder wrote into one buffer and the decoder read containers in
one call (kept verbatim but for the names of its two entry points, like
``FullScanReplica`` in ``test_epaxos_properties.py``): every dict item
and set element is encoded to its own ``bytes`` and the pairs are
sorted.  The record form (``_T_REC``) was taught to it before the codec
learnt it, written as naively as the rest: its own schema table, one
field at a time, no string tables; so were operations by op id (the
pinned table of ``test_op_schemas.py``) and dot collections as runs.
The wire format is whatever this oracle says it is; ``CORPUS_SHA256``
pins it, so a process from before a rewrite and one from after
interoperate by construction.
"""

import hashlib
import struct

from hypothesis import given, strategies as st

from repro.core.clock import VectorClock
from repro.core.dot import Dot
from repro.core.journal import ObjectState
from repro.core.txn import (CommitStamp, ObjectKey, Snapshot, StreamEntry,
                            Transaction, WriteOp)
from repro.crdt.base import Operation
from repro.transport import codec, samples
from repro.transport.codec import (decode_frame, decode_value, encode_frame,
                                   encode_value)

from ..unit.test_op_schemas import PINNED
from .test_codec_roundtrip import RECORDS, _hashable, _values

#: SHA-256 of ``encode_frame("dc0", "dc1", m)`` over ``all_samples()``,
#: concatenated, computed with the oracle (74 frames, 8 657 B; 9 286 B
#: before operations by op id and dot runs).  A change to ``samples.py``
#: re-pins it from ``oracle_frame``; a change to the codec must not.
CORPUS_SHA256 = \
    "07555e160baba1faf756e5691c9d1cd354dc29d446b4dd8b89a8bd73f69646c3"

# ----------------------------------------------------------------------
# the oracle (verbatim)
# ----------------------------------------------------------------------
_T_NONE = 0x00
_T_FALSE = 0x01
_T_TRUE = 0x02
_T_INT = 0x03
_T_FLOAT = 0x04
_T_STR = 0x05
_T_BYTES = 0x06
_T_LIST = 0x07
_T_TUPLE = 0x08
_T_DICT = 0x09
_T_SET = 0x0A
_T_FROZENSET = 0x0B
_T_MSG = 0x0C

_T_REC = 0x0D

_DOUBLE = struct.Struct(">d")
codec.message_classes()         # the registry fills on first use
_BY_KEY = codec._BY_KEY
_BY_CLASS = codec._BY_CLASS
_FIELDS = codec._FIELDS
CodecError = codec.CodecError

#: Class id -> (class, fields); a field is (attribute, kind), and a kind
#: is "str", "int", "counts", "optional str", "value", "op" (the
#: operation's type name, method and payload), a record class (its
#: fields, inline) or ("tuple" | "frozenset", record class) — of Dot,
#: dot runs.
SCHEMAS = {
    0x01: (Dot, (("counter", "int"), ("origin", "str"))),
    0x02: (ObjectKey, (("bucket", "str"), ("key", "str"))),
    0x03: (Operation, (("payload", "op"), ("tag", "value"))),
    0x04: (WriteOp, (("key", ObjectKey), ("op", Operation))),
    0x05: (VectorClock, (("_entries", "counts"),)),
    0x06: (Snapshot, (("vector", VectorClock),
                      ("local_deps", ("frozenset", Dot)))),
    0x07: (CommitStamp, (("entries", "counts"),)),
    0x08: (Transaction, (("dot", Dot), ("origin", "str"),
                         ("snapshot", Snapshot), ("commit", CommitStamp),
                         ("writes", ("tuple", WriteOp)),
                         ("issuer", "optional str"))),
    0x09: (StreamEntry, (("dot", Dot), ("origin", "str"),
                         ("issuer", "optional str"), ("sv", "counts"),
                         ("deps", ("tuple", Dot)), ("cx", "counts"),
                         ("writes", ("tuple", WriteOp)))),
    0x0A: (ObjectState, (("key", ObjectKey), ("type_name", "str"),
                         ("base", "value"), ("base_dots", ("tuple", Dot)))),
}
_IDS = {cls: cid for cid, (cls, _fields) in SCHEMAS.items()}
_SCHEMA = {cls: fields for cls, fields in SCHEMAS.values()}
#: Op id -> (type name, method, payload fields); a field is (name,
#: kind), and a kind is "int" or ("value", ...): the table of
#: ``test_op_schemas.py``.
_OPS = {oid: (type_name, method, fields)
        for oid, type_name, method, fields in PINNED}
_OP_IDS = {(type_name, method): oid
           for oid, (type_name, method, _fields) in _OPS.items()}


def _write_varint(out, n):
    while True:
        b = n & 0x7F
        n >>= 7
        if n:
            out.append(b | 0x80)
        else:
            out.append(b)
            return


def _read_varint(buf, pos):
    result = 0
    shift = 0
    while True:
        if pos >= len(buf):
            raise CodecError("truncated varint")
        b = buf[pos]
        pos += 1
        result |= (b & 0x7F) << shift
        if not b & 0x80:
            return result, pos
        shift += 7
        if shift > 1024:
            raise CodecError("varint too long")


def _write_value(out, value):
    if value is None:
        out.append(_T_NONE)
    elif value is True:
        out.append(_T_TRUE)
    elif value is False:
        out.append(_T_FALSE)
    elif type(value) is int:
        out.append(_T_INT)
        # zigzag so negatives stay compact (arbitrary precision)
        _write_varint(out, value << 1 if value >= 0 else ((-value) << 1) - 1)
    elif type(value) is float:
        out.append(_T_FLOAT)
        out += _DOUBLE.pack(value)
    elif type(value) is str:
        raw = value.encode("utf-8")
        out.append(_T_STR)
        _write_varint(out, len(raw))
        out += raw
    elif type(value) is bytes:
        out.append(_T_BYTES)
        _write_varint(out, len(value))
        out += value
    elif type(value) is list or type(value) is tuple:
        out.append(_T_LIST if type(value) is list else _T_TUPLE)
        _write_varint(out, len(value))
        for item in value:
            _write_value(out, item)
    elif type(value) is dict:
        out.append(_T_DICT)
        _write_varint(out, len(value))
        for kraw, vraw in sorted(
                (oracle_encode(k), oracle_encode(v))
                for k, v in value.items()):
            out += kraw
            out += vraw
    elif type(value) is set or type(value) is frozenset:
        out.append(_T_SET if type(value) is set else _T_FROZENSET)
        _write_varint(out, len(value))
        for raw in sorted(oracle_encode(item) for item in value):
            out += raw
    elif type(value) in _IDS:
        out.append(_T_REC)
        out.append(_IDS[type(value)])
        _write_fields(out, value)
    else:
        # Envelope messages (GroupMsg, relays) carry other protocol
        # messages as payloads; registered dataclasses nest natively.
        key = _BY_CLASS.get(type(value))
        if key is None:
            raise CodecError(f"unencodable value of type "
                             f"{type(value).__name__}: {value!r}")
        out.append(_T_MSG)
        _write_value(out, key)
        _write_value(out, tuple(getattr(value, name)
                                for name in _FIELDS[type(value)]))


def _zigzag(n):
    return n << 1 if n >= 0 else ((-n) << 1) - 1


def _write_fields(out, record):
    for name, kind in _SCHEMA[type(record)]:
        if kind == "op":
            _write_op(out, record)
        else:
            _write_field(out, kind, getattr(record, name))


def _write_op(out, op):
    oid = _OP_IDS[op.type_name, op.method]
    out.append(oid)
    for name, kind in _OPS[oid][2]:
        _write_field(out, kind, op.payload[name])


def _write_field(out, kind, value):
    if kind in ("str", "optional str", "value", ("value", list),
                ("value", dict)):
        _write_value(out, value)
    elif kind == "int":
        _write_varint(out, _zigzag(value))
    elif kind == "counts":
        _write_varint(out, len(value))
        for key, count in sorted(value.items()):
            _write_value(out, key)
            _write_varint(out, _zigzag(count))
    elif isinstance(kind, type):
        _write_fields(out, value)
    elif kind[1] is Dot:
        runs = {}
        for dot in value:
            runs.setdefault(dot.origin, []).append(dot.counter)
        _write_varint(out, len(runs))
        for origin in sorted(runs):
            counters = sorted(runs[origin])
            _write_value(out, origin)
            _write_varint(out, len(counters))
            _write_varint(out, _zigzag(counters[0]))
            for before, counter in zip(counters, counters[1:]):
                _write_varint(out, counter - before)
    else:
        _write_varint(out, len(value))
        for item in sorted(value) if kind[0] == "frozenset" else value:
            _write_fields(out, item)


def oracle_encode(value):
    out = bytearray()
    _write_value(out, value)
    return bytes(out)


def _read_value(buf, pos):
    if pos >= len(buf):
        raise CodecError("truncated value")
    tag = buf[pos]
    pos += 1
    if tag == _T_NONE:
        return None, pos
    if tag == _T_TRUE:
        return True, pos
    if tag == _T_FALSE:
        return False, pos
    if tag == _T_INT:
        z, pos = _read_varint(buf, pos)
        return (z >> 1) ^ -(z & 1), pos
    if tag == _T_FLOAT:
        if pos + 8 > len(buf):
            raise CodecError("truncated float")
        return _DOUBLE.unpack_from(buf, pos)[0], pos + 8
    if tag == _T_STR or tag == _T_BYTES:
        n, pos = _read_varint(buf, pos)
        if pos + n > len(buf):
            raise CodecError("truncated string")
        raw = buf[pos:pos + n]
        pos += n
        return (raw.decode("utf-8") if tag == _T_STR else bytes(raw)), pos
    if tag == _T_LIST or tag == _T_TUPLE:
        n, pos = _read_varint(buf, pos)
        items = []
        for _ in range(n):
            item, pos = _read_value(buf, pos)
            items.append(item)
        return (items if tag == _T_LIST else tuple(items)), pos
    if tag == _T_DICT:
        n, pos = _read_varint(buf, pos)
        d = {}
        for _ in range(n):
            k, pos = _read_value(buf, pos)
            v, pos = _read_value(buf, pos)
            d[k] = v
        return d, pos
    if tag == _T_SET or tag == _T_FROZENSET:
        n, pos = _read_varint(buf, pos)
        elems = []
        for _ in range(n):
            item, pos = _read_value(buf, pos)
            elems.append(item)
        return (set(elems) if tag == _T_SET else frozenset(elems)), pos
    if tag == _T_REC:
        return _read_fields(buf, pos + 1, SCHEMAS[buf[pos]][0])
    if tag == _T_MSG:
        key, pos = _read_value(buf, pos)
        fields, pos = _read_value(buf, pos)
        cls = _BY_KEY.get(key)
        if cls is None:
            raise CodecError(f"unknown nested message type {key!r}")
        return cls(*fields), pos
    raise CodecError(f"unknown tag 0x{tag:02x} at offset {pos - 1}")


def _read_fields(buf, pos, cls):
    fields = []
    for _name, kind in _SCHEMA[cls]:
        if kind == "op":
            type_name, method, op_fields = _OPS[buf[pos]]
            pos += 1
            payload = {}
            for name, op_kind in op_fields:
                payload[name], pos = _read_field(buf, pos, op_kind)
            fields += [type_name, method, payload]
        else:
            value, pos = _read_field(buf, pos, kind)
            fields.append(value)
    return cls(*fields), pos


def _read_field(buf, pos, kind):
    if kind in ("str", "optional str", "value", ("value", list),
                ("value", dict)):
        return _read_value(buf, pos)
    if kind == "int":
        z, pos = _read_varint(buf, pos)
        return (z >> 1) ^ -(z & 1), pos
    if kind == "counts":
        n, pos = _read_varint(buf, pos)
        counts = {}
        for _ in range(n):
            key, pos = _read_value(buf, pos)
            z, pos = _read_varint(buf, pos)
            counts[key] = (z >> 1) ^ -(z & 1)
        return counts, pos
    if isinstance(kind, type):
        return _read_fields(buf, pos, kind)
    n, pos = _read_varint(buf, pos)
    if kind[1] is Dot:
        dots = []
        for _ in range(n):
            origin, pos = _read_value(buf, pos)
            count, pos = _read_varint(buf, pos)
            counter = 0
            for i in range(count):
                z, pos = _read_varint(buf, pos)
                counter = (z >> 1) ^ -(z & 1) if i == 0 else counter + z
                dots.append(Dot(counter, origin))
        return (frozenset(dots) if kind[0] == "frozenset"
                else tuple(sorted(dots))), pos
    items = []
    for _ in range(n):
        item, pos = _read_fields(buf, pos, kind[1])
        items.append(item)
    return (frozenset(items) if kind[0] == "frozenset" else tuple(items)), pos


def oracle_decode(buf):
    value, pos = _read_value(buf, 0)
    if pos != len(buf):
        raise CodecError(f"{len(buf) - pos} trailing bytes after value")
    return value


def oracle_frame(src, dst, message):
    """``encode_frame`` as it was: three buffers and a prefix."""
    body = bytearray()
    _write_value(body, src)
    _write_value(body, dst)
    _write_value(body, _BY_CLASS[type(message)])
    _write_value(body, tuple(getattr(message, name)
                             for name in _FIELDS[type(message)]))
    return len(body).to_bytes(4, "big") + bytes(body)


# ----------------------------------------------------------------------
# the differential
# ----------------------------------------------------------------------
def check_same(value):
    raw = encode_value(value)
    assert raw == oracle_encode(value)
    ours, theirs = decode_value(raw), oracle_decode(raw)
    assert ours == theirs == value
    assert type(ours) is type(theirs)


@given(_values)
def test_value_trees_encode_and_decode_as_the_oracle(value):
    check_same(value)


# Key sets whose order the encoded length byte decides, not the text:
# "b" < "aa" on the wire, "aa" < "b" as strings; and non-ASCII keys,
# whose byte length is not their character count.
_keys = st.one_of(st.text(max_size=8),
                  st.text(alphabet="abé∆", min_size=1, max_size=3),
                  st.text(min_size=120, max_size=140))


@given(st.dictionaries(_keys, _values, max_size=8))
def test_str_keyed_dicts_sort_as_the_oracle(mapping):
    check_same(mapping)
    check_same({"outer": [mapping, mapping]})


@given(st.dictionaries(st.one_of(_keys, _hashable), _values, max_size=8))
def test_mixed_key_dicts_sort_as_the_oracle(mapping):
    check_same(mapping)


@given(st.one_of(*RECORDS.values()))
def test_records_encode_and_decode_as_the_oracle(record):
    check_same(record)
    check_same({"nested": (record, [record])})


def test_lengths_and_counts_past_one_byte_match():
    check_same({f"k{i}": i for i in range(200)})
    check_same({i: None for i in range(-100, 100)})
    check_same(list(range(-200, 200)))
    check_same(frozenset(range(200)))
    check_same(("x" * 200, "é" * 100, b"\x00" * 200, 2**70, -(2**70)))


def test_every_sample_matches_the_oracle():
    for message in samples.all_samples():
        check_same(message)
        frame = encode_frame("dc0", "édge-1", message)
        assert frame == oracle_frame("dc0", "édge-1", message)
        assert decode_frame(frame[4:]) == ("dc0", "édge-1", message)


def test_the_oracle_knows_every_record_class_by_its_id():
    assert codec.record_classes() == {
        cid: cls for cid, (cls, _fields) in SCHEMAS.items()}


def test_corpus_digest_is_the_one_pinned_at_the_recursive_codec():
    frames = [encode_frame("dc0", "dc1", message)
              for message in samples.all_samples()]
    assert len(frames) == 74 and sum(map(len, frames)) == 8657
    assert hashlib.sha256(b"".join(frames)).hexdigest() == CORPUS_SHA256
    assert frames == [oracle_frame("dc0", "dc1", message)
                      for message in samples.all_samples()]
