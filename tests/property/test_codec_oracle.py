"""The single-pass codec against the recursive one it replaced.

``oracle_encode``/``oracle_decode`` are the value codec as it was before
the encoder wrote into one buffer and the decoder read containers in
one call (kept verbatim but for the names of its two entry points, like
``FullScanReplica`` in ``test_epaxos_properties.py``): every dict item
and set element is encoded to its own ``bytes`` and the pairs are
sorted.  The record form (``_T_REC``) was taught to it before the codec
learnt it, written as naively as the rest: its own schema table, one
field at a time, no string tables; so were operations by op id (the
pinned table of ``test_op_schemas.py``), dot collections as runs and
messages by class id (``MESSAGE_IDS``, each message's fields derived
from its annotations by ``_message_kind``, apart from the codec's own
derivation).  The wire format is whatever this oracle says it is;
``CORPUS_SHA256`` pins it, so a process from before a rewrite and one
from after interoperate by construction.
"""

import dataclasses
import hashlib
import importlib
import struct
import typing
from typing import Dict, FrozenSet, Optional

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
#: concatenated, computed with the oracle (74 frames, 4 691 B; 7 111 B
#: with consensus commands in their ``to_dict()`` form, 8 657 B with
#: string type keys and field tuples, 9 286 B before operations by op id
#: and dot runs).  A change to ``samples.py`` re-pins it from
#: ``oracle_frame``; a change to the codec must not.
CORPUS_SHA256 = \
    "56dea091e638f7951c88ae6e826e44fe148bf165fca39e88a5345715e2bc8a3b"

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

#: Message class id -> (module, class name): the codec's fixed table.
MESSAGE_IDS = {
    0x10: ("repro.dc.messages", "SessionOpen"),
    0x11: ("repro.dc.messages", "SessionAck"),
    0x12: ("repro.dc.messages", "InterestChange"),
    0x13: ("repro.dc.messages", "ObjectRequest"),
    0x14: ("repro.dc.messages", "ObjectResponse"),
    0x15: ("repro.dc.messages", "EdgeCommit"),
    0x16: ("repro.dc.messages", "EdgeCommitBatch"),
    0x17: ("repro.dc.messages", "CommitAck"),
    0x18: ("repro.dc.messages", "CommitReject"),
    0x19: ("repro.dc.messages", "UpdatePush"),
    0x1A: ("repro.dc.messages", "RemoteTxnRequest"),
    0x1B: ("repro.dc.messages", "RemoteTxnReply"),
    0x1C: ("repro.dc.messages", "DCSyncPing"),
    0x1D: ("repro.dc.messages", "ReplicateBatch"),
    0x1E: ("repro.dc.messages", "InterestAdvert"),
    0x1F: ("repro.dc.messages", "ShardBackfill"),
    0x20: ("repro.dc.messages", "ReplicateBatchAck"),
    0x21: ("repro.dc.messages", "ShardPrepare"),
    0x22: ("repro.dc.messages", "ShardVote"),
    0x23: ("repro.dc.messages", "ShardCommit"),
    0x24: ("repro.dc.messages", "ShardAbort"),
    0x25: ("repro.dc.messages", "ShardApply"),
    0x26: ("repro.dc.messages", "ShardApplyBatch"),
    0x27: ("repro.dc.messages", "ShardCompactMsg"),
    0x28: ("repro.dc.messages", "ShardRead"),
    0x29: ("repro.dc.messages", "ShardReadReply"),
    0x30: ("repro.epaxos.messages", "PreAccept"),
    0x31: ("repro.epaxos.messages", "PreAcceptReply"),
    0x32: ("repro.epaxos.messages", "Accept"),
    0x33: ("repro.epaxos.messages", "AcceptReply"),
    0x34: ("repro.epaxos.messages", "Commit"),
    0x35: ("repro.epaxos.messages", "Prepare"),
    0x36: ("repro.epaxos.messages", "PrepareReply"),
    0x37: ("repro.epaxos.messages", "TigaPropose"),
    0x38: ("repro.epaxos.messages", "TigaAck"),
    0x39: ("repro.epaxos.messages", "TigaCommit"),
    0x3A: ("repro.epaxos.messages", "TigaWithdraw"),
    0x3B: ("repro.epaxos.messages", "TigaStatus"),
    0x40: ("repro.groups.messages", "GroupMsg"),
    0x41: ("repro.groups.messages", "JoinGroup"),
    0x42: ("repro.groups.messages", "LeaveGroup"),
    0x43: ("repro.groups.messages", "MembershipUpdate"),
    0x44: ("repro.groups.messages", "GroupSeed"),
    0x45: ("repro.groups.messages", "InterestAnnounce"),
    0x46: ("repro.groups.messages", "GroupFetch"),
    0x47: ("repro.groups.messages", "GroupFetchReply"),
    0x48: ("repro.groups.messages", "GroupRelayPush"),
    0x49: ("repro.groups.messages", "GroupCommitAck"),
    0x4A: ("repro.groups.messages", "TxnPull"),
    0x4B: ("repro.groups.messages", "TxnPushMsg"),
    0x50: ("repro.serve.control", "CtrlStart"),
    0x51: ("repro.serve.control", "CtrlDigestRequest"),
    0x52: ("repro.serve.control", "CtrlDigestReply"),
    0x53: ("repro.serve.control", "CtrlShutdown"),
    0x54: ("repro.serve.control", "CtrlBye"),
}


def _message_kind(hint):
    """A message field's kind, from its annotation: a string, an int, an
    optional string, a vector (``Dict[str, int]``), a record, a tuple of
    records but dots, a frozenset of dots — else any value."""
    args = typing.get_args(hint)
    if hint is str:
        return "str"
    if hint is int:
        return "int"
    if hint in _IDS:
        return hint
    if hint == Optional[str]:
        return "optional str"
    if hint == Dict[str, int]:
        return "counts"
    if typing.get_origin(hint) is tuple and args[1:] == (...,) \
            and args[0] in _IDS and args[0] is not Dot:
        return ("tuple", args[0])
    if hint == FrozenSet[Dot]:
        return ("frozenset", Dot)
    return "value"


def _message_class(module, name):
    cls = getattr(importlib.import_module(module), name)
    hints = typing.get_type_hints(cls)
    _SCHEMA[cls] = tuple((f.name, _message_kind(hints[f.name]))
                         for f in dataclasses.fields(cls))
    return cls


_MESSAGES = {mid: _message_class(module, name)
             for mid, (module, name) in MESSAGE_IDS.items()}
_MESSAGE_IDS = {cls: mid for mid, cls in _MESSAGES.items()}


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
        out.append(_T_MSG)
        _write_message(out, value)


def _write_message(out, message):
    mid = _MESSAGE_IDS.get(type(message))
    if mid is None:
        raise CodecError(f"unencodable value of type "
                         f"{type(message).__name__}: {message!r}")
    out.append(mid)
    _write_fields(out, message)


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
        return _read_message(buf, pos)
    raise CodecError(f"unknown tag 0x{tag:02x} at offset {pos - 1}")


def _read_message(buf, pos):
    if pos >= len(buf) or buf[pos] not in _MESSAGES:
        raise CodecError("no message class id")
    return _read_fields(buf, pos + 1, _MESSAGES[buf[pos]])


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
    _write_message(body, message)
    return len(body).to_bytes(4, "big") + bytes(body)


def oracle_decode_frame(body):
    """``(src, dst, message)`` of a frame body."""
    src, pos = _read_value(body, 0)
    dst, pos = _read_value(body, pos)
    message, pos = _read_message(body, pos)
    if pos != len(body):
        raise CodecError(f"{len(body) - pos} trailing bytes after frame")
    return src, dst, message


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


def test_the_oracle_knows_every_message_class_by_its_id():
    assert {mid: (module, name) for mid, module, name
            in codec.message_ids()} == MESSAGE_IDS
    assert codec.message_classes() == _MESSAGES
    # The codec names a container kind by its type, the oracle by name.
    assert {cls: tuple((name, (kind[0].__name__, kind[1])
                        if type(kind) is tuple else kind)
                       for name, kind in schema)
            for cls, schema in codec.message_schemas().items()} == {
        cls: _SCHEMA[cls] for cls in _MESSAGES.values()}


def test_corpus_digest_is_the_one_pinned_at_the_recursive_codec():
    frames = [encode_frame("dc0", "dc1", message)
              for message in samples.all_samples()]
    assert len(frames) == 74 and sum(map(len, frames)) == 4691
    assert hashlib.sha256(b"".join(frames)).hexdigest() == CORPUS_SHA256
    assert frames == [oracle_frame("dc0", "dc1", message)
                      for message in samples.all_samples()]
