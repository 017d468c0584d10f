"""Length-prefixed wire codec for every protocol message dataclass.

The simulator passes message objects by reference; the asyncio backend
needs real bytes.  This module provides a small self-describing binary
encoding with two layers:

* a **value codec** covering the closed set of types protocol messages
  are built from — ``None``, ``bool``, ``int`` (arbitrary precision,
  zigzag varint), ``float`` (IEEE-754 double), ``str``, ``bytes``,
  ``list``, ``tuple``, ``dict``, ``set``, ``frozenset``.  Tuples and
  lists (and sets and frozensets) round-trip to their exact type so
  decoded dataclasses compare equal to the originals.  Set and dict
  elements are serialised in sorted-by-encoded-bytes order, making the
  encoding canonical: equal values produce equal bytes regardless of
  insertion order or hash seed.
* **messages** and **records**, written by schema: a message is a
  one-byte class id from the fixed table :func:`message_ids`, then its
  dataclass fields in declaration order, each of the kind its annotation
  gives (:func:`message_schemas`); nested in a value it follows the
  ``_T_MSG`` tag.  A record — the core values messages carry:
  ``Transaction`` and its parts, ``StreamEntry``, ``ObjectState`` — is
  the ``_T_REC`` tag, a one-byte class id from the fixed table
  :func:`record_schemas`, then its fields in schema order.  Fields carry
  no names and, but for strings and ``VALUE`` fields, no tags.  An
  ``Operation`` is a one-byte op id from the fixed table
  :func:`op_schemas`, then its payload's fields in the order its CRDT
  class declares them; a collection of dots is one run per origin, the
  origin once and the counters as deltas.  Each class's and each op's
  encoder, decoder and sizer are generated once, from the schema, when
  the registry fills; the three protocol message modules register then,
  and ``repro.serve`` registers its control messages at import.  A
  field's schema fixes its type, so the decoder validates by
  construction: a value built from hostile bytes is either well typed or
  ``CodecError``.  A record never stands alone in a frame.

A frame on the socket is a 4-byte big-endian length, then ``src`` and
``dst`` as string values, then the message.

The bytes are defined by the recursive implementation kept as the
oracle in ``tests/property/test_codec_oracle.py``; the encoder and the
decoder here produce and accept exactly those, in one pass each.  The
encoder appends every value once to one buffer and orders a
``str``-keyed dict by its keys' encodings alone (they are unique, so
the order never depends on a value); the decoder reads the values of a
container in one call, scalars in the loop.  Each direction keeps a
bounded table of short strings, which nothing but the clock can see;
the decoder keeps a third, of the frozen leaf records it has built
(:func:`shared_records`), and hands out one object per value.

Bytes from the network are not trusted: the three ``decode_*`` entry
points raise ``CodecError`` on anything that is not an encoding, and
nothing else.

:func:`wire_size` is the one measure of a message's bytes: the length
:func:`encode_message` would write, added up by the generated sizer
without writing it.  Every send charges it, in the simulator and on a
socket.
"""

from __future__ import annotations

import collections
import dataclasses
import importlib
import struct
import types
import typing
from typing import Any, Callable, Dict, List, Optional, Tuple, Type

from ..core.dot import Dot
from ..crdt.base import INT, VALUE, crdt_type

# ---------------------------------------------------------------------------
# Value codec
# ---------------------------------------------------------------------------

_T_NONE = 0x00
_T_FALSE = 0x01
_T_TRUE = 0x02
_T_INT = 0x03        # zigzag varint
_T_FLOAT = 0x04      # 8-byte big-endian IEEE-754 double
_T_STR = 0x05        # varint byte length + utf-8
_T_BYTES = 0x06      # varint byte length + raw
_T_LIST = 0x07       # varint count + elements
_T_TUPLE = 0x08
_T_DICT = 0x09       # varint count + (key, value) pairs, canonical order
_T_SET = 0x0A        # varint count + elements, canonical order
_T_FROZENSET = 0x0B
_T_MSG = 0x0C        # nested message: class id byte + fields by schema
_T_REC = 0x0D        # record: class id byte + fields by schema

_SINGLETONS = (None, False, True)    # by tag
_DOUBLE = struct.Struct(">d")

#: Frames larger than this are treated as corruption, not data.
MAX_FRAME_BYTES = 16 * 1024 * 1024

#: Deepest nesting of containers either direction accepts; top-level
#: values are at depth 0 and the deepest sample message reaches 8.  It
#: keeps hostile bytes from overflowing the interpreter stack.
MAX_DEPTH = 64

#: Longest UTF-8 form, in bytes, that either string table stores.
TABLE_STR_MAX_BYTES = 64
#: Entries in the encoder's ``str -> tag, length, UTF-8`` table, which
#: is emptied when full.  Benchmark lines that justify it:
#: ``transport.encode_mb_per_s``; ``live_saturate`` ``cpu_ms_per_txn``.
ENCODE_TABLE_MAX = 4096
#: Entries in the decoder's ``UTF-8 -> str`` table, emptied when full.
#: Benchmark lines that justify it: ``transport.decode_mb_per_s``;
#: ``live_saturate`` ``cpu_ms_per_txn`` and ``peak_rss_mb`` (decoded
#: field names and node ids are shared, not one copy per dict).
DECODE_TABLE_MAX = 4096
#: Entries in the sizer's ``str -> bytes as a value`` table, emptied when
#: full.  Benchmark lines that justify it: the ``des_*`` ``cpu_ms_per_txn``
#: (every send is sized; a string is counted once, not encoded).
SIZE_TABLE_MAX = 4096

#: Entries in the decoder's ``fields -> value`` table of the shared
#: records (:func:`shared_records`), emptied when full.  Benchmark lines
#: that justify it: ``live_saturate`` ``cpu_ms_per_txn`` and
#: ``peak_rss_mb`` (a site holds one ``Dot`` per dot, not one per
#: mention, and the cyclic collector walks that many fewer objects).
DECODE_VALUES_MAX = 4096

_TOO_DEEP = f"value nests deeper than MAX_DEPTH={MAX_DEPTH}"

_ENC_STRS: Dict[str, bytes] = {}
_DEC_STRS: Dict[bytes, str] = {}
_DEC_VALUES: Dict[Tuple[Any, ...], Any] = {}
_STR_SIZES: Dict[str, int] = {}


class CodecError(ValueError):
    """Raised on unencodable values or malformed byte streams."""


def _write_varint(out: bytearray, n: int) -> None:
    if n < 0x80:                # most lengths and counts: no loop
        out.append(n)
        return
    while True:
        b = n & 0x7F
        n >>= 7
        if n:
            out.append(b | 0x80)
        else:
            out.append(b)
            return


def _read_varint(buf: bytes, pos: int) -> Tuple[int, int]:
    # Runs inside ``_read_values``: running off the end is an
    # ``IndexError`` there, reported as a truncated value.
    result = 0
    shift = 0
    while True:
        b = buf[pos]
        pos += 1
        result |= (b & 0x7F) << shift
        if not b & 0x80:
            return result, pos
        shift += 7
        if shift > 1024:
            raise CodecError("varint too long")


def _encode_str(value: str) -> bytes:
    """Tag, length and UTF-8 of one string; short ones enter the table."""
    utf8 = value.encode("utf-8")
    out = bytearray((_T_STR,))
    _write_varint(out, len(utf8))
    out += utf8
    raw = bytes(out)
    if len(utf8) <= TABLE_STR_MAX_BYTES:
        if len(_ENC_STRS) >= ENCODE_TABLE_MAX:
            _ENC_STRS.clear()
        _ENC_STRS[value] = raw
    return raw


def _decode_str(utf8: bytes) -> str:
    try:
        value = utf8.decode("utf-8")
    except UnicodeDecodeError as exc:
        raise CodecError(f"string is not UTF-8: {exc}") from None
    if len(utf8) <= TABLE_STR_MAX_BYTES:
        if len(_DEC_STRS) >= DECODE_TABLE_MAX:
            _DEC_STRS.clear()
        _DEC_STRS[utf8] = value
    return value


def _write_value(out: bytearray, value: Any, depth: int) -> None:
    """Append the encoding of ``value``, which sits ``depth`` containers
    deep, to ``out``.  Branches are in the order of the measured mix on
    ``live_saturate``: 48 % strings, 25 % records, 11 % tuples, 9 % ints,
    8 % dicts."""
    t = type(value)
    if t is str:
        raw = _ENC_STRS.get(value)
        out += raw if raw is not None else _encode_str(value)
    elif t in _RECORD_IDS:
        if depth >= MAX_DEPTH:
            raise CodecError(_TOO_DEEP)
        out.append(_T_REC)
        out.append(_RECORD_IDS[t])
        try:
            _RECORD_WRITERS[t](out, value, depth + 1)
        except CodecError:
            raise
        except (TypeError, AttributeError, ValueError, KeyError) as exc:
            raise CodecError(f"{t.__name__} does not fit its schema: "
                             f"{exc}") from None
    elif t is list or t is tuple:
        if depth >= MAX_DEPTH:
            raise CodecError(_TOO_DEEP)
        depth += 1
        out.append(_T_LIST if t is list else _T_TUPLE)
        _write_varint(out, len(value))
        for item in value:
            _write_value(out, item, depth)
    elif t is int:
        out.append(_T_INT)
        if 0 <= value < 0x40:
            out.append(value << 1)
        else:
            # zigzag so negatives stay compact (arbitrary precision)
            _write_varint(out, value << 1 if value >= 0
                          else ((-value) << 1) - 1)
    elif t is dict:
        if depth >= MAX_DEPTH:
            raise CodecError(_TOO_DEEP)
        depth += 1
        out.append(_T_DICT)
        _write_varint(out, len(value))
        strs = _ENC_STRS
        keyed = []
        for k, v in value.items():
            if type(k) is not str:
                break
            raw = strs.get(k)
            keyed.append((raw if raw is not None else _encode_str(k), v))
        else:
            # Keys are unique and so are their encodings: the sort never
            # gets as far as comparing two values, and the order is the
            # one the pairwise sort below would give.
            keyed.sort()
            for raw, v in keyed:
                out += raw
                _write_value(out, v, depth)
            return
        for kraw, vraw in sorted((_encoded(k, depth), _encoded(v, depth))
                                 for k, v in value.items()):
            out += kraw
            out += vraw
    elif value is None:
        out.append(_T_NONE)
    elif value is True:
        out.append(_T_TRUE)
    elif value is False:
        out.append(_T_FALSE)
    elif t is float:
        out.append(_T_FLOAT)
        out += _DOUBLE.pack(value)
    elif t is bytes:
        out.append(_T_BYTES)
        _write_varint(out, len(value))
        out += value
    elif depth >= MAX_DEPTH:
        raise CodecError(_TOO_DEEP)
    elif t is set or t is frozenset:
        out.append(_T_SET if t is set else _T_FROZENSET)
        _write_varint(out, len(value))
        for raw in sorted(_encoded(item, depth + 1) for item in value):
            out += raw
    else:
        # Envelope messages (GroupMsg, relays) carry other protocol
        # messages as payloads; registered dataclasses nest natively.
        out.append(_T_MSG)
        _write_message(out, value, depth + 1)


def _encoded(value: Any, depth: int) -> bytes:
    out = bytearray()
    _write_value(out, value, depth)
    return bytes(out)


def encode_value(value: Any) -> bytes:
    _ensure_registry()
    return _encoded(value, 0)


def _read_values(buf: bytes, pos: int, n: int,
                 depth: int) -> Tuple[List[Any], int]:
    """Decode the ``n`` consecutive values that start at ``buf[pos]``
    and sit ``depth`` containers deep; the list and the offset after it.

    One call per container, not per value: scalars are decoded in the
    loop, tags tested in the order of the measured mix (``_write_value``;
    a record's ``None`` tag field is read inline, never here).  A string or
    bytes slice that runs off the end comes back short and leaves the
    offset past the buffer; the next read raises ``IndexError`` or the
    caller's final length check fails.
    """
    if depth > MAX_DEPTH:
        raise CodecError(_TOO_DEEP)
    items: List[Any] = []
    append = items.append
    strs = _DEC_STRS
    try:
        for _ in range(n):
            tag = buf[pos]
            if tag == _T_STR:
                size = buf[pos + 1]
                if size <= TABLE_STR_MAX_BYTES:
                    start = pos + 2
                    pos = start + size
                    utf8 = buf[start:pos]
                    value = strs.get(utf8)
                    append(value if value is not None
                           else _decode_str(utf8))
                else:
                    size, start = _read_varint(buf, pos + 1)
                    pos = start + size
                    append(_decode_str(buf[start:pos]))
            elif tag == _T_REC:
                read = _RECORD_READERS[buf[pos + 1]]
                if read is None:
                    raise CodecError(f"unknown record class id "
                                     f"0x{buf[pos + 1]:02x} at offset {pos}")
                if depth >= MAX_DEPTH:
                    raise CodecError(_TOO_DEEP)
                value, pos = read(buf, pos + 2, depth + 1)
                append(value)
            elif _T_LIST <= tag <= _T_FROZENSET:
                count = buf[pos + 1]
                if count < 0x80:
                    pos += 2
                else:
                    count, pos = _read_varint(buf, pos + 1)
                if tag == _T_DICT:
                    count *= 2          # keys and values, alternating
                elems, pos = _read_values(buf, pos, count, depth + 1)
                try:
                    if tag == _T_DICT:
                        flat = iter(elems)
                        append(dict(zip(flat, flat)))
                    elif tag == _T_LIST:
                        append(elems)
                    elif tag == _T_TUPLE:
                        append(tuple(elems))
                    elif tag == _T_SET:
                        append(set(elems))
                    else:
                        append(frozenset(elems))
                except TypeError:
                    raise CodecError("unhashable dict key or set "
                                     "element") from None
            elif tag == _T_INT:
                z = buf[pos + 1]
                if z < 0x80:
                    pos += 2
                else:
                    z, pos = _read_varint(buf, pos + 1)
                append((z >> 1) ^ -(z & 1))
            elif tag <= _T_TRUE:
                pos += 1
                append(_SINGLETONS[tag])
            elif tag == _T_FLOAT:
                if pos + 9 > len(buf):
                    raise CodecError("truncated float")
                append(_DOUBLE.unpack_from(buf, pos + 1)[0])
                pos += 9
            elif tag == _T_BYTES:
                size, start = _read_varint(buf, pos + 1)
                pos = start + size
                append(buf[start:pos])
            elif tag == _T_MSG:
                if depth >= MAX_DEPTH:
                    raise CodecError(_TOO_DEEP)
                value, pos = _read_message(buf, pos + 1, depth + 1)
                append(value)
            else:
                raise CodecError(f"unknown tag 0x{tag:02x} at offset {pos}")
    except IndexError:
        raise CodecError("truncated value") from None
    return items, pos


def _decode(buf: bytes, n: int) -> List[Any]:
    """The ``n`` top-level values that ``buf`` consists of."""
    if type(buf) is not bytes:
        buf = bytes(buf)
    values, pos = _read_values(buf, 0, n, 0)
    if pos > len(buf):
        raise CodecError("truncated value")
    if pos < len(buf):
        raise CodecError(f"{len(buf) - pos} trailing bytes")
    return values


def decode_value(buf: bytes) -> Any:
    _ensure_registry()
    return _decode(buf, 1)[0]


# ---------------------------------------------------------------------------
# Records and messages: schema'd values
# ---------------------------------------------------------------------------

#: Field kinds of a record schema.  Besides the ones below, a kind is a
#: record class (nested: its fields and nothing else), ``(tuple, cls)``
#: (a varint count, then that many ``cls`` records) or ``(tuple, Dot)`` /
#: ``(frozenset, Dot)`` (dot runs, :func:`_write_dots`).  ``INT`` and
#: ``VALUE`` are also the kinds CRDT classes declare their payload fields
#: with (``repro.crdt.base``).
STR = "str"                 # tag, length, UTF-8: through the string tables
COUNTS = "counts"           # str -> int: varint count, pairs sorted by key
OPTIONAL_STR = "optional str"   # the None tag, or a string as above
#: ``INT``: a zigzag varint, no tag.  ``VALUE``: any value of the generic
#: codec, tags and all; ``(VALUE, types...)`` one of ``types``.
#: ``OP``: an operation's type name, method and payload — a one-byte op
#: id from :func:`op_schemas`, then the payload's fields by that schema.
OP = "op"


def record_schemas() -> Tuple[Tuple[int, Type, Tuple[Tuple[str, Any], ...]],
                              ...]:
    """The fixed table: ``(class id, class, ((attribute, kind), ...))``
    per record class, fields in constructor order.  An id is written as
    one byte after ``_T_REC`` and never reused."""
    from ..core.clock import VectorClock
    from ..core.journal import ObjectState
    from ..core.txn import (CommitStamp, ObjectKey, Snapshot, StreamEntry,
                            Transaction, WriteOp)
    from ..crdt.base import Operation
    return (
        (0x01, Dot, (("counter", INT), ("origin", STR))),
        (0x02, ObjectKey, (("bucket", STR), ("key", STR))),
        (0x03, Operation, (("payload", OP),
                           ("tag", (VALUE, tuple, type(None))))),
        (0x04, WriteOp, (("key", ObjectKey), ("op", Operation))),
        (0x05, VectorClock, (("_entries", COUNTS),)),
        (0x06, Snapshot, (("vector", VectorClock),
                          ("local_deps", (frozenset, Dot)))),
        (0x07, CommitStamp, (("entries", COUNTS),)),
        (0x08, Transaction, (("dot", Dot), ("origin", STR),
                             ("snapshot", Snapshot),
                             ("commit", CommitStamp),
                             ("writes", (tuple, WriteOp)),
                             ("issuer", OPTIONAL_STR))),
        (0x09, StreamEntry, (("dot", Dot), ("origin", STR),
                             ("issuer", OPTIONAL_STR), ("sv", COUNTS),
                             ("deps", (tuple, Dot)), ("cx", COUNTS),
                             ("writes", (tuple, WriteOp)))),
        (0x0A, ObjectState, (("key", ObjectKey), ("type_name", STR),
                             ("base", (VALUE, dict)),
                             ("base_dots", (tuple, Dot)))),
    )


def shared_records() -> Tuple[Type, ...]:
    """The record classes whose decoder hands out one object per value,
    not one per mention (a ``Dot`` names its transaction in every later
    snapshot's deps).  Only frozen classes whose fields are all ``INT``
    or ``STR``: the fields the schema has read and checked are then the
    whole value, and the table's key.  Not ``VectorClock`` (measured:
    inside the noise), nor ``Operation``, whose payload is a dict."""
    from ..core.txn import ObjectKey
    return (Dot, ObjectKey)


#: Op id -> the CRDT type and the effect method it names.  An id is
#: written as one byte and never reused: a new method takes a new id.
_OP_IDS = (
    (0x01, "counter", "increment"),
    (0x02, "counter", "decrement"),
    (0x03, "pncounter", "increment"),
    (0x04, "pncounter", "decrement"),
    (0x05, "gset", "add"),
    (0x06, "gset", "add_all"),
    (0x07, "orset", "add"),
    (0x08, "orset", "add_all"),
    (0x09, "orset", "remove"),
    (0x0A, "orset", "clear"),
    (0x0B, "rwset", "add"),
    (0x0C, "rwset", "remove"),
    (0x0D, "lwwregister", "assign"),
    (0x0E, "mvregister", "assign"),
    (0x0F, "ewflag", "enable"),
    (0x10, "ewflag", "disable"),
    (0x11, "dwflag", "enable"),
    (0x12, "dwflag", "disable"),
    (0x13, "gmap", "update"),
    (0x14, "ormap", "update"),
    (0x15, "ormap", "remove"),
    (0x16, "rga", "insert"),
    (0x17, "rga", "append"),
    (0x18, "rga", "delete"),
)


def op_schemas() -> Tuple[Tuple[int, str, str, Tuple[Tuple[str, Any], ...]],
                          ...]:
    """The fixed table: ``(op id, type name, method, ((field, kind),
    ...))`` per effect method of every registered CRDT, the fields as
    the class declares them (``OpBasedCRDT.PAYLOADS``)."""
    return tuple((oid, type_name, method,
                  crdt_type(type_name).PAYLOADS[method])
                 for oid, type_name, method in _OP_IDS)


#: The message classes by module: the id of the first, then the classes
#: in id order.  An id is written as one byte after ``_T_MSG`` (or first
#: in a frame's message) and never reused: a new message takes the next
#: id of its module, and a retired one keeps its place as ``None``.  Ids
#: start at 0x10, above every value tag, so a message in the string-keyed
#: form of earlier releases is refused at its first byte.
_MESSAGE_TABLE_BY_MODULE = (
    ("repro.dc.messages", 0x10, (
        "SessionOpen", "SessionAck", "InterestChange", "ObjectRequest",
        "ObjectResponse", "EdgeCommit", "EdgeCommitBatch", "CommitAck",
        "CommitReject", "UpdatePush", "RemoteTxnRequest", "RemoteTxnReply",
        "DCSyncPing", "ReplicateBatch", "InterestAdvert", "ShardBackfill",
        "ReplicateBatchAck", "ShardPrepare", "ShardVote", "ShardCommit",
        "ShardAbort", "ShardApply", "ShardApplyBatch", "ShardCompactMsg",
        "ShardRead", "ShardReadReply")),
    ("repro.epaxos.messages", 0x30, (
        "PreAccept", "PreAcceptReply", "Accept", "AcceptReply", "Commit",
        "Prepare", "PrepareReply", "TigaPropose", "TigaAck", "TigaCommit",
        "TigaWithdraw", "TigaStatus")),
    ("repro.groups.messages", 0x40, (
        "GroupMsg", "JoinGroup", "LeaveGroup", "MembershipUpdate",
        "GroupSeed", "InterestAnnounce", "GroupFetch", "GroupFetchReply",
        "GroupRelayPush", "GroupCommitAck", "TxnPull", "TxnPushMsg")),
    ("repro.serve.control", 0x50, (
        "CtrlStart", "CtrlDigestRequest", "CtrlDigestReply", "CtrlShutdown",
        "CtrlBye")),
)
_MESSAGE_IDS = tuple((first + i, module, name)
                     for module, first, names in _MESSAGE_TABLE_BY_MODULE
                     for i, name in enumerate(names) if name is not None)


def message_ids() -> Tuple[Tuple[int, str, str], ...]:
    """The fixed table: ``(class id, module, class name)`` per message
    class.  A message's fields are its dataclass fields, in declaration
    order, each of the kind :func:`message_schemas` derives from its
    annotation."""
    return _MESSAGE_IDS


def _size_caches() -> Dict[Type, Tuple[str, Tuple[str, ...]]]:
    """Record class -> the attribute its fields' size is kept in, and
    the fields left out of it: a frozen value's fields never change, and
    but for its stamp neither do a transaction's (``handoff()`` carries
    the size along with the body).  The benchmark lines that justify the
    cache: ``des_geo_write`` and ``des_sessions`` ``cpu_ms_per_txn``."""
    from ..core.journal import ObjectState
    from ..core.txn import StreamEntry, Transaction, WriteOp
    return {WriteOp: ("_record_bytes", ()),
            StreamEntry: ("_record_bytes", ()),
            ObjectState: ("_record_bytes", ()),
            Transaction: ("_body_bytes", ("commit",))}


#: Record class -> class id; -> its schema; -> fields writer (no tag, no
#: id); -> fields size; -> where the size is kept (:func:`_size_caches`).
_RECORD_IDS: Dict[Type, int] = {}
_RECORD_SCHEMAS: Dict[Type, Tuple[Tuple[str, Any], ...]] = {}
#: The classes of :func:`shared_records`.
_SHARED: List[Type] = []
_RECORD_WRITERS: Dict[Type, Callable[[bytearray, Any, int], None]] = {}
_RECORD_SIZERS: Dict[Type, Callable[[Any], int]] = {}
_SIZE_CACHES: Dict[Type, Tuple[str, Tuple[str, ...]]] = {}
#: Class id -> fields reader, ``None`` where no class has the id.
_RECORD_READERS: List[Optional[Callable[[bytes, int, int],
                                        Tuple[Any, int]]]] = [None] * 256
#: ``(type name, method)`` -> payload writer (op id included), -> its
#: size; op id -> reader of ``(type name, method, payload)``, ``None``
#: where unused.
_OP_WRITERS: Dict[Tuple[str, str], Callable[[bytearray, Any, int], None]] = {}
_OP_SIZERS: Dict[Tuple[str, str], Callable[[Any], int]] = {}
_OP_READERS: List[Optional[Callable[[bytes, int, int],
                                    Tuple[Any, int]]]] = [None] * 256
#: Message class -> writer of its id and fields; -> their size; -> its
#: kinds.  Class id -> reader of the fields, ``None`` where unused.
_MESSAGE_WRITERS: Dict[Type, Callable[[bytearray, Any, int], None]] = {}
_MESSAGE_SIZERS: Dict[Type, Callable[[Any], int]] = {}
_MESSAGE_SCHEMAS: Dict[Type, Tuple[Tuple[str, Any], ...]] = {}
_MESSAGE_READERS: List[Optional[Callable[[bytes, int, int],
                                         Tuple[Any, int]]]] = [None] * 256


def _write_int(out: bytearray, value: int) -> None:
    if type(value) is not int:
        raise CodecError(f"an int is due, not {value!r}")
    if 0 <= value < 0x40:
        out.append(value << 1)
    else:
        _write_varint(out, value << 1 if value >= 0
                      else ((-value) << 1) - 1)


def _write_counts(out: bytearray, counts: Any) -> None:
    if type(counts) is not dict:
        raise CodecError(f"counts must be a dict, not {counts!r}")
    _write_varint(out, len(counts))
    strs = _ENC_STRS
    for key, value in sorted(counts.items()):
        raw = strs.get(key)
        out += raw if raw is not None else _encode_str(key)
        _write_int(out, value)


def _write_dots(out: bytearray, dots: Any, ordered: bool) -> None:
    """``Dot``s as runs, one per origin: a varint count of runs, then
    per run, in ascending origin order, the origin (a str), a varint
    count and the counters in ascending order — the first an int, each
    later one a varint delta from the one before it, never 0.  A tuple
    (``ordered``) must be in ``Dot`` order, the order it decodes to."""
    runs: Dict[str, List[int]] = {}
    last = None
    for dot in dots:
        counter = dot.counter
        origin = dot.origin
        if ordered:
            if last is not None and (counter, origin) <= last:
                raise CodecError(f"dots out of Dot order at {dot!r}")
            last = (counter, origin)
        run = runs.get(origin)
        if run is None:
            runs[origin] = [counter]
        else:
            run.append(counter)
    _write_varint(out, len(runs))
    strs = _ENC_STRS
    for origin in sorted(runs):
        counters = runs[origin]
        if not ordered:
            counters.sort()
        raw = strs.get(origin)
        out += raw if raw is not None else _encode_str(origin)
        _write_varint(out, len(counters))
        prev = counters[0]
        _write_int(out, prev)
        for i in range(1, len(counters)):
            counter = counters[i]
            _write_varint(out, counter - prev)
            prev = counter


def _read_str(buf: bytes, pos: int) -> Tuple[str, int]:
    """A string a schema says is due at ``buf[pos]``, tag included."""
    if buf[pos] != _T_STR:
        raise CodecError(f"a string is due at offset {pos}, "
                         f"not tag 0x{buf[pos]:02x}")
    size = buf[pos + 1]
    if size <= TABLE_STR_MAX_BYTES:
        start = pos + 2
        pos = start + size
        utf8 = buf[start:pos]
        value = _DEC_STRS.get(utf8)
        return (value if value is not None else _decode_str(utf8)), pos
    size, start = _read_varint(buf, pos + 1)
    pos = start + size
    return _decode_str(buf[start:pos]), pos


def _read_int(buf: bytes, pos: int) -> Tuple[int, int]:
    z = buf[pos]
    if z < 0x80:
        pos += 1
    else:
        z, pos = _read_varint(buf, pos)
    return (z >> 1) ^ -(z & 1), pos


def _read_counts(buf: bytes, pos: int) -> Tuple[Dict[str, int], int]:
    n, pos = _read_varint(buf, pos)
    counts = {}
    for _ in range(n):
        key, pos = _read_str(buf, pos)
        counts[key], pos = _read_int(buf, pos)
    return counts, pos


def _read_dots(buf: bytes, pos: int) -> Tuple[List[Tuple[int, str]], int]:
    """The ``(counter, origin)`` pairs of the dot runs at ``buf[pos]``,
    run by run, and the offset after them.  Only the encoder's form is
    read: origins out of ascending order, an empty run or a zero delta
    is a ``CodecError``, so equal dot sets have equal bytes."""
    n, pos = _read_varint(buf, pos)
    pairs: List[Tuple[int, str]] = []
    append = pairs.append
    origin = None
    for _ in range(n):
        last = origin
        origin, pos = _read_str(buf, pos)
        if last is not None and origin <= last:
            raise CodecError(f"dot run of {origin!r} after {last!r}")
        count, pos = _read_varint(buf, pos)
        if not count:
            raise CodecError(f"empty dot run of {origin!r}")
        counter, pos = _read_int(buf, pos)
        append((counter, origin))
        for _ in range(count - 1):
            delta = buf[pos]
            if delta < 0x80:
                pos += 1
            else:
                delta, pos = _read_varint(buf, pos)
            if not delta:
                raise CodecError(f"zero delta in the dot run of {origin!r}")
            counter += delta
            append((counter, origin))
    return pairs, pos


def _read_records(buf: bytes, pos: int, depth: int,
                  read: Callable[[bytes, int, int], Tuple[Any, int]]
                  ) -> Tuple[List[Any], int]:
    n, pos = _read_varint(buf, pos)
    items = []
    for _ in range(n):
        item, pos = read(buf, pos, depth)
        items.append(item)
    return items, pos


def _share(cls: Type, fields: Tuple[Any, ...]) -> Any:
    """A new ``cls`` from decoded, checked ``fields`` that the table
    does not hold, entered in the table."""
    value = cls(*fields)
    if len(_DEC_VALUES) >= DECODE_VALUES_MAX:
        _DEC_VALUES.clear()
    _DEC_VALUES[fields] = value
    return value


def _share_all(cls: Type, pairs: List[Tuple[Any, ...]]) -> List[Any]:
    """The shared ``cls`` value of each of ``pairs``."""
    get = _DEC_VALUES.get
    values = []
    for fields in pairs:
        value = get(fields)
        values.append(value if value is not None else _share(cls, fields))
    return values


def _varint_size(n: int) -> int:
    return 1 if n < 0x80 else (n.bit_length() + 6) // 7


def _int_size(value: int) -> int:
    """Bytes of an ``INT`` field: the zigzag varint, no tag."""
    return _varint_size(value << 1 if value >= 0 else ((-value) << 1) - 1)


def _str_size(value: str) -> int:
    """Bytes of a string as a value — its tag, its length and its UTF-8
    — counted, not encoded, and entered in the sizer's table."""
    n = len(value) if value.isascii() else len(value.encode("utf-8"))
    size = 1 + _varint_size(n) + n
    if len(_STR_SIZES) >= SIZE_TABLE_MAX:
        _STR_SIZES.clear()
    _STR_SIZES[value] = size
    return size


def _dots_size(dots: Any) -> int:
    """Bytes :func:`_write_dots` writes for ``dots``.  A run whose
    counters span less than 0x80 has one-byte deltas, so only a run
    wider than that is sorted."""
    runs: Dict[str, List[int]] = {}
    for dot in dots:
        run = runs.get(dot.origin)
        if run is None:
            runs[dot.origin] = [dot.counter]
        else:
            run.append(dot.counter)
    size = _varint_size(len(runs))
    for origin, counters in runs.items():
        count = len(counters)
        first = min(counters)
        size += _STR_SIZES.get(origin) or _str_size(origin)
        size += _varint_size(count) + _int_size(first)
        if count == 1:
            continue
        if max(counters) - first < 0x80:
            size += count - 1
        else:
            counters.sort()
            size += sum(_varint_size(counter - prev) for prev, counter
                        in zip(counters, counters[1:]))
    return size


def _value_size(value: Any) -> int:
    """Bytes :func:`_write_value` writes for ``value``, computed without
    writing them: nothing is encoded, no set or dict is sorted."""
    t = type(value)
    if t is str:
        return _STR_SIZES.get(value) or _str_size(value)
    size = _RECORD_SIZERS.get(t)
    if size is not None:
        return 2 + size(value)
    if t is tuple or t is list or t is frozenset or t is set:
        n = len(value)
        if not n:
            return 2
        if t is frozenset and n >= SIZED_SET_MIN:
            return _frozenset_size(value, n)
        return (2 if n < 0x80 else 1 + _varint_size(n)) + _sum_sizes(value)
    if t is dict:
        return _dict_size(value)
    if t is int:
        return 2 if 0 <= value < 0x40 else 1 + _int_size(value)
    if value is None or t is bool:
        return 1
    if t is float:
        return 1 + _DOUBLE.size
    if t is bytes:
        return 1 + _varint_size(len(value)) + len(value)
    size = _MESSAGE_SIZERS.get(t)
    if size is not None:
        last = _LAST_NESTED
        if value is not last[0]:
            last[0] = value
            last[1] = 1 + size(value)
        return last[1]
    raise CodecError(f"unencodable value of type {t.__module__}."
                     f"{t.__name__}: {value!r}")


#: The last message sized inside another and its size.  An envelope's
#: payload goes to every member in turn — one EPaxos or Tiga message,
#: one ``GroupMsg`` per member — and a message is a value, so it is
#: sized once.  The benchmark line that justifies it:
#: ``des_group_mix`` ``cpu_ms_per_txn``.
_LAST_NESTED: List[Any] = [None, 0]


#: Frozensets of at least ``SIZED_SET_MIN`` items keep their size in
#: ``_SIZED_SETS``, ``id -> (set, size)``, emptied past ``SIZED_SETS_MAX``
#: entries.  A frozenset and its items are immutable, so its size holds,
#: and the entry keeps the set alive, so its id names it.  EPaxos deps
#: name every interfering instance ever and travel unchanged from a
#: PreAccept to its replies and its Commit.  The benchmark line that
#: justifies it: ``des_group_mix`` ``cpu_ms_per_txn``.
SIZED_SET_MIN = 16
SIZED_SETS_MAX = 256
_SIZED_SETS: Dict[int, Tuple[frozenset, int]] = {}


def _frozenset_size(value: frozenset, n: int) -> int:
    entry = _SIZED_SETS.get(id(value))
    if entry is not None and entry[0] is value:
        return entry[1]
    size = (2 if n < 0x80 else 1 + _varint_size(n)) + _sum_sizes(value)
    if len(_SIZED_SETS) >= SIZED_SETS_MAX:
        _SIZED_SETS.clear()
    _SIZED_SETS[id(value)] = (value, size)
    return size


def _dict_size(mapping: Dict[Any, Any]) -> int:
    """:func:`_value_size` of a dict; a string key and a string, small
    int, ``None`` or dict value are sized in the loop (a transaction's
    ``to_dict()`` form is a dozen small dicts)."""
    n = len(mapping)
    total = 2 if n < 0x80 else 1 + _varint_size(n)
    sizes = _STR_SIZES
    for key, value in mapping.items():
        if type(key) is str:
            total += sizes.get(key) or _str_size(key)
        else:
            total += _value_size(key)
        t = type(value)
        if t is str:
            total += sizes.get(value) or _str_size(value)
        elif t is dict:
            total += _dict_size(value) if value else 2
        elif t is int and 0 <= value < 0x2000:
            total += 2 if value < 0x40 else 3
        elif value is None:
            total += 1
        else:
            total += _value_size(value)
    return total


def _sum_sizes(values: Any) -> int:
    """:func:`_value_size` summed over ``values``.  Strings, ints below
    0x2000, ``None`` and the items of short tuples of them — keys, ids,
    counters, ``(replica, slot)`` pairs — are sized in the loop, not
    called for.  The benchmark line that justifies it: ``des_group_mix``
    ``cpu_ms_per_txn`` (dict commands and deps in every consensus
    message)."""
    total = 0
    sizes = _STR_SIZES
    for value in values:
        t = type(value)
        if t is str:
            total += sizes.get(value) or _str_size(value)
        elif t is int and 0 <= value < 0x2000:
            total += 2 if value < 0x40 else 3
        elif t is tuple and len(value) < 0x80:
            total += 2
            for item in value:
                t = type(item)
                if t is str:
                    total += sizes.get(item) or _str_size(item)
                elif t is int and 0 <= item < 0x2000:
                    total += 2 if item < 0x40 else 3
                else:
                    total += _value_size(item)
        elif t is dict:
            total += _dict_size(value)
        elif value is None:
            total += 1
        else:
            total += _value_size(value)
    return total


def _write_code(get: str, name: str, kind: Any) -> List[str]:
    """Statements writing the field ``name``, at ``get``, of a kind."""
    head = [f"x = {get}"]
    if kind == STR:
        return head + ["raw = strs_get(x)",
                       "out += raw if raw is not None else encode_str(x)"]
    if kind == OPTIONAL_STR:
        return head + ["if x is None:", "    out.append(0x00)", "else:",
                       "    raw = strs_get(x)",
                       "    out += raw if raw is not None else encode_str(x)"]
    if kind == INT:
        return head + ["if type(x) is int and 0 <= x < 0x40:",
                       "    out.append(x << 1)",
                       "else:", "    write_int(out, x)"]
    if kind == COUNTS:
        return head + ["write_counts(out, x)"]
    if kind == VALUE:
        return head + ["write_value(out, x, depth)"]
    if kind == OP:
        return head + ["write_op = op_writers_get((v.type_name, v.method))",
                       "if write_op is None:",
                       "    raise CodecError('no op id for %s.%s' "
                       "% (v.type_name, v.method))",
                       "write_op(out, x, depth)"]
    if isinstance(kind, type):
        return head + [f"write_{_RECORD_IDS[kind]}(out, x, depth)"]
    if kind[0] == VALUE:
        write = [f"if type(x) not in {_types_code(kind[1:])}:",
                 f"    raise CodecError('{name} cannot be %r' % (x,))",
                 "write_value(out, x, depth)"]
        if type(None) not in kind:
            return head + write
        # As it is read: the None tag inline, not through write_value.
        return head + ["if x is None:", "    out.append(0x00)",
                       "else:"] + ["    " + line for line in write]
    container, cls = kind
    check = [f"if type(x) is not {container.__name__}:",
             f"    raise CodecError('{name} cannot be %r' % (x,))"]
    if cls is Dot:
        return head + check + [
            f"write_dots(out, x, {container is tuple})"]
    return head + check + ["write_varint(out, len(x))",
                           "for item in x:",
                           f"    write_{_RECORD_IDS[cls]}(out, item, depth)"]


def _read_code(target: str, name: str, kind: Any) -> List[str]:
    """Statements reading a field of the given kind into ``target``."""
    if kind == STR:
        return [f"{target}, pos = read_str(buf, pos)"]
    if kind == OPTIONAL_STR:
        return ["if buf[pos] == 0x00:", f"    {target} = None",
                "    pos += 1", "else:",
                f"    {target}, pos = read_str(buf, pos)"]
    if kind == INT:
        return ["z = buf[pos]", "if z < 0x80:", "    pos += 1", "else:",
                "    z, pos = read_varint(buf, pos)",
                f"{target} = (z >> 1) ^ -(z & 1)"]
    if kind == COUNTS:
        return [f"{target}, pos = read_counts(buf, pos)"]
    if kind == VALUE:
        return [f"({target},), pos = read_values(buf, pos, 1, depth)"]
    if kind == OP:
        return ["read_op = op_readers[buf[pos]]",
                "if read_op is None:",
                "    raise CodecError('unknown op id 0x%02x at offset %d' "
                "% (buf[pos], pos))",
                f"{target}, pos = read_op(buf, pos + 1, depth)"]
    if isinstance(kind, type):
        return [f"{target}, pos = read_{_RECORD_IDS[kind]}(buf, pos, depth)"]
    if kind[0] == VALUE:
        read = [f"({target},), pos = read_values(buf, pos, 1, depth)",
                f"if type({target}) not in {_types_code(kind[1:])}:",
                f"    raise CodecError('{name} cannot be %r' % ({target},))"]
        if type(None) not in kind:
            return read
        return ["if buf[pos] == 0x00:", f"    {target} = None",
                "    pos += 1", "else:"] + ["    " + line for line in read]
    container, cls = kind
    if cls is Dot:
        return [f"{target}, pos = read_dots(buf, pos)"] + (
            [f"{target}.sort()"] if container is tuple else []) + [
            f"{target} = {container.__name__}(share_all(dot, {target}))"]
    return [f"{target}, pos = read_records(buf, pos, depth, "
            f"read_{_RECORD_IDS[cls]})",
            f"{target} = {container.__name__}({target})"]


def _types_code(types: Tuple[type, ...]) -> str:
    return "(" + "".join(f"{_TYPE_NAMES[t]}, " for t in types) + ")"


_TYPE_NAMES = {dict: "dict", tuple: "tuple", list: "list",
               type(None): "NoneType"}


def _varint_expr(n: str) -> str:
    return f"(1 if {n} < 0x80 else varint_size({n}))"


def _int_expr(x: str) -> str:
    """The bytes of the ``INT`` at ``x``; inline below 0x100000."""
    return (f"(1 if 0 <= {x} < 0x40 else 2 if 0 <= {x} < 0x2000 "
            f"else 3 if 0 <= {x} < 0x100000 else int_size({x}))")


def _size_code(get: str, kind: Any, depth: int = 0,
               owner: str = "v") -> List[str]:
    """Statements adding the size of the field at ``get``, of a kind, to
    ``n`` — arithmetic on what ``_write_code`` would write.  A record
    whose size is not kept on it (:func:`_size_caches`) is sized inline,
    its fields at ``depth + 1``; ``owner`` holds the field."""
    x = f"x{depth}"
    head = [f"{x} = {get}"]
    if kind == STR:
        return head + [f"n += str_sizes_get({x}) or str_size({x})"]
    if kind == OPTIONAL_STR:
        return head + [f"n += 1 if {x} is None "
                       f"else (str_sizes_get({x}) or str_size({x}))"]
    if kind == INT:
        return head + [f"n += {_int_expr(x)}"]
    if kind == COUNTS:
        return head + [f"n += {_varint_expr(f'len({x})')}",
                       f"for k, c in {x}.items():",
                       "    n += str_sizes_get(k) or str_size(k)",
                       f"    n += {_int_expr('c')}"]
    if kind == OP:
        return head + [f"n += op_sizers[{owner}.type_name, "
                       f"{owner}.method]({x})"]
    if isinstance(kind, type):
        if kind in _SIZE_CACHES:
            return head + [f"n += size_{_RECORD_IDS[kind]}({x})"]
        return head + [line for field, sub in _RECORD_SCHEMAS[kind]
                       for line in _size_code(f"{x}.{field}", sub,
                                              depth + 1, x)]
    if kind == VALUE or kind[0] == VALUE:
        return head + [f"n += value_size({x})"]
    if kind[1] is Dot:
        return head + [f"n += dots_size({x}) if {x} else 1"]
    return head + [f"n += {_varint_expr(f'len({x})')}", f"for item in {x}:",
                   f"    n += size_{_RECORD_IDS[kind[1]]}(item)"]


def _compile_record(name: str, fields: Tuple[Tuple[str, Any], ...],
                    get: Callable[[str], str], head: List[str],
                    build: Callable[[List[str]], List[str]],
                    cache: Optional[Tuple[str, Tuple[str, ...]]] = None
                    ) -> str:
    """Source of ``write_<name>(out, v, depth)``, which appends ``head``
    and then the fields of ``v`` (each read as ``get(field)``),
    ``read_<name>(buf, pos, depth)``, which reads the fields and ends
    with ``build(targets)``, and ``size_<name>(v)``, the number of bytes
    ``write_<name>`` appends — straight-line code per schema, so that a
    field costs what its kind costs and nothing per field is looked up
    at run time.  A nested record is written at its parent's depth: only
    ``VALUE`` fields nest deeper.  With a ``cache`` — an attribute and
    the fields left out — the size of the other fields is kept on the
    value the first time it is asked for."""
    write = [f"def write_{name}(out, v, depth):"]
    write += ["    " + line for line in head]
    read = [f"def read_{name}(buf, pos, depth):"]
    kept: List[str] = []
    rest: List[str] = []
    targets = []
    for i, (field, kind) in enumerate(fields):
        targets.append(f"*f{i}" if kind == OP else f"f{i}")
        write += ["    " + line for line in _write_code(get(field), field,
                                                        kind)]
        read += ["    " + line for line in _read_code(f"f{i}", field, kind)]
        left_out = cache is not None and field in cache[1]
        (rest if left_out else kept).extend(_size_code(get(field), kind))
    read += ["    " + line for line in build(targets)]
    size = [f"def size_{name}(v):"]
    if cache is None:
        size += [f"    n = {1 if head else 0}"]   # the head's id byte
        size += ["    " + line for line in kept]
    else:
        size += [f"    n = v.{cache[0]}", "    if n is None:",
                 "        n = 0"]
        size += ["        " + line for line in kept]
        size += [f"        set_attr(v, {cache[0]!r}, n)"]
        size += ["    " + line for line in rest]
    size += ["    return n"]
    return "\n".join(write + read + size) + "\n"


def _compile_class(cid: int, cls: Type,
                   fields: Tuple[Tuple[str, Any], ...],
                   cache: Optional[Tuple[str, Tuple[str, ...]]]) -> str:
    """A record class's coders: its attributes in, its constructor out
    — or, for a shared class, the table's value of the fields read."""
    refusal = [f"    raise CodecError('{cls.__name__}: %s' % exc) "
               "from None"]

    def build(targets: List[str]) -> List[str]:
        if cls not in _SHARED:
            return ["try:",
                    f"    return cls_{cid}({', '.join(targets)}), pos",
                    "except (TypeError, ValueError) as exc:"] + refusal
        return [f"key = ({', '.join(targets)},)",
                "v = values_get(key)",
                "if v is None:",
                "    try:",
                f"        v = share(cls_{cid}, key)",
                "    except (TypeError, ValueError) as exc:"] + [
                    "    " + line for line in refusal] + [
                "return v, pos"]
    return _compile_record(str(cid), fields, lambda field: f"v.{field}", [],
                           build, cache)


def _compile_op(oid: int, type_name: str, method: str,
                fields: Tuple[Tuple[str, Any], ...]) -> str:
    """An op's coders: the op id and its payload dict's fields in, the
    type name, method and payload out."""
    names = tuple(field for field, _kind in fields)
    refusal = f"{type_name}.{method} takes a payload of {names}, not %r"
    head = [f"if type(v) is not dict or len(v) != {len(names)}:",
            f"    raise CodecError({refusal!r} % (v,))",
            f"out.append({oid})"]

    def build(targets: List[str]) -> List[str]:
        payload = ", ".join(f"{field!r}: {target}"
                            for field, target in zip(names, targets))
        return [f"return ({type_name!r}, {method!r}, {{{payload}}}), pos"]
    return _compile_record(f"op_{oid}", fields,
                           lambda field: f"v[{field!r}]", head, build)


def _compile_message(mid: int, cls: Type,
                     fields: Tuple[Tuple[str, Any], ...]) -> str:
    """A message class's coders: its class id and its fields in, its
    constructor out."""
    def build(targets: List[str]) -> List[str]:
        return ["try:",
                f"    return cls_m{mid}({', '.join(targets)}), pos",
                "except (TypeError, ValueError) as exc:",
                f"    raise CodecError('{cls.__name__}: %s' % exc) "
                "from None"]
    return _compile_record(f"m{mid}", fields, lambda field: f"v.{field}",
                           [f"out.append({mid})"], build)


#: The generated coders and what they call.
_GENERATED: Dict[str, Any] = {}


def _register_records() -> None:
    _GENERATED.update({
        "CodecError": CodecError, "NoneType": type(None), "dot": Dot,
        "strs_get": _ENC_STRS.get, "encode_str": _encode_str,
        "write_int": _write_int, "write_counts": _write_counts,
        "write_dots": _write_dots, "write_varint": _write_varint,
        "write_value": _write_value, "op_writers_get": _OP_WRITERS.get,
        "read_str": _read_str, "read_varint": _read_varint,
        "read_counts": _read_counts, "read_dots": _read_dots,
        "read_records": _read_records, "read_values": _read_values,
        "op_readers": _OP_READERS, "values_get": _DEC_VALUES.get,
        "share": _share, "share_all": _share_all,
        "int_size": _int_size, "varint_size": _varint_size,
        "dots_size": _dots_size,
        "value_size": _value_size, "op_sizers": _OP_SIZERS,
        "str_size": _str_size, "str_sizes_get": _STR_SIZES.get,
        "set_attr": object.__setattr__,
    })
    namespace = _GENERATED
    for oid, type_name, method, fields in op_schemas():
        exec(_compile_op(oid, type_name, method, fields), namespace)
        _OP_WRITERS[type_name, method] = namespace[f"write_op_{oid}"]
        _OP_SIZERS[type_name, method] = namespace[f"size_op_{oid}"]
        _OP_READERS[oid] = namespace[f"read_op_{oid}"]
    schemas = record_schemas()
    shared = shared_records()
    _SIZE_CACHES.update(_size_caches())
    for cid, cls, fields in schemas:
        _RECORD_IDS[cls] = cid
        _RECORD_SCHEMAS[cls] = fields
        namespace[f"cls_{cid}"] = cls
        if cls in shared:
            _SHARED.append(cls)
    for cid, cls, fields in schemas:
        exec(_compile_class(cid, cls, fields, _SIZE_CACHES.get(cls)),
             namespace)
        _RECORD_WRITERS[cls] = namespace[f"write_{cid}"]
        _RECORD_SIZERS[cls] = namespace[f"size_{cid}"]
        _RECORD_READERS[cid] = namespace[f"read_{cid}"]


# ---------------------------------------------------------------------------
# Message registry
# ---------------------------------------------------------------------------

#: Annotations of mutable containers: a message is a value shared by
#: reference in the simulator, so no field may hold one.
_MUTABLE = (list, set, bytearray, collections.deque, collections.defaultdict)


def _has_mutable(hint: Any) -> bool:
    return (hint in _MUTABLE or typing.get_origin(hint) in _MUTABLE
            or any(_has_mutable(arg) for arg in typing.get_args(hint)))


def _message_kind(hint: Any) -> Any:
    """A message field's kind, from its annotation: ``STR``, ``INT``,
    ``OPTIONAL_STR``, ``COUNTS`` (``Dict[str, int]``), a record class,
    ``(tuple, cls)`` of a record class but ``Dot``, dot runs
    (``FrozenSet[Dot]``), and ``VALUE`` for anything else.  A tuple of
    dots is a ``VALUE``: a message keeps the order it was given."""
    origin = typing.get_origin(hint)
    args = typing.get_args(hint)
    if hint is str:
        return STR
    if hint is int:
        return INT
    if hint in _RECORD_IDS:
        return hint
    if origin in (typing.Union, types.UnionType) \
            and args == (str, type(None)):
        return OPTIONAL_STR
    if origin is dict and args == (str, int):
        return COUNTS
    if origin is tuple and len(args) == 2 and args[1] is Ellipsis \
            and args[0] in _RECORD_IDS and args[0] is not Dot:
        return (tuple, args[0])
    if origin is frozenset and args == (Dot,):
        return (frozenset, Dot)
    return VALUE


def message_schemas() -> Dict[Type, Tuple[Tuple[str, Any], ...]]:
    """Message class -> ``((field, kind), ...)``, in declaration order,
    for every registered message."""
    _ensure_registry()
    return dict(_MESSAGE_SCHEMAS)


def register(cls: Type) -> Type:
    """Register one message class with the codec: generate its coders
    and its sizer from its schema.

    Refused with ``CodecError``: a class that is not a frozen dataclass,
    that has no id in the fixed table (:func:`message_ids`), or a field
    whose annotation cannot be resolved or names a mutable container.
    """
    _ensure_registry()
    name = f"{cls.__module__}.{cls.__qualname__}"
    if not dataclasses.is_dataclass(cls) \
            or not cls.__dataclass_params__.frozen:
        raise CodecError(f"{name} is not a frozen dataclass: a message is "
                         "a value, shared by reference in the simulator")
    try:
        hints = typing.get_type_hints(cls)
    except Exception as exc:
        raise CodecError(f"{name}: unresolvable annotation: {exc!r}") \
            from None
    fields = []
    for f in dataclasses.fields(cls):
        if _has_mutable(hints[f.name]):
            raise CodecError(f"{name}.{f.name} is annotated with a mutable "
                             f"container: {hints[f.name]}")
        fields.append((f.name, _message_kind(hints[f.name])))
    mid = _MESSAGE_TABLE.get((cls.__module__, cls.__qualname__))
    if mid is None:
        raise CodecError(f"{name} has no class id in the fixed table")
    _GENERATED[f"cls_m{mid}"] = cls
    exec(_compile_message(mid, cls, tuple(fields)), _GENERATED)
    _MESSAGE_WRITERS[cls] = _GENERATED[f"write_m{mid}"]
    _MESSAGE_SIZERS[cls] = _GENERATED[f"size_m{mid}"]
    _MESSAGE_READERS[mid] = _GENERATED[f"read_m{mid}"]
    _MESSAGE_SCHEMAS[cls] = tuple(fields)
    return cls


def register_module(module_name: str) -> int:
    """Register every dataclass defined in ``module_name``: in a message
    module, each one is a message."""
    mod = importlib.import_module(module_name)
    classes = [obj for obj in vars(mod).values()
               if isinstance(obj, type) and dataclasses.is_dataclass(obj)
               and obj.__module__ == module_name]
    for cls in classes:
        register(cls)
    return len(classes)


#: ``(module, class name)`` -> class id.
_MESSAGE_TABLE = {(module, name): mid for mid, module, name in _MESSAGE_IDS}

_BOOTSTRAP_MODULES = (
    "repro.dc.messages",
    "repro.epaxos.messages",
    "repro.groups.messages",
)

_bootstrapped = False


def _ensure_registry() -> None:
    global _bootstrapped
    if not _bootstrapped:
        _bootstrapped = True
        _register_records()
        for module_name in _BOOTSTRAP_MODULES:
            register_module(module_name)


def message_classes() -> Dict[int, Type]:
    """Class id -> class for every registered message."""
    _ensure_registry()
    return {_MESSAGE_TABLE[cls.__module__, cls.__qualname__]: cls
            for cls in _MESSAGE_WRITERS}


def record_classes() -> Dict[int, Type]:
    """Class id → class for every record."""
    _ensure_registry()
    return {cid: cls for cls, cid in _RECORD_IDS.items()}


# ---------------------------------------------------------------------------
# Message + frame codec
# ---------------------------------------------------------------------------

#: Charged by :func:`wire_size` for a payload that is not a registered
#: message: a bare test value, which the simulator carries by reference
#: and no socket ever sees.
DEFAULT_MESSAGE_BYTES = 16


def _write_message(out: bytearray, message: Any, depth: int) -> None:
    """Class id and fields of a registered message, fields ``depth``
    deep."""
    cls = type(message)
    write = _MESSAGE_WRITERS.get(cls)
    if write is None:
        raise CodecError(f"unencodable value of type {cls.__module__}."
                         f"{cls.__name__} (not a registered message "
                         f"class): {message!r}")
    try:
        write(out, message, depth)
    except CodecError:
        raise
    except (TypeError, AttributeError, ValueError, KeyError) as exc:
        raise CodecError(f"{cls.__name__} does not fit its schema: "
                         f"{exc}") from None


def _read_message(buf: bytes, pos: int, depth: int) -> Tuple[Any, int]:
    read = _MESSAGE_READERS[buf[pos]]
    if read is None:
        raise CodecError(f"unknown message class id 0x{buf[pos]:02x} at "
                         f"offset {pos}")
    return read(buf, pos + 1, depth)


def _decode_message_at(buf: bytes, pos: int) -> Any:
    """The message that ``buf[pos:]`` consists of."""
    try:
        message, pos = _read_message(buf, pos, 1)
    except IndexError:
        raise CodecError("truncated message") from None
    if pos > len(buf):
        raise CodecError("truncated message")
    if pos < len(buf):
        raise CodecError(f"{len(buf) - pos} trailing bytes")
    return message


def wire_size(message: Any) -> int:
    """``len(encode_message(message))``, computed by the message's
    generated sizer without encoding it: the bytes every send charges.
    A payload that is not a registered message is charged
    ``DEFAULT_MESSAGE_BYTES``."""
    last = _LAST_SENT
    if message is last[0]:
        return last[1]
    size = _MESSAGE_SIZERS.get(type(message))
    if size is None:
        _ensure_registry()
        size = _MESSAGE_SIZERS.get(type(message))
        if size is None:
            return DEFAULT_MESSAGE_BYTES
    last[0] = message
    last[1] = size(message)
    return last[1]


#: The last message :func:`wire_size` sized and its size: one message to
#: several receivers (a heartbeat), or sized before it is sent (a
#: replication frame), is sized once.  The benchmark lines that justify
#: it: ``des_geo_write`` and ``des_sessions`` ``cpu_ms_per_txn``.
_LAST_SENT: List[Any] = [None, 0]


def value_size(value: Any) -> int:
    """``len(encode_value(value))``, computed without encoding it."""
    _ensure_registry()
    return _value_size(value)


def encode_message(message: Any) -> bytes:
    """A message's class id and its fields by schema."""
    _ensure_registry()
    out = bytearray()
    _write_message(out, message, 1)
    return bytes(out)


def decode_message(buf: bytes) -> Any:
    _ensure_registry()
    return _decode_message_at(bytes(buf), 0)


def encode_sized_frame(src: str, dst: str,
                       message: Any) -> Tuple[bytes, int]:
    """One socket frame — a 4-byte big-endian length, then the addressed
    body — and the length of its message, what :func:`wire_size` says."""
    _ensure_registry()
    out = bytearray(4)
    _write_value(out, src, 0)
    _write_value(out, dst, 0)
    start = len(out)
    _write_message(out, message, 1)
    size = len(out) - 4
    if size > MAX_FRAME_BYTES:
        raise CodecError(f"frame of {size} bytes exceeds "
                         f"MAX_FRAME_BYTES={MAX_FRAME_BYTES}")
    out[:4] = size.to_bytes(4, "big")
    return bytes(out), len(out) - start


def encode_frame(src: str, dst: str, message: Any) -> bytes:
    """One socket frame: 4-byte big-endian length + addressed body."""
    return encode_sized_frame(src, dst, message)[0]


def decode_frame(body: bytes) -> Tuple[str, str, Any]:
    """Decode a frame *body* (length prefix already stripped)."""
    _ensure_registry()
    if type(body) is not bytes:
        body = bytes(body)
    (src, dst), pos = _read_values(body, 0, 2, 0)
    if type(src) is not str or type(dst) is not str:
        raise CodecError("frame src/dst must be strings")
    return src, dst, _decode_message_at(body, pos)
