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
* a **message codec** that maps each registered dataclass to a short
  type key (``"dc.SessionOpen"``) and encodes its field values in
  declaration order.  Registration happens per module; the three
  protocol message modules register at import, and ``repro.serve``
  registers its control messages the same way.
* **records**: the core values messages carry (``Transaction`` and its
  parts, ``StreamEntry``, ``ObjectState``) are written by schema — the
  ``_T_REC`` tag, a one-byte class id from the fixed table
  :func:`record_schemas`, then the fields in schema order with no names
  and, but for strings, no tags.  An ``Operation`` is a one-byte op id
  from the fixed table :func:`op_schemas`, then its payload's fields in
  the order its CRDT class declares them; a collection of dots is one
  run per origin, the origin once and the counters as deltas.
  Each class's and each op's encoder and decoder are generated once,
  from the schema, when the registry fills.  A field's schema fixes its
  type, so the decoder validates by construction: a record built from
  hostile bytes is either well typed or ``CodecError``.  A record never
  stands alone in a frame.

A frame on the socket is a 4-byte big-endian length followed by the
value encoding of ``(src, dst, type_key, fields)``.

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

``wire_size_drift`` compares a message's declared ``wire_size()`` (the
analytical estimate the simulator charges for bandwidth accounting)
against the real encoded length — colony-lint rule M205 fails messages
whose declarations have drifted beyond tolerance.
"""

from __future__ import annotations

import dataclasses
import importlib
import struct
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
_T_MSG = 0x0C        # nested registered message: type key + field tuple
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
                (key, fields), pos = _read_values(buf, pos + 1, 2,
                                                  depth + 1)
                append(_build_message(key, fields))
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
# Message registry
# ---------------------------------------------------------------------------

#: Short module aliases so type keys stay compact on the wire.
_MODULE_ALIASES = {
    "repro.dc.messages": "dc",
    "repro.epaxos.messages": "epx",
    "repro.groups.messages": "grp",
    "repro.serve.control": "ctl",
}

_BY_KEY: Dict[str, Type] = {}
_BY_CLASS: Dict[Type, str] = {}
_FIELDS: Dict[Type, Tuple[str, ...]] = {}


def _type_key(cls: Type) -> str:
    alias = _MODULE_ALIASES.get(cls.__module__, cls.__module__)
    return f"{alias}.{cls.__name__}"


def register(cls: Type) -> Type:
    """Register one message dataclass with the codec."""
    if not dataclasses.is_dataclass(cls):
        raise CodecError(f"{cls.__name__} is not a dataclass")
    key = _type_key(cls)
    existing = _BY_KEY.get(key)
    if existing is not None and existing is not cls:
        raise CodecError(f"type key collision for {key}")
    _BY_KEY[key] = cls
    _BY_CLASS[cls] = key
    _FIELDS[cls] = tuple(f.name for f in dataclasses.fields(cls))
    return cls


# ---------------------------------------------------------------------------
# Records: schema'd core values
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


#: Record class -> class id; -> fields writer (no tag, no id).
_RECORD_IDS: Dict[Type, int] = {}
#: The classes of :func:`shared_records`.
_SHARED: List[Type] = []
_RECORD_WRITERS: Dict[Type, Callable[[bytearray, Any, int], None]] = {}
#: Class id -> fields reader, ``None`` where no class has the id.
_RECORD_READERS: List[Optional[Callable[[bytes, int, int],
                                        Tuple[Any, int]]]] = [None] * 256
#: ``(type name, method)`` -> payload writer (op id included); op id ->
#: reader of ``(type name, method, payload)``, ``None`` where unused.
_OP_WRITERS: Dict[Tuple[str, str], Callable[[bytearray, Any, int], None]] = {}
_OP_READERS: List[Optional[Callable[[bytes, int, int],
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


def _compile_record(name: str, fields: Tuple[Tuple[str, Any], ...],
                    get: Callable[[str], str], head: List[str],
                    build: Callable[[List[str]], List[str]]) -> str:
    """Source of ``write_<name>(out, v, depth)``, which appends ``head``
    and then the fields of ``v`` (each read as ``get(field)``), and
    ``read_<name>(buf, pos, depth)``, which reads the fields and ends
    with ``build(targets)`` — straight-line code per schema, so that a
    field costs what its kind costs and nothing per field is looked up
    at run time.  A nested record is written at its parent's depth: only
    ``VALUE`` fields nest deeper."""
    write = [f"def write_{name}(out, v, depth):"]
    write += ["    " + line for line in head]
    read = [f"def read_{name}(buf, pos, depth):"]
    targets = []
    for i, (field, kind) in enumerate(fields):
        targets.append(f"*f{i}" if kind == OP else f"f{i}")
        write += ["    " + line for line in _write_code(get(field), field,
                                                        kind)]
        read += ["    " + line for line in _read_code(f"f{i}", field, kind)]
    read += ["    " + line for line in build(targets)]
    return "\n".join(write + read) + "\n"


def _compile_class(cid: int, cls: Type,
                   fields: Tuple[Tuple[str, Any], ...]) -> str:
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
                           build)


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


def _register_records() -> None:
    namespace: Dict[str, Any] = {
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
    }
    for oid, type_name, method, fields in op_schemas():
        exec(_compile_op(oid, type_name, method, fields), namespace)
        _OP_WRITERS[type_name, method] = namespace[f"write_op_{oid}"]
        _OP_READERS[oid] = namespace[f"read_op_{oid}"]
    schemas = record_schemas()
    shared = shared_records()
    for cid, cls, fields in schemas:
        _RECORD_IDS[cls] = cid
        namespace[f"cls_{cid}"] = cls
        if cls in shared:
            _SHARED.append(cls)
    for cid, cls, fields in schemas:
        exec(_compile_class(cid, cls, fields), namespace)
        _RECORD_WRITERS[cls] = namespace[f"write_{cid}"]
        _RECORD_READERS[cid] = namespace[f"read_{cid}"]


def register_module(module_name: str) -> int:
    """Register every message dataclass defined in ``module_name``.

    A *message* dataclass is one that defines ``wire_size`` — that is
    the repo-wide contract for anything that crosses the network (the
    same predicate colony-lint's hygiene rules use).
    """
    mod = importlib.import_module(module_name)
    count = 0
    for name in dir(mod):
        obj = getattr(mod, name)
        if (isinstance(obj, type) and dataclasses.is_dataclass(obj)
                and obj.__module__ == module_name
                and "wire_size" in obj.__dict__):
            register(obj)
            count += 1
    return count


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


def message_classes() -> Dict[str, Type]:
    """Type key → class for every registered message."""
    _ensure_registry()
    return dict(_BY_KEY)


def record_classes() -> Dict[int, Type]:
    """Class id → class for every record."""
    _ensure_registry()
    return {cid: cls for cls, cid in _RECORD_IDS.items()}


# ---------------------------------------------------------------------------
# Message + frame codec
# ---------------------------------------------------------------------------

def _write_message(out: bytearray, message: Any, depth: int) -> None:
    """Type key and field tuple of a registered message, ``depth`` deep."""
    cls = type(message)
    key = _BY_CLASS.get(cls)
    if key is None:
        raise CodecError(f"unencodable value of type {cls.__module__}."
                         f"{cls.__name__} (not a registered message "
                         f"class): {message!r}")
    _write_value(out, key, depth)
    _write_value(out, tuple(getattr(message, name)
                            for name in _FIELDS[cls]), depth)


def _build_message(key: Any, fields: Any) -> Any:
    """The message ``key`` names, built from ``fields``."""
    cls = _BY_KEY.get(key) if type(key) is str else None
    if cls is None:
        raise CodecError(f"unknown message type key {key!r}")
    if type(fields) is not tuple or len(fields) != len(_FIELDS[cls]):
        raise CodecError(f"{key} takes {len(_FIELDS[cls])} fields in a "
                         f"tuple, got {fields!r}")
    return cls(*fields)


def encode_message(message: Any) -> bytes:
    """Encode one message object to ``(type_key, fields)`` bytes."""
    _ensure_registry()
    out = bytearray()
    _write_message(out, message, 0)
    return bytes(out)


def decode_message(buf: bytes) -> Any:
    _ensure_registry()
    key, fields = _decode(buf, 2)
    return _build_message(key, fields)


def encoded_size(message: Any) -> int:
    """Real wire length of a message body (excluding frame prefix)."""
    return len(encode_message(message))


def encode_frame(src: str, dst: str, message: Any) -> bytes:
    """One socket frame: 4-byte big-endian length + addressed body."""
    _ensure_registry()
    out = bytearray(4)
    _write_value(out, src, 0)
    _write_value(out, dst, 0)
    _write_message(out, message, 0)
    size = len(out) - 4
    if size > MAX_FRAME_BYTES:
        raise CodecError(f"frame of {size} bytes exceeds "
                         f"MAX_FRAME_BYTES={MAX_FRAME_BYTES}")
    out[:4] = size.to_bytes(4, "big")
    return bytes(out)


def decode_frame(body: bytes) -> Tuple[str, str, Any]:
    """Decode a frame *body* (length prefix already stripped)."""
    _ensure_registry()
    src, dst, key, fields = _decode(body, 4)
    if type(src) is not str or type(dst) is not str:
        raise CodecError("frame src/dst must be strings")
    return src, dst, _build_message(key, fields)


# ---------------------------------------------------------------------------
# wire_size honesty
# ---------------------------------------------------------------------------

def wire_size_drift(message: Any) -> Tuple[int, int]:
    """``(declared, actual)`` wire sizes for one message instance.

    ``declared`` is the analytical ``wire_size()`` the simulator charges
    for bandwidth accounting; ``actual`` is the real encoded body
    length.  M205 fails message classes whose declarations drift beyond
    tolerance on their sample instances.
    """
    return message.wire_size(), encoded_size(message)
