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
* **records**: the core values messages inside the infrastructure carry
  (``Transaction`` and its parts, ``StreamEntry``) nest in the same
  form — a type key, then the fields in declared order, no names.  A
  record never stands alone in a frame, and decoding one checks the
  type of every field, so a record built from hostile bytes is either
  well-typed or ``CodecError``.

A frame on the socket is a 4-byte big-endian length followed by the
value encoding of ``(src, dst, type_key, fields)``.

The bytes are defined by the recursive implementation kept as the
oracle in ``tests/property/test_codec_oracle.py``; the encoder and the
decoder here produce and accept exactly those, in one pass each.  The
encoder appends every value once to one buffer and orders a
``str``-keyed dict by its keys' encodings alone (they are unique, so
the order never depends on a value); the decoder reads the values of a
container in one call, scalars in the loop.  Each direction keeps a
bounded table of short strings, which nothing but the clock can see.

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
from typing import Any, Callable, Dict, List, Tuple, Type

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

_TOO_DEEP = f"value nests deeper than MAX_DEPTH={MAX_DEPTH}"

_ENC_STRS: Dict[str, bytes] = {}
_DEC_STRS: Dict[bytes, str] = {}


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
    ``live_saturate``: 63 % strings, 21 % dicts, 12 % ints."""
    t = type(value)
    if t is str:
        raw = _ENC_STRS.get(value)
        out += raw if raw is not None else _encode_str(value)
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
    elif t is int:
        out.append(_T_INT)
        if 0 <= value < 0x40:
            out.append(value << 1)
        else:
            # zigzag so negatives stay compact (arbitrary precision)
            _write_varint(out, value << 1 if value >= 0
                          else ((-value) << 1) - 1)
    elif t is list or t is tuple:
        if depth >= MAX_DEPTH:
            raise CodecError(_TOO_DEEP)
        depth += 1
        out.append(_T_LIST if t is list else _T_TUPLE)
        _write_varint(out, len(value))
        for item in value:
            _write_value(out, item, depth)
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
    return _encoded(value, 0)


def _read_values(buf: bytes, pos: int, n: int,
                 depth: int) -> Tuple[List[Any], int]:
    """Decode the ``n`` consecutive values that start at ``buf[pos]``
    and sit ``depth`` containers deep; the list and the offset after it.

    One call per container, not per value: scalars are decoded in the
    loop, tags tested in the order of the measured mix.  A string or
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
    "repro.core.clock": "core",
    "repro.core.dot": "core",
    "repro.core.txn": "core",
    "repro.crdt.base": "crdt",
}

_BY_KEY: Dict[str, Type] = {}
_BY_CLASS: Dict[Type, str] = {}
_FIELDS: Dict[Type, Tuple[str, ...]] = {}
#: Record class -> one type test per field, in ``_FIELDS`` order.
_CHECKS: Dict[Type, Tuple[Callable[[Any], bool], ...]] = {}


def _type_key(cls: Type) -> str:
    alias = _MODULE_ALIASES.get(cls.__module__, cls.__module__)
    return f"{alias}.{cls.__name__}"


def _enter(cls: Type, fields: Tuple[str, ...]) -> None:
    key = _type_key(cls)
    existing = _BY_KEY.get(key)
    if existing is not None and existing is not cls:
        raise CodecError(f"type key collision for {key}")
    _BY_KEY[key] = cls
    _BY_CLASS[cls] = key
    _FIELDS[cls] = fields


def register(cls: Type) -> Type:
    """Register one message dataclass with the codec."""
    if not dataclasses.is_dataclass(cls):
        raise CodecError(f"{cls.__name__} is not a dataclass")
    _enter(cls, tuple(f.name for f in dataclasses.fields(cls)))
    return cls


def register_record(cls: Type,
                    fields: Tuple[Tuple[str, Callable[[Any], bool]], ...]
                    ) -> Type:
    """Register a value type that messages carry: ``fields`` are
    ``(attribute, type test)`` pairs in the constructor's order."""
    _enter(cls, tuple(name for name, _check in fields))
    _CHECKS[cls] = tuple(check for _name, check in fields)
    return cls


def _exactly(*types: type) -> Callable[[Any], bool]:
    return lambda value: type(value) in types


def _all_of(container: type, cls: type) -> Callable[[Any], bool]:
    return lambda value: (type(value) is container
                          and all(type(item) is cls for item in value))


def _counts(value: Any) -> bool:
    """A vector, stamp or vector delta: ``str -> int``."""
    return type(value) is dict and all(
        type(k) is str and type(v) is int for k, v in value.items())


def _register_records() -> None:
    from ..core.clock import VectorClock
    from ..core.dot import Dot
    from ..core.txn import (CommitStamp, ObjectKey, Snapshot, StreamEntry,
                            Transaction, WriteOp)
    from ..crdt.base import Operation
    text = _exactly(str)
    maybe_text = _exactly(str, type(None))
    writes = _all_of(tuple, WriteOp)
    register_record(Dot, (("counter", _exactly(int)), ("origin", text)))
    register_record(ObjectKey, (("bucket", text), ("key", text)))
    register_record(Operation, (
        ("type_name", text), ("method", text), ("payload", _exactly(dict)),
        ("tag", _exactly(tuple, type(None)))))
    register_record(WriteOp, (("key", _exactly(ObjectKey)),
                              ("op", _exactly(Operation))))
    register_record(VectorClock, (("_entries", _counts),))
    register_record(Snapshot, (("vector", _exactly(VectorClock)),
                               ("local_deps", _all_of(frozenset, Dot))))
    register_record(CommitStamp, (("entries", _counts),))
    register_record(Transaction, (
        ("dot", _exactly(Dot)), ("origin", text),
        ("snapshot", _exactly(Snapshot)),
        ("commit", _exactly(CommitStamp)), ("writes", writes),
        ("issuer", maybe_text)))
    register_record(StreamEntry, (
        ("dot", _exactly(Dot)), ("origin", text), ("issuer", maybe_text),
        ("sv", _counts), ("deps", _all_of(tuple, Dot)), ("cx", _counts),
        ("writes", writes)))


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
    """Type key → class for every registered message (not records)."""
    _ensure_registry()
    return {key: cls for key, cls in _BY_KEY.items() if cls not in _CHECKS}


def record_classes() -> Dict[str, Type]:
    """Type key → class for every registered record."""
    _ensure_registry()
    return {key: cls for key, cls in _BY_KEY.items() if cls in _CHECKS}


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


def _build_message(key: Any, fields: Any, nested: bool = True) -> Any:
    """The message or record ``key`` names, built from ``fields``;
    outside a message (``nested=False``) only a message is accepted."""
    cls = _BY_KEY.get(key) if type(key) is str else None
    if cls is None:
        raise CodecError(f"unknown message type key {key!r}")
    if type(fields) is not tuple or len(fields) != len(_FIELDS[cls]):
        raise CodecError(f"{key} takes {len(_FIELDS[cls])} fields in a "
                         f"tuple, got {fields!r}")
    checks = _CHECKS.get(cls)
    if checks is None:
        return cls(*fields)
    if not nested:
        raise CodecError(f"{key} is a record, not a message")
    for name, check, value in zip(_FIELDS[cls], checks, fields):
        if not check(value):
            raise CodecError(f"{key}.{name} cannot be {value!r}")
    try:
        return cls(*fields)
    except (TypeError, ValueError) as exc:
        raise CodecError(f"{key}{fields!r}: {exc}") from None


def encode_message(message: Any) -> bytes:
    """Encode one message object to ``(type_key, fields)`` bytes."""
    _ensure_registry()
    out = bytearray()
    _write_message(out, message, 0)
    return bytes(out)


def decode_message(buf: bytes) -> Any:
    _ensure_registry()
    key, fields = _decode(buf, 2)
    return _build_message(key, fields, nested=False)


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
    return src, dst, _build_message(key, fields, nested=False)


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
