"""Base machinery for operation-based CRDTs.

Colony stores operation-based CRDTs (paper section 4): an update is split
into a *prepare* phase, which runs at the source replica and may read local
state to produce a self-contained :class:`Operation`, and an *effect* phase,
which applies that operation at every replica.  Provided operations are
delivered in causal order (the job of the visibility layer) and effects of
concurrent operations commute, all replicas converge.

Every operation carries a *tag*: a globally unique, totally ordered
identifier supplied by the transaction layer (in Colony this is derived from
the transaction dot plus an intra-transaction sequence number).  Tags give
CRDTs a deterministic arbitration order for concurrent updates (paper
section 3.5: dots "provide a total arbitration order between concurrent
transactions").
"""

from __future__ import annotations

from typing import Any, Dict, Iterable, Optional, Tuple, Type


class CRDTError(Exception):
    """Raised on malformed operations or type mismatches."""


# A tag is an arbitrary totally ordered tuple; the transaction layer uses
# (dot, op_index).  Tests may use plain integers.
Tag = Tuple[Any, ...]

#: Kinds of the payload fields an effect method declares
#: (:attr:`OpBasedCRDT.PAYLOADS`), which the wire codec writes by schema:
#: ``INT`` is an ``int`` (never a ``bool``), ``VALUE`` any plain value and
#: ``(VALUE, t)`` a plain value of type ``t``.
INT = "int"
VALUE = "value"


class Operation:
    """A self-contained downstream operation produced by ``prepare``.

    Attributes:
        type_name: CRDT type that produced (and can consume) the operation.
        method: name of the effect method, e.g. ``"increment"``.
        payload: effect arguments; must be plain data (serialisable).
        tag: unique, totally ordered identifier for arbitration.
    """

    __slots__ = ("type_name", "method", "payload", "tag")

    def __init__(self, type_name: str, method: str, payload: Dict[str, Any],
                 tag: Optional[Tag] = None):
        self.type_name = type_name
        self.method = method
        self.payload = payload
        self.tag = tag

    def with_tag(self, tag: Tag) -> "Operation":
        """This operation carrying ``tag``; the payload is shared, as no
        effect mutates one."""
        return Operation(self.type_name, self.method, self.payload, tag)

    def to_dict(self) -> Dict[str, Any]:
        return {
            "type": self.type_name,
            "method": self.method,
            "payload": self.payload,
            "tag": list(self.tag) if self.tag is not None else None,
        }

    @classmethod
    def from_dict(cls, data: Dict[str, Any]) -> "Operation":
        tag = tuple(data["tag"]) if data.get("tag") is not None else None
        return cls(data["type"], data["method"], data["payload"], tag)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (f"Operation({self.type_name}.{self.method}"
                f" {self.payload} tag={self.tag})")

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Operation):
            return NotImplemented
        return (self.type_name == other.type_name
                and self.method == other.method
                and self.payload == other.payload
                and self.tag == other.tag)

    def __hash__(self) -> int:
        return hash((self.type_name, self.method, self.tag))


class OpBasedCRDT:
    """Base class for operation-based CRDTs.

    Subclasses define ``TYPE_NAME`` and effect methods registered through
    :meth:`_effect`.  The contract:

    * :meth:`prepare` runs at the source replica; it may read replica state
      and must return an :class:`Operation` whose payload fully determines
      the effect everywhere.
    * :meth:`apply` (the effect) must be commutative for operations that are
      concurrent under the causal order, and idempotent-by-delivery (the
      caller never delivers the same tag twice; Colony filters duplicates by
      dot, paper section 3.8).

    ``PAYLOADS`` declares, per effect method, the fields of the payload
    its ``prepare`` returns, in wire order: ``(name, kind)`` pairs with
    the kinds above.  A kind is as tight as ``prepare`` guarantees.
    """

    TYPE_NAME = "abstract"
    PAYLOADS: Dict[str, Tuple[Tuple[str, Any], ...]] = {}

    def prepare(self, method: str, *args: Any, **kwargs: Any) -> Operation:
        """Produce the downstream operation for ``method(*args)``."""
        handler = getattr(self, "_prepare_" + method, None)
        if handler is None:
            raise CRDTError(
                f"{self.TYPE_NAME} has no update method {method!r}")
        payload = handler(*args, **kwargs)
        return Operation(self.TYPE_NAME, method, payload)

    def apply(self, op: Operation) -> None:
        """Apply a downstream operation (the effect phase)."""
        if op.type_name != self.TYPE_NAME:
            raise CRDTError(
                f"cannot apply {op.type_name} operation to {self.TYPE_NAME}")
        handler = getattr(self, "_effect_" + op.method, None)
        if handler is None:
            raise CRDTError(
                f"{self.TYPE_NAME} has no effect for {op.method!r}")
        if op.tag is None:
            raise CRDTError("operation must be tagged before apply()")
        handler(op)

    def value(self) -> Any:
        """Return the externally observable value."""
        raise NotImplementedError

    def clone(self) -> "OpBasedCRDT":
        """Deep copy used to materialise private transaction buffers."""
        raise NotImplementedError

    def to_dict(self) -> Dict[str, Any]:
        """Serialise full state (used for base versions in the journal)."""
        raise NotImplementedError

    @classmethod
    def from_dict(cls, data: Dict[str, Any]) -> "OpBasedCRDT":
        raise NotImplementedError

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"{type(self).__name__}({self.value()!r})"


_REGISTRY: Dict[str, Type[OpBasedCRDT]] = {}


def register_crdt(cls: Type[OpBasedCRDT]) -> Type[OpBasedCRDT]:
    """Class decorator adding a CRDT type to the global registry."""
    if cls.TYPE_NAME in _REGISTRY:
        raise CRDTError(f"duplicate CRDT type name {cls.TYPE_NAME!r}")
    _REGISTRY[cls.TYPE_NAME] = cls
    return cls


def crdt_type(name: str) -> Type[OpBasedCRDT]:
    """Look up a registered CRDT class by its type name."""
    try:
        return _REGISTRY[name]
    except KeyError:
        raise CRDTError(f"unknown CRDT type {name!r}") from None


def new_crdt(name: str) -> OpBasedCRDT:
    """Instantiate a fresh CRDT of the given registered type."""
    return crdt_type(name)()


def registered_types() -> Iterable[str]:
    """Names of all registered CRDT types."""
    return tuple(sorted(_REGISTRY))


def state_from_dict(data: Dict[str, Any]) -> OpBasedCRDT:
    """Deserialise a CRDT state dict produced by ``to_dict``."""
    return crdt_type(data["type"]).from_dict(data)
