"""Map CRDTs holding nested CRDTs.

``GMap`` is the grow-only map of the paper's API example (Figure 3): keys
map to nested CRDT objects (registers, sets, counters, further maps...) and
can never be removed; updates address a key and carry a nested operation.
``ORMap`` adds observed-remove key deletion with add-wins semantics: a
remove deletes the nested state instances it observed, and a concurrent
update to the same key recreates the entry.
"""

from __future__ import annotations

from typing import Any, Dict, Optional, Set

from .base import (VALUE, CRDTError, OpBasedCRDT, Operation, Tag, new_crdt,
                   register_crdt, state_from_dict)


class _NestedMap(OpBasedCRDT):
    """Shared machinery: nested-update prepare/effect for CRDT maps."""

    # ``child`` is the nested operation's ``to_dict()`` form.
    PAYLOADS = {"update": (("key", VALUE), ("child", (VALUE, dict)))}

    def __init__(self, children: Optional[Dict[Any, OpBasedCRDT]] = None):
        self._children: Dict[Any, OpBasedCRDT] = {
            k: v.clone() for k, v in (children or {}).items()}

    # -- nested updates ------------------------------------------------------
    def child(self, key: Any, type_name: str) -> OpBasedCRDT:
        """Read-only access to a nested CRDT, creating a detached default.

        The returned object is the live child when present, otherwise a
        fresh empty instance (not stored): reading a missing key observes
        the type's initial state, matching the paper's model where "each
        object starts in some known initial state" (section 3.1).
        """
        existing = self._children.get(key)
        if existing is not None:
            if existing.TYPE_NAME != type_name:
                raise CRDTError(
                    f"map key {key!r} holds {existing.TYPE_NAME},"
                    f" not {type_name}")
            return existing
        return new_crdt(type_name)

    def _prepare_update(self, key: Any, type_name: str, method: str,
                        *args: Any, **kwargs: Any) -> Dict[str, Any]:
        target = self.child(key, type_name)
        child_op = target.prepare(method, *args, **kwargs)
        return {"key": key, "child": child_op.to_dict()}

    def _effect_update(self, op: Operation) -> None:
        key = op.payload["key"]
        child_op = Operation.from_dict(op.payload["child"])
        child_op = child_op.with_tag(op.tag)
        child = self._children.get(key)
        if child is None:
            child = new_crdt(child_op.type_name)
            self._children[key] = child
        child.apply(child_op)

    # -- state ---------------------------------------------------------------
    def keys(self) -> Set[Any]:
        return set(self._children)

    def has_key(self, key: Any) -> bool:
        return key in self._children

    def value(self) -> Dict[Any, Any]:
        return {k: child.value() for k, child in self._children.items()}

    def to_dict(self) -> Dict[str, Any]:
        return {"type": self.TYPE_NAME,
                "children": [[k, child.to_dict()]
                             for k, child in self._children.items()]}

    @classmethod
    def _children_from_dict(cls, data: Dict[str, Any]) \
            -> Dict[Any, OpBasedCRDT]:
        return {k: state_from_dict(c) for k, c in data["children"]}


@register_crdt
class GMap(_NestedMap):
    """Grow-only map of nested CRDTs; keys are never removed."""

    TYPE_NAME = "gmap"

    def clone(self) -> "GMap":
        return GMap(self._children)

    @classmethod
    def from_dict(cls, data: Dict[str, Any]) -> "GMap":
        return cls(cls._children_from_dict(data))


@register_crdt
class ORMap(_NestedMap):
    """Observed-remove map: keys can be removed, updates win over removes.

    Each key tracks the set of update tags that created/mutated it; a
    remove names the tags it observed.  A key survives while it has at
    least one unobserved update tag (add-wins), mirroring ``ORSet``.

    Removal *hides* a key rather than destroying its nested state: a
    later (or concurrent) update revives the key with its full history.
    This keeps the effect commutative without per-operation causal
    contexts; applications wanting reset-on-remove semantics should use a
    fresh field name instead.
    """

    TYPE_NAME = "ormap"
    PAYLOADS = {**_NestedMap.PAYLOADS,
                "remove": (("key", VALUE), ("observed", (VALUE, list)))}

    def __init__(self, children: Optional[Dict[Any, OpBasedCRDT]] = None,
                 live_tags: Optional[Dict[Any, Set[Tag]]] = None):
        super().__init__(children)
        self._live_tags: Dict[Any, Set[Tag]] = {
            k: set(v) for k, v in (live_tags or {}).items()}

    def _prepare_remove(self, key: Any) -> Dict[str, Any]:
        observed = self._live_tags.get(key, set())
        return {"key": key, "observed": [list(t) for t in observed]}

    def _effect_update(self, op: Operation) -> None:
        super()._effect_update(op)
        self._live_tags.setdefault(op.payload["key"], set()).add(op.tag)

    def _effect_remove(self, op: Operation) -> None:
        key = op.payload["key"]
        live = self._live_tags.get(key)
        if live is None:
            return
        for raw in op.payload["observed"]:
            live.discard(tuple(raw))
        if not live:
            # Hide the key; the nested state stays so that a concurrent
            # or later update revives it identically at every replica.
            del self._live_tags[key]

    def keys(self) -> Set[Any]:
        return {k for k in self._children if k in self._live_tags}

    def has_key(self, key: Any) -> bool:
        return key in self._live_tags

    def value(self) -> Dict[Any, Any]:
        return {k: child.value() for k, child in self._children.items()
                if k in self._live_tags}

    def clone(self) -> "ORMap":
        return ORMap(self._children, self._live_tags)

    def to_dict(self) -> Dict[str, Any]:
        data = super().to_dict()
        data["live_tags"] = [[k, [list(t) for t in tags]]
                             for k, tags in self._live_tags.items()]
        return data

    @classmethod
    def from_dict(cls, data: Dict[str, Any]) -> "ORMap":
        live = {k: {tuple(t) for t in tags} for k, tags in data["live_tags"]}
        return cls(cls._children_from_dict(data), live)
