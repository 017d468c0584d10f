"""Message-hygiene rule M203.

Messages are values: the simulated network passes them *by reference*,
so any mutable state riding a message is shared between sender and
receiver — a cross-actor data race waiting to happen.  That a message
class is frozen and that its fields can be written is checked when the
wire codec registers it (``repro.transport.codec.register``); what is
left to check statically is the call sites.  Mutable containers (dicts)
handed to a message constructor must be freshly built or copied there.
A transaction is immutable but for its commit stamp, so a message takes
one only from ``Transaction.handoff()``, which gives the receiver its
own stamp.
"""

from __future__ import annotations

import ast
from typing import Iterable, List, Optional, Tuple

from ..core import (CAT_DICT, Finding, Module, Project, Rule,
                    function_params, root_name)

def _freshness(node: ast.AST, params: "set[str]") -> Optional[str]:
    """None when the expression is evidently fresh; otherwise a short
    reason why it may alias shared state."""
    if isinstance(node, (ast.Constant, ast.Dict, ast.DictComp,
                         ast.ListComp, ast.SetComp, ast.GeneratorExp,
                         ast.Call, ast.Tuple, ast.List, ast.Set,
                         ast.Compare, ast.Lambda, ast.JoinedStr)):
        return None
    if isinstance(node, ast.IfExp):
        return _freshness(node.body, params) \
            or _freshness(node.orelse, params)
    if isinstance(node, ast.BoolOp):
        for value in node.values:
            reason = _freshness(value, params)
            if reason:
                return reason
        return None
    if isinstance(node, ast.Name):
        if node.id == "self":
            return "actor state (self)"
        if node.id in params:
            return f"parameter {node.id!r}"
        return None  # a local binding: assumed fresh
    if isinstance(node, (ast.Attribute, ast.Subscript, ast.Starred)):
        root = root_name(node)
        if root == "self":
            return "actor state (self.…)"
        if root is not None and root in params:
            return f"state reachable from parameter {root!r}"
        return "attribute/subscript of shared object"
    return None


#: Shells M203 sees through to the transactions inside them.
_SHELLS = {"Tuple", "tuple", "FrozenSet", "frozenset"}


def _head(node: ast.AST) -> str:
    if isinstance(node, ast.Name):
        return node.id
    return node.attr if isinstance(node, ast.Attribute) else ""


def _holds_transactions(annotation: ast.AST) -> bool:
    return any(_head(node) == "Transaction" for node in ast.walk(annotation))


def _arguments(cls, call: ast.Call) -> List[Tuple[str, ast.AST]]:
    """``(field name, value)`` for each argument of a constructor call."""
    pairs = list(zip(cls.field_order, call.args))
    pairs += [(kw.arg, kw.value) for kw in call.keywords
              if kw.arg is not None]
    return pairs


def _unhanded(annotation: ast.AST, value: ast.AST) -> List[ast.AST]:
    """The parts of ``value`` that fill a ``Transaction`` slot of a field
    annotated ``annotation`` without a ``handoff()`` call.

    Walks the annotation and the value together through ``Optional``,
    tuple shells, ``tuple(...)`` copies, comprehensions, literals and
    conditionals; anything else in a transaction slot cannot be shown
    to be a handoff and is reported.
    """
    if not _holds_transactions(annotation):
        return []
    if isinstance(value, ast.IfExp):
        return (_unhanded(annotation, value.body)
                + _unhanded(annotation, value.orelse))
    if isinstance(value, ast.Constant) and value.value is None:
        return []
    if _head(annotation) == "Transaction":
        if isinstance(value, ast.Call) and _head(value.func) == "handoff":
            return []
        return [value]
    if not isinstance(annotation, ast.Subscript):
        return [value]
    head = _head(annotation.value)
    inner = annotation.slice
    args = inner.elts if isinstance(inner, ast.Tuple) else [inner]
    if head in ("Optional", "Union"):
        return [bare for arg in args if _holds_transactions(arg)
                for bare in _unhanded(arg, value)]
    if head not in _SHELLS:
        return [value]
    variadic = head in ("FrozenSet", "frozenset") or (
        len(args) == 2 and isinstance(args[1], ast.Constant)
        and args[1].value is Ellipsis)
    if isinstance(value, ast.Call) and _head(value.func) in _SHELLS \
            and len(value.args) == 1 and not value.keywords:
        return _unhanded(annotation, value.args[0])
    if variadic and isinstance(value, (ast.ListComp, ast.SetComp,
                                       ast.GeneratorExp)):
        return _unhanded(args[0], value.elt)
    if isinstance(value, (ast.Tuple, ast.List)):
        if variadic:
            pairs = [(args[0], elt) for elt in value.elts]
        elif len(args) == len(value.elts):
            pairs = list(zip(args, value.elts))
        else:
            return [value]
        return [bare for ann, elt in pairs for bare in _unhanded(ann, elt)]
    return [value]


def _carries_transactions(cls, call: ast.Call) -> bool:
    """Does this constructor call fill a ``Transaction`` slot of ``cls``
    with anything but an empty tuple or ``None``?"""
    for field_name, value in _arguments(cls, call):
        annotation = cls.annotations.get(field_name)
        if annotation is None or not _holds_transactions(annotation):
            continue
        empty = (isinstance(value, ast.Constant) and value.value is None) \
            or (isinstance(value, ast.Tuple) and not value.elts)
        if not empty:
            return True
    return False


_LOOPS = (ast.For, ast.AsyncFor, ast.While, ast.ListComp, ast.SetComp,
          ast.DictComp, ast.GeneratorExp)


def _sent_in_loops(func: ast.AST) -> List[Tuple[ast.AST, ast.Name]]:
    """``(loop, name)`` for every bare name a ``send(...)`` inside a
    loop of ``func`` carries — any argument but the first, the
    destination: one value, several receivers."""
    sent = []
    for loop in ast.walk(func):
        if not isinstance(loop, _LOOPS):
            continue
        for call in ast.walk(loop):
            if isinstance(call, ast.Call) and _head(call.func) == "send":
                for arg in call.args[1:] + [kw.value
                                            for kw in call.keywords]:
                    if isinstance(arg, ast.Name):
                        sent.append((loop, arg))
    return sent


class MessageHygieneRule(Rule):
    name = "message-hygiene"
    codes = {
        "M203": "mutable container passed into a message constructor "
                "without a copy, or a transaction without handoff()",
    }

    # -- one message carrying transactions, several receivers -------------
    def _fan_out_findings(self, project: Project) -> Iterable[Finding]:
        """A message whose transactions were handed off once, then sent
        to several receivers: each would share the one copy's stamp.

        Two shapes: a message bound to a name outside a loop and sent
        inside it, and a message handed to a *fan-out helper* — a
        function of the tree that sends one of its parameters inside a
        loop (``GroupMember._to_members``, ``EPaxosReplica._broadcast``).
        """
        helpers = set()
        for module in project.modules:
            for func in ast.walk(module.tree):
                if isinstance(func, (ast.FunctionDef, ast.AsyncFunctionDef)):
                    params = function_params(func) - {"self"}
                    if any(name.id in params
                           for _loop, name in _sent_in_loops(func)):
                        helpers.add(func.name)
        for module in project.modules:
            for func in ast.walk(module.tree):
                if not isinstance(func, (ast.FunctionDef,
                                         ast.AsyncFunctionDef)):
                    continue
                built = {}      # name -> (constructor call, class)
                for node in ast.walk(func):
                    if isinstance(node, ast.Assign) \
                            and len(node.targets) == 1 \
                            and isinstance(node.targets[0], ast.Name) \
                            and isinstance(node.value, ast.Call):
                        cls = project.lookup_message(module, node.value.func)
                        if cls is not None and _carries_transactions(
                                cls, node.value):
                            built[node.targets[0].id] = (node, cls)
                for loop, name in _sent_in_loops(func):
                    if name.id in built:
                        assign, cls = built[name.id]
                        if assign not in set(ast.walk(loop)):
                            yield self._fan_out_finding(module, name, cls)
                for call in ast.walk(func):
                    if not (isinstance(call, ast.Call)
                            and _head(call.func) in helpers):
                        continue
                    for arg in call.args:
                        if isinstance(arg, ast.Name) and arg.id in built:
                            yield self._fan_out_finding(
                                module, arg, built[arg.id][1])
                        elif isinstance(arg, ast.Call):
                            cls = project.lookup_message(module, arg.func)
                            if cls is not None and _carries_transactions(
                                    cls, arg):
                                yield self._fan_out_finding(module, arg, cls)

    def _fan_out_finding(self, module: Module, node: ast.AST,
                         cls) -> Finding:
        return Finding(
            "M203", module.path, node.lineno, node.col_offset,
            f"one {cls.name} carrying transactions goes to several "
            "receivers, which would share its copies' stamps; build one "
            "per receiver, each from handoff()", module.qualname(node))

    # -- constructor call sites, anywhere in the tree ---------------------
    def finalize(self, project: Project) -> Iterable[Finding]:
        if not project.message_classes:
            return ()
        findings: List[Finding] = list(self._fan_out_findings(project))
        for module in project.modules:
            for node in ast.walk(module.tree):
                if not isinstance(node, ast.Call):
                    continue
                cls = project.lookup_message(module, node.func)
                if cls is None:
                    continue
                params = function_params(
                    module.enclosing_function(node))
                params.discard("self")
                for field_name, value in _arguments(cls, node):
                    annotation = cls.annotations.get(field_name)
                    for bare in (_unhanded(annotation, value)
                                 if annotation is not None else ()):
                        findings.append(Finding(
                            "M203", module.path, bare.lineno,
                            bare.col_offset,
                            f"{cls.name}.{field_name} receives "
                            f"{ast.unparse(bare)}, a transaction not "
                            "taken through handoff(); the receiver "
                            "would share the sender's growing stamp",
                            module.qualname(node)))
                    if cls.fields.get(field_name) != CAT_DICT:
                        continue
                    reason = _freshness(value, params)
                    if reason is None:
                        continue
                    findings.append(Finding(
                        "M203", module.path, value.lineno,
                        value.col_offset,
                        f"{cls.name}.{field_name} receives "
                        f"{ast.unparse(value)} ({reason}); copy it "
                        "(dict(...)/.to_dict()) so the message cannot "
                        "alias live state", module.qualname(node)))
        return findings
