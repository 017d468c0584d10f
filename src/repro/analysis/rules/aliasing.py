"""Cross-actor aliasing rules (family A).

The simulated network delivers message objects *by reference*: sender
and receiver hold the same payload dicts.  A handler that mutates state
reachable from a received message is therefore mutating another actor's
state — a data race the real (serialising) network would never allow,
and one that a chaos replay surfaces as an unreproducible divergence.

Two static approximations of the race:

* **A501** — a handler writes through the message parameter, or
  through a local name bound to a part of it (``msg.entries[k] = v``,
  ``msg.txns.append(...)``, ``for txn in msg.txns: txn.commit =
  txn.commit.with_entry(...)``) — a transaction's stamp included: a
  received transaction is the sender's unless it was handed off, and
  a stamp grows by assignment to its holder's ``commit``;
* **A502** — a handler stores a mutable payload (a dict-typed message
  field) into actor state without copying, creating a long-lived alias
  that a later local mutation would push back across the boundary.

The send side of the same boundary is covered by M203 (message
constructors must receive fresh/copied containers).
"""

from __future__ import annotations

import ast
from typing import Iterable, List, Optional, Set, Tuple

from ..core import (CAT_DICT, Finding, Module, Project, Rule,
                    root_name)

#: In-place mutators on containers.
MUTATING_METHODS = {"append", "extend", "insert", "add", "discard",
                    "remove", "update", "setdefault", "pop", "popitem",
                    "clear", "sort", "reverse", "__setitem__"}

#: Dispatch entry points whose message parameter is unannotated.
DISPATCH_FUNCTIONS = {"on_message", "_dispatch", "_receive", "handle"}


def _message_param(module: Module, project: Project,
                   func: ast.AST) -> Optional[Tuple[str, object]]:
    """(param name, MessageClass-or-None) for handler functions."""
    if not isinstance(func, (ast.FunctionDef, ast.AsyncFunctionDef)):
        return None
    for arg in (func.args.posonlyargs + func.args.args
                + func.args.kwonlyargs):
        if arg.annotation is not None:
            cls = project.lookup_message(module, arg.annotation)
            if cls is not None:
                return arg.arg, cls
    if func.name in DISPATCH_FUNCTIONS:
        for arg in func.args.args:
            if arg.arg in ("message", "msg", "payload"):
                return arg.arg, None
    return None


def _names(target: ast.AST) -> Iterable[str]:
    """Names a binding target binds (``a``, ``a, (b, *c)``), not the
    roots of an attribute or subscript it writes through."""
    if isinstance(target, ast.Name):
        yield target.id
    elif isinstance(target, ast.Starred):
        yield from _names(target.value)
    elif isinstance(target, (ast.Tuple, ast.List)):
        for element in target.elts:
            yield from _names(element)


def _reachable(func: ast.AST, param: str) -> Set[str]:
    """``param`` and the local names bound to parts of it: assigned a
    (call-free) expression rooted at one, or a loop variable over one.
    A call's result — ``msg.txn.handoff()`` — is the callee's value."""
    names = {param}
    grew = True
    while grew:
        grew = False
        for node in ast.walk(func):
            if isinstance(node, ast.Assign):
                source, targets = node.value, node.targets
            elif isinstance(node, (ast.For, ast.comprehension)):
                source, targets = node.iter, [node.target]
            else:
                continue
            if isinstance(source, ast.Call) \
                    or root_name(source) not in names:
                continue
            for target in targets:
                for name in _names(target):
                    if name not in names:
                        names.add(name)
                        grew = True
    return names


class AliasingRule(Rule):
    name = "aliasing"
    codes = {
        "A501": "handler mutates state reachable from a received "
                "message (cross-actor write)",
        "A502": "mutable message payload stored into actor state "
                "without a copy",
    }

    def check_module(self, module: Module,
                     project: Project) -> Iterable[Finding]:
        findings: List[Finding] = []
        for func in ast.walk(module.tree):
            handler = _message_param(module, project, func)
            if handler is None:
                continue
            param, cls = handler
            findings.extend(self._check_handler(
                module, project, func, param, cls))
        return findings

    def _check_handler(self, module: Module, project: Project,
                       func: ast.AST, param: str,
                       cls) -> Iterable[Finding]:
        findings: List[Finding] = []
        reachable = _reachable(func, param)

        def _rooted_at(node: ast.AST) -> bool:
            return root_name(node) in reachable

        def emit(code: str, node: ast.AST, message: str) -> None:
            findings.append(Finding(
                code, module.path, node.lineno, node.col_offset,
                message, module.qualname(node)))

        for node in ast.walk(func):
            # Nested handlers are visited on their own.
            if node is not func and isinstance(
                    node, (ast.FunctionDef, ast.AsyncFunctionDef)) \
                    and _message_param(module, project, node) is not None:
                continue
            if isinstance(node, (ast.Assign, ast.AugAssign)):
                targets = node.targets if isinstance(node, ast.Assign) \
                    else [node.target]
                for target in targets:
                    if isinstance(target, (ast.Attribute, ast.Subscript)) \
                            and _rooted_at(target.value):
                        emit("A501", target,
                             f"write through {ast.unparse(target)} "
                             "mutates the sender's copy of the "
                             "message; messages are immutable values")
                # A502: self.x = msg.field (dict-typed, no copy)
                if isinstance(node, ast.Assign) and cls is not None \
                        and isinstance(node.value, ast.Attribute) \
                        and isinstance(node.value.value, ast.Name) \
                        and node.value.value.id == param \
                        and cls.fields.get(node.value.attr) == CAT_DICT:
                    for target in node.targets:
                        if root_name(target) == "self":
                            emit("A502", node,
                                 f"{ast.unparse(target)} aliases "
                                 f"{param}.{node.value.attr} (a "
                                 "mutable payload); store a copy "
                                 "(dict(...)) instead")
            elif isinstance(node, ast.Delete):
                for target in node.targets:
                    if isinstance(target, (ast.Attribute, ast.Subscript)) \
                            and _rooted_at(target.value):
                        emit("A501", target,
                             f"deleting {ast.unparse(target)} mutates "
                             "the sender's copy of the message")
            elif isinstance(node, ast.Call) \
                    and isinstance(node.func, ast.Attribute) \
                    and node.func.attr in MUTATING_METHODS \
                    and _rooted_at(node.func.value):
                emit("A501", node,
                     f"{ast.unparse(node.func)}(...) mutates state "
                     "reachable from the received message; copy the "
                     "payload before modifying it")
        return findings
