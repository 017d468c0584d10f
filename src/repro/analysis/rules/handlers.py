"""Handler-coverage rules (family H).

Every message type must have a handler somewhere (a dead message class
is a protocol hole: senders emit it, nobody reacts), dispatch chains
must not contain shadowed duplicate arms, and a handler may only touch
fields the message actually declares (a typo silently reads garbage on
the wire).

Dispatch is recognised in the codebase's idiomatic forms:

* ``isinstance(message, Cls)`` / ``isinstance(message, (A, B))`` tests;
* handler functions with a parameter annotated with a message class
  (``def _on_seed(self, msg: GroupSeed, sender: str)``);
* type-keyed dispatch tables: a dict display mapping message classes to
  handler names (``{GroupCommitAck: "_on_commit_ack"}``), which is how
  the edge tier routes one message type to a handler shared with
  another.

The coverage check (H301) arms itself only when the analyzed file set
contains at least one dispatch site — running the analyzer over a lone
``messages.py`` (e.g. from a pre-commit hook) must not declare every
class unhandled.
"""

from __future__ import annotations

import ast
from typing import Dict, Iterable, List, Set, Tuple

from ..core import Finding, MessageClass, Module, Project, Rule

#: Attributes any object (and every dataclass) legitimately exposes.
_GENERIC_ATTRS = {"__class__", "__dict__", "__doc__"}


def _isinstance_classes(module: Module, project: Project,
                        call: ast.Call) -> List[MessageClass]:
    if not (isinstance(call.func, ast.Name)
            and call.func.id == "isinstance" and len(call.args) == 2):
        return []
    spec = call.args[1]
    names = spec.elts if isinstance(spec, ast.Tuple) else [spec]
    found = []
    for name in names:
        cls = project.lookup_message(module, name)
        if cls is not None:
            found.append(cls)
    return found


class HandlerCoverageRule(Rule):
    name = "handler-coverage"
    codes = {
        "H301": "message class has no registered handler anywhere",
        "H302": "duplicate isinstance dispatch arm for the same "
                "message class (dead handler)",
        "H303": "handler references a field the message does not "
                "declare",
    }

    def finalize(self, project: Project) -> Iterable[Finding]:
        if not project.message_classes:
            return ()
        findings: List[Finding] = []
        handled: Set[str] = set()
        dispatch_sites = 0

        for module in project.modules:
            # -- isinstance dispatch tests ------------------------------
            per_function: Dict[Tuple[str, str], List[ast.Call]] = {}
            for node in ast.walk(module.tree):
                if isinstance(node, ast.Dict):
                    for key, value in zip(node.keys, node.values):
                        cls = key and project.lookup_message(module, key)
                        if cls and isinstance(value, ast.Constant):
                            dispatch_sites += 1
                            handled.add(cls.fq)
                if isinstance(node, ast.Call):
                    classes = _isinstance_classes(module, project, node)
                    if classes:
                        dispatch_sites += 1
                        for cls in classes:
                            handled.add(cls.fq)
                    if len(classes) == 1 and not isinstance(
                            node.args[1], ast.Tuple):
                        key = (module.qualname(node), classes[0].fq)
                        per_function.setdefault(key, []).append(node)
            for (qualname, fq), calls in sorted(
                    per_function.items()):
                short = fq.rsplit(".", 1)[-1]
                where = qualname or "<module>"
                for call in calls[1:]:
                    findings.append(Finding(
                        "H302", module.path, call.lineno,
                        call.col_offset,
                        f"duplicate dispatch arm for {short} in "
                        f"{where}; the earlier arm shadows this one",
                        qualname))

            # -- annotated handler functions ----------------------------
            for node in ast.walk(module.tree):
                if not isinstance(node, (ast.FunctionDef,
                                         ast.AsyncFunctionDef)):
                    continue
                for arg in (node.args.posonlyargs + node.args.args
                            + node.args.kwonlyargs):
                    if arg.annotation is None:
                        continue
                    cls = project.lookup_message(module, arg.annotation)
                    if cls is None:
                        continue
                    handled.add(cls.fq)
                    findings.extend(self._check_field_access(
                        module, node, arg.arg, cls))

        if dispatch_sites:
            for fq, cls in sorted(project.message_classes.items()):
                if fq not in handled:
                    findings.append(Finding(
                        "H301", cls.module.path, cls.node.lineno,
                        cls.node.col_offset,
                        f"message class {cls.name} has no registered "
                        "handler (no isinstance dispatch arm or "
                        "annotated handler found)", cls.name))
        return findings

    @staticmethod
    def _check_field_access(module: Module, func: ast.AST,
                            param: str,
                            cls: MessageClass) -> Iterable[Finding]:
        findings: List[Finding] = []
        declared = set(cls.fields) | _GENERIC_ATTRS
        for node in ast.walk(func):
            if not isinstance(node, ast.Attribute):
                continue
            if not (isinstance(node.value, ast.Name)
                    and node.value.id == param):
                continue
            if node.attr in declared or node.attr.startswith("__"):
                continue
            findings.append(Finding(
                "H303", module.path, node.lineno, node.col_offset,
                f"handler reads {param}.{node.attr} but {cls.name} "
                f"declares no field {node.attr!r}",
                module.qualname(node)))
        return findings
