"""colony-lint core: modules, findings, suppressions, baselines, registry.

The analyzer is a rule-plugin engine over Python ``ast``.  A run builds a
:class:`Project` (every module parsed once, plus cross-module facts such
as the message-class catalogue), then executes each registered
:class:`Rule` in two phases:

* ``check_module`` — per-module, independent of other files;
* ``finalize`` — after every module was seen, for cross-module rules
  (handler coverage, constructor-site hygiene).

Findings are suppressed either by an inline comment on the offending
line (or the line directly above it)::

    risky_call()  # colony-lint: disable=D107

or by a committed *baseline* file holding fingerprints of grandfathered
findings.  Fingerprints avoid line numbers (rule, path, enclosing
symbol, message) so that unrelated edits do not invalidate the
baseline.
"""

from __future__ import annotations

import ast
import hashlib
import json
import re
from pathlib import Path
from typing import Dict, Iterable, List, Optional, Sequence, Set, Tuple

# -- rule families ------------------------------------------------------------

FAMILIES = {
    "D": "determinism",
    "M": "message-hygiene",
    "H": "handler-coverage",
    "V": "vector-discipline",
    "A": "aliasing",
}

_SUPPRESS_RE = re.compile(
    r"#\s*colony-lint:\s*disable(?:-file)?=([A-Za-z0-9_,\s\-]+)")
_SUPPRESS_FILE_RE = re.compile(
    r"#\s*colony-lint:\s*disable-file=([A-Za-z0-9_,\s\-]+)")


class Finding:
    """One rule violation at one source location."""

    __slots__ = ("rule", "path", "line", "col", "message", "symbol")

    def __init__(self, rule: str, path: str, line: int, col: int,
                 message: str, symbol: str = ""):
        self.rule = rule
        self.path = path
        self.line = line
        self.col = col
        self.message = message
        self.symbol = symbol

    def fingerprint(self) -> str:
        """Line-independent identity, used by the baseline."""
        raw = f"{self.rule}|{self.path}|{self.symbol}|{self.message}"
        return hashlib.sha1(raw.encode()).hexdigest()[:16]

    def sort_key(self) -> Tuple:
        return (self.path, self.line, self.col, self.rule, self.message)

    def to_dict(self) -> Dict[str, object]:
        return {"rule": self.rule, "path": self.path, "line": self.line,
                "col": self.col, "message": self.message,
                "symbol": self.symbol,
                "fingerprint": self.fingerprint()}

    def render(self) -> str:
        where = f"{self.path}:{self.line}:{self.col}"
        sym = f" [{self.symbol}]" if self.symbol else ""
        return f"{where}: {self.rule}: {self.message}{sym}"

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"Finding({self.render()!r})"


def _suppression_codes(text: str) -> Set[str]:
    return {token.strip() for token in text.split(",") if token.strip()}


class Module:
    """One parsed source file plus lookup tables the rules share."""

    def __init__(self, path: str, source: str, modname: str):
        self.path = path
        self.modname = modname
        self.source = source
        self.tree = ast.parse(source)
        self.lines = source.splitlines()
        # -- suppression comments ----------------------------------------
        self.file_suppressions: Set[str] = set()
        self.line_suppressions: Dict[int, Set[str]] = {}
        for lineno, line in enumerate(self.lines, start=1):
            file_match = _SUPPRESS_FILE_RE.search(line)
            if file_match:
                self.file_suppressions |= _suppression_codes(
                    file_match.group(1))
                continue
            match = _SUPPRESS_RE.search(line)
            if not match:
                continue
            codes = _suppression_codes(match.group(1))
            if line.lstrip().startswith("#"):
                # Standalone comment: covers the next source line too.
                self.line_suppressions.setdefault(lineno + 1, set()) \
                    .update(codes)
            self.line_suppressions.setdefault(lineno, set()).update(codes)
        # -- import aliases: local name -> dotted path -------------------
        self.imports: Dict[str, str] = {}
        package = modname.rsplit(".", 1)[0] if "." in modname else ""
        for node in ast.walk(self.tree):
            if isinstance(node, ast.Import):
                for alias in node.names:
                    local = alias.asname or alias.name.split(".")[0]
                    target = alias.name if alias.asname else \
                        alias.name.split(".")[0]
                    self.imports[local] = target
            elif isinstance(node, ast.ImportFrom):
                base = node.module or ""
                if node.level:
                    parts = modname.split(".")
                    # level=1 strips the module name; each extra level
                    # strips one more package component.
                    anchor = parts[:-node.level] if node.level <= \
                        len(parts) else []
                    base = ".".join(anchor + ([base] if base else []))
                for alias in node.names:
                    if alias.name == "*":
                        continue
                    local = alias.asname or alias.name
                    self.imports[local] = (f"{base}.{alias.name}"
                                           if base else alias.name)
        del package
        # -- enclosing-scope index ---------------------------------------
        #: node -> (qualname, enclosing FunctionDef or None)
        self.scopes: Dict[ast.AST, Tuple[str, Optional[ast.AST]]] = {}
        self._index_scopes(self.tree, "", None)

    def _index_scopes(self, node: ast.AST, prefix: str,
                      func: Optional[ast.AST]) -> None:
        self.scopes[node] = (prefix, func)
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef,
                                  ast.ClassDef)):
                name = f"{prefix}.{child.name}" if prefix else child.name
                inner = child if isinstance(
                    child, (ast.FunctionDef, ast.AsyncFunctionDef)) \
                    else func
                self._index_scopes(child, name, inner)
            else:
                self._index_scopes(child, prefix, func)

    # -- helpers ----------------------------------------------------------
    def qualname(self, node: ast.AST) -> str:
        return self.scopes.get(node, ("", None))[0]

    def enclosing_function(self, node: ast.AST) -> Optional[ast.AST]:
        return self.scopes.get(node, ("", None))[1]

    def resolve(self, node: ast.AST) -> Optional[str]:
        """Resolve a Name/Attribute chain to a dotted path, through the
        module's import aliases.  ``None`` when the root is not a name
        (e.g. a call result)."""
        parts: List[str] = []
        while isinstance(node, ast.Attribute):
            parts.append(node.attr)
            node = node.value
        if not isinstance(node, ast.Name):
            return None
        root = self.imports.get(node.id, node.id)
        parts.append(root)
        return ".".join(reversed(parts))

    def is_suppressed(self, finding: Finding) -> bool:
        codes = set(self.file_suppressions)
        codes |= self.line_suppressions.get(finding.line, set())
        if not codes:
            return False
        family = FAMILIES.get(finding.rule[:1], "")
        return bool({"all", finding.rule, family} & codes)


def root_name(node: ast.AST) -> Optional[str]:
    """The leftmost Name of an attribute/subscript chain, if any."""
    while isinstance(node, (ast.Attribute, ast.Subscript, ast.Starred,
                            ast.Call)):
        node = node.func if isinstance(node, ast.Call) else node.value
    if isinstance(node, ast.Name):
        return node.id
    return None


def function_params(func: Optional[ast.AST]) -> Set[str]:
    if func is None or not isinstance(
            func, (ast.FunctionDef, ast.AsyncFunctionDef)):
        return set()
    args = func.args
    names = [a.arg for a in (args.posonlyargs + args.args
                             + args.kwonlyargs)]
    if args.vararg:
        names.append(args.vararg.arg)
    if args.kwarg:
        names.append(args.kwarg.arg)
    return set(names)


# -- message-class catalogue --------------------------------------------------

#: Field categories, by outermost annotation container.
CAT_OK = "ok"            # immutable / scalar
CAT_DICT = "dict"        # dict-like: serialisable but mutable
CAT_BANNED = "banned"    # mutable container that must not ride a message
CAT_UNKNOWN = "unknown"  # unresolvable type name

_SCALARS = {"str", "int", "float", "bool", "bytes", "complex", "None",
            "Any", "object"}
_DICT_LIKE = {"dict", "Dict", "Mapping", "OrderedDict"}
_IMMUTABLE = {"Tuple", "tuple", "FrozenSet", "frozenset", "Optional",
              "Union", "Literal", "Callable", "Final", "ClassVar"}
_BANNED = {"List", "list", "Set", "set", "Deque", "deque", "bytearray",
           "MutableMapping", "MutableSet", "MutableSequence",
           "DefaultDict", "defaultdict"}
#: Core values the transport codec carries as records.  All but the
#: transaction are immutable; a transaction's stamp grows, so M203
#: checks that a message receives it through ``handoff()``.
RECORDS = {"Dot", "ObjectKey", "ObjectState", "Operation", "WriteOp",
           "Snapshot", "VectorClock", "CommitStamp", "Transaction",
           "StreamEntry"}


def classify_annotation(node: ast.AST, aliases: Dict[str, ast.AST],
                        _depth: int = 0) -> str:
    """Categorise a field annotation (outermost container wins; Optional
    and Union are transparent)."""
    if _depth > 8:
        return CAT_UNKNOWN
    if isinstance(node, ast.Constant):
        if node.value is None:
            return CAT_OK
        if isinstance(node.value, str):
            try:
                parsed = ast.parse(node.value, mode="eval").body
            except SyntaxError:
                return CAT_UNKNOWN
            return classify_annotation(parsed, aliases, _depth + 1)
        return CAT_UNKNOWN
    if isinstance(node, ast.Name) or isinstance(node, ast.Attribute):
        name = node.id if isinstance(node, ast.Name) else node.attr
        if name in _SCALARS:
            return CAT_OK
        if name in _DICT_LIKE:
            return CAT_DICT
        if name in _IMMUTABLE or name in RECORDS:
            return CAT_OK
        if name in _BANNED:
            return CAT_BANNED
        if isinstance(node, ast.Name) and node.id in aliases:
            return classify_annotation(aliases[node.id], aliases,
                                       _depth + 1)
        return CAT_UNKNOWN
    if isinstance(node, ast.Subscript):
        head = node.value
        head_name = head.id if isinstance(head, ast.Name) else (
            head.attr if isinstance(head, ast.Attribute) else "")
        if head_name in _BANNED:
            return CAT_BANNED
        if head_name in _DICT_LIKE:
            return CAT_DICT
        if head_name in ("Optional", "Union"):
            inner = node.slice
            elements = inner.elts if isinstance(inner, ast.Tuple) \
                else [inner]
            worst = CAT_OK
            order = {CAT_OK: 0, CAT_DICT: 1, CAT_UNKNOWN: 2,
                     CAT_BANNED: 3}
            for element in elements:
                cat = classify_annotation(element, aliases, _depth + 1)
                if order[cat] > order[worst]:
                    worst = cat
            return worst
        if head_name in _IMMUTABLE or head_name in _SCALARS:
            # Immutable shell (Tuple[...]/FrozenSet[...]): contents are
            # the call-site's responsibility (shallow-copy contract).
            return CAT_OK
        if isinstance(head, ast.Name) and head.id in aliases:
            return classify_annotation(aliases[head.id], aliases,
                                       _depth + 1)
        return CAT_UNKNOWN
    if isinstance(node, ast.BinOp):  # X | Y unions
        left = classify_annotation(node.left, aliases, _depth + 1)
        right = classify_annotation(node.right, aliases, _depth + 1)
        order = {CAT_OK: 0, CAT_DICT: 1, CAT_UNKNOWN: 2, CAT_BANNED: 3}
        return left if order[left] >= order[right] else right
    return CAT_UNKNOWN


class MessageClass:
    """A dataclass defined in a ``messages.py`` module."""

    __slots__ = ("name", "fq", "module", "node", "frozen", "has_slots",
                 "fields", "field_order", "annotations")

    def __init__(self, name: str, fq: str, module: Module,
                 node: ast.ClassDef, frozen: bool, has_slots: bool,
                 fields: Dict[str, str], field_order: List[str],
                 annotations: Dict[str, ast.AST]):
        self.name = name
        self.fq = fq
        self.module = module
        self.node = node
        self.frozen = frozen
        self.has_slots = has_slots
        self.fields = fields          # field name -> category
        self.field_order = field_order
        self.annotations = annotations  # field name -> annotation


def _dataclass_decoration(node: ast.ClassDef) \
        -> Optional[Tuple[bool, bool]]:
    """(frozen, slots) if decorated with @dataclass, else None."""
    for decorator in node.decorator_list:
        target = decorator.func if isinstance(decorator, ast.Call) \
            else decorator
        name = target.id if isinstance(target, ast.Name) else (
            target.attr if isinstance(target, ast.Attribute) else "")
        if name != "dataclass":
            continue
        frozen = has_slots = False
        if isinstance(decorator, ast.Call):
            for keyword in decorator.keywords:
                if keyword.arg == "frozen" and isinstance(
                        keyword.value, ast.Constant):
                    frozen = bool(keyword.value.value)
                if keyword.arg == "slots" and isinstance(
                        keyword.value, ast.Constant):
                    has_slots = bool(keyword.value.value)
        return frozen, has_slots
    return None


def _collect_messages(module: Module) -> List[MessageClass]:
    aliases: Dict[str, ast.AST] = {}
    for node in module.tree.body:
        if isinstance(node, ast.Assign) and len(node.targets) == 1 \
                and isinstance(node.targets[0], ast.Name):
            aliases[node.targets[0].id] = node.value
    out: List[MessageClass] = []
    for node in module.tree.body:
        if not isinstance(node, ast.ClassDef):
            continue
        decoration = _dataclass_decoration(node)
        if decoration is None:
            continue
        frozen, has_slots = decoration
        fields: Dict[str, str] = {}
        order: List[str] = []
        annotations: Dict[str, ast.AST] = {}
        for stmt in node.body:
            if isinstance(stmt, ast.AnnAssign) and isinstance(
                    stmt.target, ast.Name):
                fields[stmt.target.id] = classify_annotation(
                    stmt.annotation, aliases)
                order.append(stmt.target.id)
                annotations[stmt.target.id] = stmt.annotation
        out.append(MessageClass(
            node.name, f"{module.modname}.{node.name}", module, node,
            frozen, has_slots, fields, order, annotations))
    return out


class Project:
    """Every module of one analyzer run, plus cross-module facts."""

    def __init__(self, modules: Sequence[Module]):
        self.modules = list(modules)
        self.message_classes: Dict[str, MessageClass] = {}
        self.message_by_name: Dict[str, List[MessageClass]] = {}
        for module in self.modules:
            if not module.path.endswith("messages.py"):
                continue
            for cls in _collect_messages(module):
                self.message_classes[cls.fq] = cls
                self.message_by_name.setdefault(cls.name, []).append(cls)

    # -- lookup helpers ----------------------------------------------------
    def lookup_message(self, module: Module,
                       node: ast.AST) -> Optional[MessageClass]:
        """Resolve an expression to a known message class, if possible."""
        dotted = module.resolve(node)
        if dotted is None:
            return None
        found = self.message_classes.get(dotted)
        if found is not None:
            return found
        short = dotted.rsplit(".", 1)[-1]
        candidates = self.message_by_name.get(short, [])
        if len(candidates) == 1:
            return candidates[0]
        for candidate in candidates:
            if candidate.module is module:
                return candidate
        return None

    @classmethod
    def from_paths(cls, paths: Sequence[str],
                   root: Optional[Path] = None) -> "Project":
        root = root or Path.cwd()
        files: List[Path] = []
        for raw in paths:
            path = Path(raw)
            if path.is_dir():
                files.extend(sorted(path.rglob("*.py")))
            elif path.suffix == ".py":
                files.append(path)
        modules = []
        seen: Set[str] = set()
        for path in files:
            if "__pycache__" in path.parts:
                continue
            try:
                rel = path.resolve().relative_to(root.resolve())
                rel_str = rel.as_posix()
            except ValueError:
                rel_str = path.as_posix()
            if rel_str in seen:
                continue
            seen.add(rel_str)
            modules.append(Module(rel_str, path.read_text(),
                                  modname_for(rel_str)))
        return cls(modules)

    @classmethod
    def from_sources(cls, sources: Dict[str, str]) -> "Project":
        """Build from in-memory {relpath: source} (tests, self-check)."""
        modules = [Module(path, text, modname_for(path))
                   for path, text in sorted(sources.items())]
        return cls(modules)


def modname_for(relpath: str) -> str:
    parts = Path(relpath).with_suffix("").parts
    if parts and parts[0] == "src":
        parts = parts[1:]
    if parts and parts[-1] == "__init__":
        parts = parts[:-1]
    return ".".join(parts)


# -- rules --------------------------------------------------------------------

class Rule:
    """Base class for rule plugins.

    ``codes`` maps each finding code the rule can emit to a one-line
    description (shown by ``--list-rules``).
    """

    name = "rule"
    codes: Dict[str, str] = {}

    def check_module(self, module: Module,
                     project: Project) -> Iterable[Finding]:
        return ()

    def finalize(self, project: Project) -> Iterable[Finding]:
        return ()


def run_rules(project: Project,
              rules: Sequence[Rule]) -> List[Finding]:
    """Run every rule over the project; suppressions applied, sorted."""
    findings: List[Finding] = []
    by_path = {module.path: module for module in project.modules}
    for rule in rules:
        for module in project.modules:
            findings.extend(rule.check_module(module, project))
        findings.extend(rule.finalize(project))
    kept = []
    for finding in findings:
        module = by_path.get(finding.path)
        if module is not None and module.is_suppressed(finding):
            continue
        kept.append(finding)
    kept.sort(key=Finding.sort_key)
    # Deduplicate (a cross-module rule may re-derive a per-module fact).
    unique: List[Finding] = []
    seen: Set[Tuple] = set()
    for finding in kept:
        key = (finding.rule, finding.path, finding.line, finding.col,
               finding.message)
        if key not in seen:
            seen.add(key)
            unique.append(finding)
    return unique


# -- baseline -----------------------------------------------------------------

BASELINE_VERSION = 1
DEFAULT_BASELINE = "analysis-baseline.json"


def load_baseline(path: Path) -> Set[str]:
    data = json.loads(path.read_text())
    if data.get("version") != BASELINE_VERSION:
        raise ValueError(f"unsupported baseline version in {path}")
    return {entry["fingerprint"] for entry in data.get("findings", [])}


def write_baseline(path: Path, findings: Sequence[Finding]) -> None:
    data = {
        "version": BASELINE_VERSION,
        "findings": [{"fingerprint": f.fingerprint(), "rule": f.rule,
                      "path": f.path, "symbol": f.symbol,
                      "message": f.message}
                     for f in sorted(findings,
                                     key=Finding.sort_key)],
    }
    path.write_text(json.dumps(data, indent=2, sort_keys=True) + "\n")


def split_baselined(findings: Sequence[Finding], fingerprints: Set[str]) \
        -> Tuple[List[Finding], List[Finding]]:
    """(new, grandfathered) according to the baseline fingerprints."""
    fresh, old = [], []
    for finding in findings:
        (old if finding.fingerprint() in fingerprints
         else fresh).append(finding)
    return fresh, old
