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

#: Field categories: a dict-like field is serialisable but mutable, so
#: M203 wants it copied where a message is built.  That a field has a
#: kind the codec can write is checked when the class registers with it.
CAT_OK = "ok"
CAT_DICT = "dict"

_DICT_LIKE = {"dict", "Dict", "Mapping", "OrderedDict"}


def classify_annotation(node: ast.AST, aliases: Dict[str, ast.AST],
                        _depth: int = 0) -> str:
    """``CAT_DICT`` when the annotation's outermost container is
    dict-like — through ``Optional``, ``Union``, ``X | Y``, string
    annotations and module-level aliases — else ``CAT_OK``."""
    if _depth > 8:
        return CAT_OK
    if isinstance(node, ast.Constant) and isinstance(node.value, str):
        try:
            parsed = ast.parse(node.value, mode="eval").body
        except SyntaxError:
            return CAT_OK
        return classify_annotation(parsed, aliases, _depth + 1)
    head = node.value if isinstance(node, ast.Subscript) else node
    name = head.id if isinstance(head, ast.Name) else (
        head.attr if isinstance(head, ast.Attribute) else "")
    if isinstance(node, ast.BinOp):  # X | Y unions
        elements = [node.left, node.right]
    elif isinstance(node, ast.Subscript) and name in ("Optional", "Union"):
        inner = node.slice
        elements = inner.elts if isinstance(inner, ast.Tuple) else [inner]
    elif name in _DICT_LIKE:
        return CAT_DICT
    elif isinstance(head, ast.Name) and head.id in aliases:
        return classify_annotation(aliases[head.id], aliases, _depth + 1)
    else:
        return CAT_OK
    return CAT_DICT if any(
        classify_annotation(element, aliases, _depth + 1) == CAT_DICT
        for element in elements) else CAT_OK


class MessageClass:
    """A message class: a dataclass the wire codec's class table names."""

    __slots__ = ("name", "fq", "module", "node", "fields", "field_order",
                 "annotations")

    def __init__(self, name: str, fq: str, module: Module,
                 node: ast.ClassDef, fields: Dict[str, str],
                 field_order: List[str], annotations: Dict[str, ast.AST]):
        self.name = name
        self.fq = fq
        self.module = module
        self.node = node
        self.fields = fields          # field name -> category
        self.field_order = field_order
        self.annotations = annotations  # field name -> annotation


def codec_messages() -> Set[str]:
    """``module.Class`` of every message in the wire codec's fixed class
    table (``repro.transport.codec.message_ids``)."""
    from ..transport.codec import message_ids
    return {f"{module}.{name}" for _mid, module, name in message_ids()}


def _collect_messages(module: Module,
                      messages: Set[str]) -> List[MessageClass]:
    aliases: Dict[str, ast.AST] = {}
    for node in module.tree.body:
        if isinstance(node, ast.Assign) and len(node.targets) == 1 \
                and isinstance(node.targets[0], ast.Name):
            aliases[node.targets[0].id] = node.value
    out: List[MessageClass] = []
    for node in module.tree.body:
        if not isinstance(node, ast.ClassDef):
            continue
        if f"{module.modname}.{node.name}" not in messages:
            continue
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
            fields, order, annotations))
    return out


class Project:
    """Every module of one analyzer run, plus cross-module facts.

    ``messages`` names the message classes (``module.Class``); by
    default, the classes of the wire codec's table."""

    def __init__(self, modules: Sequence[Module],
                 messages: Optional[Iterable[str]] = None):
        self.modules = list(modules)
        names = codec_messages() if messages is None else set(messages)
        self.message_classes: Dict[str, MessageClass] = {}
        self.message_by_name: Dict[str, List[MessageClass]] = {}
        for module in self.modules:
            for cls in _collect_messages(module, names):
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
    def from_paths(cls, paths: Sequence[str], root: Optional[Path] = None,
                   messages: Optional[Iterable[str]] = None) -> "Project":
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
        return cls(modules, messages)

    @classmethod
    def from_sources(cls, sources: Dict[str, str],
                     messages: Optional[Iterable[str]] = None) -> "Project":
        """Build from in-memory {relpath: source} (tests, self-check)."""
        modules = [Module(path, text, modname_for(path))
                   for path, text in sorted(sources.items())]
        return cls(modules, messages)


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
