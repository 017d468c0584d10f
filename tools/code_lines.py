"""Count code lines: non-blank lines outside comments and docstrings.

Every size ledger in this repository (CHANGES, ISSUE acceptance
criteria) is stated in this unit.  A line counts when some token other
than a comment, a newline, an indent or a docstring starts or runs on
it.  A docstring is a string literal that is the whole first statement
of a module, class or function body.

Usage::

    python tools/code_lines.py [ROOT ...]      # default: src/repro

Prints one line per package directly under each root (files at the
root itself are counted under ``.``) and a total per root.
"""

from __future__ import annotations

import ast
import io
import sys
import tokenize
from collections import defaultdict
from pathlib import Path
from typing import Dict, Iterable, Set

_SKIP = {tokenize.COMMENT, tokenize.NL, tokenize.NEWLINE, tokenize.INDENT,
         tokenize.DEDENT, tokenize.ENCODING, tokenize.ENDMARKER}


def _docstring_lines(tree: ast.AST) -> Set[int]:
    lines: Set[int] = set()
    for node in ast.walk(tree):
        if isinstance(node, (ast.Module, ast.ClassDef, ast.FunctionDef,
                             ast.AsyncFunctionDef)) and node.body:
            first = node.body[0]
            if isinstance(first, ast.Expr) \
                    and isinstance(first.value, ast.Constant) \
                    and isinstance(first.value.value, str):
                lines.update(range(first.lineno, first.end_lineno + 1))
    return lines


def count_source(source: str) -> int:
    """The code lines of one module's source text."""
    docstrings = _docstring_lines(ast.parse(source))
    code: Set[int] = set()
    for token in tokenize.generate_tokens(io.StringIO(source).readline):
        if token.type in _SKIP or token.start[0] in docstrings:
            continue
        code.update(range(token.start[0], token.end[0] + 1))
    return len(code)


def count_tree(root: Path) -> Dict[str, int]:
    """Code lines per package directly under ``root``."""
    counts: Dict[str, int] = defaultdict(int)
    for path in sorted(root.rglob("*.py")):
        parts = path.relative_to(root).parts
        package = parts[0] if len(parts) > 1 else "."
        counts[package] += count_source(path.read_text(encoding="utf-8"))
    return dict(counts)


def main(roots: Iterable[str]) -> None:
    for root in roots:
        counts = count_tree(Path(root))
        for package, lines in sorted(counts.items()):
            print(f"{root}/{package}\t{lines}")
        print(f"{root} total\t{sum(counts.values())}")


if __name__ == "__main__":
    main(sys.argv[1:] or ["src/repro"])
