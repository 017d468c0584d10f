"""Modules that call themselves sans-io import no simulator, no transport.

A module makes the claim in the first paragraph of its docstring or in
the first line of a class docstring.  What it may not import is the
machinery that makes time pass and bytes move: the event loop, the
network, the actor shell, the simulation runtime and any transport.
"""

import ast
import pathlib

import pytest

import repro

ROOT = pathlib.Path(repro.__file__).parent
FORBIDDEN = ("repro.sim.events", "repro.sim.network", "repro.sim.actor",
             "repro.sim.runtime", "repro.transport")


def claims_sans_io(tree: ast.Module) -> bool:
    headline = (ast.get_docstring(tree) or "").split("\n\n")[0]
    if "sans-io" in headline:
        return True
    return any("sans-io" in (ast.get_docstring(node) or "").split("\n")[0]
               for node in tree.body if isinstance(node, ast.ClassDef))


def imported_modules(path: pathlib.Path, tree: ast.Module):
    """Absolute names of everything ``path`` imports, anywhere in it
    (``repro.sim`` itself counts as its ``__init__``'s imports do)."""
    package = ("repro",) + path.relative_to(ROOT).parts[:-1]
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                yield alias.name
        elif isinstance(node, ast.ImportFrom):
            base = list(package[:len(package) - node.level + 1]) \
                if node.level else []
            module = ".".join(base + ([node.module] if node.module else []))
            yield module
            for alias in node.names:
                yield f"{module}.{alias.name}"


SANS_IO = sorted(
    path for path in ROOT.rglob("*.py")
    if claims_sans_io(ast.parse(path.read_text())))


def test_the_dc_machines_make_the_claim():
    names = {str(path.relative_to(ROOT)) for path in SANS_IO}
    assert {"dc/commitlog.py", "dc/replog.py", "dc/twopc.py",
            "dc/stability.py", "dc/interest.py", "dc/fanout.py"} <= names
    assert "dc/datacenter.py" not in names      # the wiring is an Actor


def test_the_group_machines_make_the_claim():
    names = {str(path.relative_to(ROOT)) for path in SANS_IO}
    assert {"groups/ordering.py", "epaxos/replica.py",
            "epaxos/tiga.py"} <= names
    assert "groups/peergroup.py" not in names   # the wiring is an Actor


def test_the_edge_machines_make_the_claim():
    names = {str(path.relative_to(ROOT)) for path in SANS_IO}
    assert "edge/replica.py" in names
    # The wiring around the log and the frontier is Actors.
    assert not {"edge/node.py", "edge/pop.py",
                "groups/peergroup.py"} & names


@pytest.mark.parametrize(
    "path", SANS_IO, ids=[str(p.relative_to(ROOT)) for p in SANS_IO])
def test_sans_io_module_imports_no_simulator_or_transport(path):
    tree = ast.parse(path.read_text())
    offending = sorted(
        name for name in set(imported_modules(path, tree))
        if name == "repro.sim"
        or any(name == bad or name.startswith(bad + ".")
               for bad in FORBIDDEN))
    assert not offending, offending
