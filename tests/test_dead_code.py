"""Every function, method and class defined in ``src/`` has a caller.

A definition is used when its name appears, outside its own definition,
in the code under ``src/``, ``benchmarks/``, ``examples/``,
``perfbench/`` or ``scripts/``: as a name, an attribute, an imported
name, or a string literal that spells it (``__all__`` entries, span and
attribute tables).  A method is reached only through an attribute, an
import alias or a string literal: a bare name (a local variable, say)
that spells it does not count.  Docstrings, comments and ``tests/`` do
not count: a helper that only tests reach is deleted, not kept.

Dunder methods and route handlers (registered by ``@route(...)``) are
skipped by rule.  :data:`ALLOWED` lists the other exceptions, each with
its reason.
"""

from __future__ import annotations

import ast
import functools
import re
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
SCANNED = ("src", "benchmarks", "examples", "perfbench", "scripts")

#: (file under ``src/``, qualified name) -> why it stays unreferenced.
ALLOWED = {
    ("repro/web/server.py", "_make_handler.Handler.do_GET"):
        "BaseHTTPRequestHandler calls it by name",
    ("repro/web/server.py", "_make_handler.Handler.do_POST"):
        "BaseHTTPRequestHandler calls it by name",
    ("repro/web/server.py", "_make_handler.Handler.do_PATCH"):
        "BaseHTTPRequestHandler calls it by name",
    ("repro/web/server.py", "_make_handler.Handler.do_DELETE"):
        "BaseHTTPRequestHandler calls it by name",
    ("repro/web/server.py", "_make_handler.Handler.log_message"):
        "BaseHTTPRequestHandler hook, overridden to keep the server quiet",
    ("repro/web/server.py", "_make_handler.Handler.parse_request"):
        "BaseHTTPRequestHandler hook, overridden to read the header block "
        "with read_headers",
    ("repro/text/naive_bayes.py", "NaiveBayesClassifier.log_odds_matrix"):
        "the probe the sparse-kernel oracle compares with a dense reference",
    ("repro/db/query.py", "Query.where_in"):
        "the structured IN filter the planner property tests drive "
        "against _run_naive",
}

_DEFS = (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)
_IDENTIFIERS = re.compile(r"[A-Za-z_][\w.]*")


def _is_route(decorator: ast.expr) -> bool:
    func = decorator.func if isinstance(decorator, ast.Call) else None
    return getattr(func, "id", getattr(func, "attr", None)) == "route"


def _docstrings(tree: ast.Module) -> set[int]:
    found = set()
    for node in ast.walk(tree):
        if isinstance(node, (ast.Module, *_DEFS)) and node.body:
            first = node.body[0]
            if (isinstance(first, ast.Expr)
                    and isinstance(first.value, ast.Constant)
                    and isinstance(first.value.value, str)):
                found.add(id(first.value))
    return found


def _references(tree: ast.Module) -> list[tuple[str, int, bool]]:
    """(name, line, bare) for every identifier the module's code spells;
    ``bare`` marks a plain name, which cannot reach a method."""
    docstrings = _docstrings(tree)
    refs = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            refs.append((node.id, node.lineno, True))
        elif isinstance(node, ast.Attribute):
            refs.append((node.attr, node.end_lineno, False))
        elif isinstance(node, ast.alias):
            refs.append((node.name.rpartition(".")[2], node.lineno, False))
        elif (isinstance(node, ast.Constant) and isinstance(node.value, str)
              and id(node) not in docstrings
              and _IDENTIFIERS.fullmatch(node.value)):
            refs += [(part, node.lineno, False)
                     for part in node.value.split(".")]
    return refs


def _definitions(tree: ast.AST, prefix: str = "", in_class: bool = False):
    """(qualified name, node, is a method) for every def/class, nested
    ones too."""
    for node in ast.iter_child_nodes(tree):
        if isinstance(node, _DEFS):
            qualname = prefix + node.name
            is_class = isinstance(node, ast.ClassDef)
            yield qualname, node, in_class and not is_class
            yield from _definitions(node, qualname + ".", is_class)
        else:
            yield from _definitions(node, prefix, in_class)


@functools.cache
def _unreferenced() -> dict[tuple[str, str], int]:
    """(file, qualified name) -> line of each definition nothing names."""
    refs: dict[Path, list[tuple[str, int, bool]]] = {}
    defs = []
    for top in SCANNED:
        for path in sorted((ROOT / top).rglob("*.py")):
            tree = ast.parse(path.read_text(), str(path))
            refs[path] = _references(tree)
            if top == "src":
                defs += [(path, *d) for d in _definitions(tree)]
    by_name: dict[str, list[tuple[Path, int, bool]]] = {}
    for path, names in refs.items():
        for name, line, bare in names:
            by_name.setdefault(name, []).append((path, line, bare))
    dead = {}
    for path, qualname, node, method in defs:
        name = node.name
        if name.startswith("__") and name.endswith("__"):
            continue
        if any(_is_route(d) for d in node.decorator_list):
            continue
        first = min([node.lineno] + [d.lineno for d in node.decorator_list])
        if not any(
            (ref_path != path or not first <= line <= node.end_lineno)
            and not (method and bare)
            for ref_path, line, bare in by_name.get(name, ())
        ):
            dead[str(path.relative_to(SRC)), qualname] = node.lineno
    return dead


def test_every_src_definition_is_referenced():
    dead = _unreferenced()
    unexplained = sorted(
        f"src/{path}:{line} {qualname}"
        for (path, qualname), line in dead.items()
        if (path, qualname) not in ALLOWED
    )
    assert unexplained == [], (
        "defined in src/ but named nowhere outside tests/ "
        "(delete it, or give it a caller):\n" + "\n".join(unexplained)
    )


def test_allow_list_is_current():
    """Every allowed entry still exists and is still unreferenced."""
    assert sorted(set(ALLOWED) - set(_unreferenced())) == []
