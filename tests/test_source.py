"""Guards against dead code in ``src/dqlocus``, read with the stdlib ``ast``.

A name a module imports must be read in that module, and so must a
module-level ``_private`` name the module defines: a refactor that stops
using one leaves it behind, and these tests name it. A name counts as read
where it is loaded, including inside a string annotation such as
``"list[str]"``.
"""

from __future__ import annotations

import ast
from pathlib import Path

import pytest

SOURCE = Path(__file__).resolve().parents[1] / "src" / "dqlocus"
MODULES = sorted(SOURCE.glob("*.py"))


def _annotations(tree: ast.Module) -> list[ast.expr]:
    """Every annotation of a parameter, a return or an annotated assignment."""
    found: list[ast.expr | None] = []
    for node in ast.walk(tree):
        if isinstance(node, ast.arg):
            found.append(node.annotation)
        elif isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            found.append(node.returns)
        elif isinstance(node, ast.AnnAssign):
            found.append(node.annotation)
    return [a for a in found if a is not None]


def _loaded(node: ast.AST) -> set[str]:
    """The names loaded in ``node``."""
    return {n.id for n in ast.walk(node) if isinstance(n, ast.Name) and isinstance(n.ctx, ast.Load)}


def read_names(tree: ast.Module) -> set[str]:
    """The names the module reads anywhere, string annotations included."""
    names = _loaded(tree)
    for annotation in _annotations(tree):
        for node in ast.walk(annotation):
            if isinstance(node, ast.Constant) and isinstance(node.value, str):
                names |= _loaded(ast.parse(node.value, mode="eval"))
    return names


def imported_names(tree: ast.Module) -> set[str]:
    """The names the module's imports bind, but ``from __future__``'s."""
    names = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            names |= {(alias.asname or alias.name).partition(".")[0] for alias in node.names}
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            names |= {alias.asname or alias.name for alias in node.names}
    return names


def private_module_names(tree: ast.Module) -> set[str]:
    """The ``_private`` names the module's top-level statements define."""
    names = set()
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            names.add(node.name)
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            names |= {n.id for t in targets for n in ast.walk(t) if isinstance(n, ast.Name)}
    return {name for name in names if name.startswith("_") and not name.startswith("__")}


def parse(path: Path) -> ast.Module:
    return ast.parse(path.read_text(encoding="utf-8"), filename=str(path))


def test_the_guard_finds_the_modules():
    assert {path.name for path in MODULES} >= {"assess.py", "errors.py", "ingest.py", "notation.py", "taxonomy.py"}


@pytest.mark.parametrize("path", MODULES, ids=lambda path: path.name)
def test_every_imported_name_is_read(path):
    tree = parse(path)
    assert sorted(imported_names(tree) - read_names(tree)) == []


@pytest.mark.parametrize("path", MODULES, ids=lambda path: path.name)
def test_every_private_module_name_is_read_in_its_module(path):
    tree = parse(path)
    assert sorted(private_module_names(tree) - read_names(tree)) == []


def test_the_guard_reads_string_annotations_and_catches_what_goes_unread():
    tree = ast.parse(
        "from functools import cached_property\n"
        "from typing import Callable\n"
        "from .errors import Reader, read_object\n"
        "_TABLE = {}\n"
        "_used = 1\n"
        "def _helper(x: 'Reader | None') -> 'list[Callable[[], int]]':\n"
        "    return _used\n"
    )
    assert imported_names(tree) - read_names(tree) == {"cached_property", "read_object"}
    assert private_module_names(tree) - read_names(tree) == {"_TABLE", "_helper"}
