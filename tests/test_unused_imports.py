"""Every name a module imports is used in that module.

This test parses every module under ``src/repro`` and checks that each
name an ``import`` / ``from ... import`` binds — at module level or
inside a function — appears as a ``Name`` somewhere in the module
(``np.zeros`` uses ``np``).  Names inside string annotations
(``"Callable | None"``) count as used.  Exempt are ``from __future__``
imports, the package ``__init__.py`` files (their imports are the
re-exported API) and names a module lists in ``__all__``.

An unused import is dead code a reader has to rule out: it claims a
dependency the module does not have.
"""

import ast
from pathlib import Path

import repro

PACKAGE_DIR = Path(repro.__file__).resolve().parent


def _bound_names(tree: ast.AST):
    """``(line, name)`` for every name an import statement binds."""

    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                yield node.lineno, alias.asname or alias.name.split(".")[0]
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                yield node.lineno, alias.asname or alias.name


def _annotations(tree: ast.AST):
    for node in ast.walk(tree):
        if isinstance(node, ast.arg):
            yield node.annotation
        elif isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            yield node.returns
        elif isinstance(node, ast.AnnAssign):
            yield node.annotation


def _used_names(tree: ast.AST) -> set[str]:
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    for annotation in _annotations(tree):
        for node in ast.walk(annotation or ast.Pass()):
            if isinstance(node, ast.Constant) and isinstance(node.value, str):
                try:
                    used |= _used_names(ast.parse(node.value, mode="eval"))
                except SyntaxError:
                    pass
    return used


def _exported_names(tree: ast.AST) -> set[str]:
    for node in tree.body:
        if isinstance(node, ast.Assign) and any(
                isinstance(target, ast.Name) and target.id == "__all__"
                for target in node.targets):
            return set(ast.literal_eval(node.value))
    return set()


def _unused(source: str) -> list[tuple[int, str]]:
    tree = ast.parse(source)
    used = _used_names(tree) | _exported_names(tree)
    return [(line, name) for line, name in _bound_names(tree)
            if name not in used]


def test_scan_sees_attribute_roots_string_annotations_and_all():
    source = ("from __future__ import annotations\n"
              "import os.path\nimport numpy as np\n"
              "from typing import Callable, Mapping, Sequence\n"
              "from .x import exported, dead\n"
              "__all__ = ['exported']\n"
              "def f(a: 'Callable | None') -> int:\n"
              "    return np.zeros(os.path.sep)\n")
    assert _unused(source) == [(4, "Mapping"), (4, "Sequence"), (5, "dead")]


def test_every_imported_name_is_used():
    modules = sorted(path for path in PACKAGE_DIR.rglob("*.py")
                     if path.name != "__init__.py")
    assert len(modules) > 50
    unused = {}             # "file:line" -> unused names
    for path in modules:
        for line, name in _unused(path.read_text(encoding="utf-8")):
            unused.setdefault(f"{path.relative_to(PACKAGE_DIR)}:{line}",
                              []).append(name)
    assert unused == {}
