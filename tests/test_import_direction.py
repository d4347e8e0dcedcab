"""Package imports point one way: front ends import the library, never back.

``repro.api`` (the service facade), ``repro.serving`` (the HTTP server)
and ``repro.cli`` sit on top of the library.  This test parses every
module under ``src/repro`` and resolves each ``import`` / ``from ...
import`` — relative or absolute, at module level or inside a function —
to the modules it names, then checks that

* no module outside those three front ends and the package root imports
  from any of them, and
* ``repro.api`` imports neither ``repro.serving`` nor ``repro.cli``.

A library module that reaches up into a front end closes an import
cycle through it (the front ends import the library).
"""

import ast
from pathlib import Path

import repro

PACKAGE_DIR = Path(repro.__file__).resolve().parent
FRONT_ENDS = ("repro.api", "repro.serving", "repro.cli")


def _within(name: str, package: str) -> bool:
    return name == package or name.startswith(package + ".")


def _modules():
    """``(dotted name, is package, source path)`` of every module."""

    for path in sorted(PACKAGE_DIR.rglob("*.py")):
        parts = ("repro",) + path.relative_to(PACKAGE_DIR).with_suffix("").parts
        is_package = parts[-1] == "__init__"
        if is_package:
            parts = parts[:-1]
        yield ".".join(parts), is_package, path


def _imported_names(module: str, is_package: bool, tree: ast.AST):
    """``(line, name)`` for every module an import statement may name.

    ``from X import y`` yields both ``X`` and ``X.y``: ``y`` may be a
    submodule, and over-reporting a plain name costs nothing here.
    """

    package = module if is_package else module.rpartition(".")[0]
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                yield node.lineno, alias.name
        elif isinstance(node, ast.ImportFrom):
            if node.level:
                parts = package.split(".")
                base = ".".join(parts[:len(parts) - (node.level - 1)])
                if node.module:
                    base = f"{base}.{node.module}"
            else:
                base = node.module
            yield node.lineno, base
            for alias in node.names:
                yield node.lineno, f"{base}.{alias.name}"


def _forbidden(module: str) -> tuple[str, ...]:
    """The front ends ``module`` must not import."""

    if _within(module, "repro.api"):
        return ("repro.serving", "repro.cli")
    if module == "repro" or any(_within(module, front)
                                for front in FRONT_ENDS):
        return ()
    return FRONT_ENDS


def test_relative_imports_resolve_to_absolute_names():
    tree = ast.parse("from ..api.service import X\nfrom .. import cli\n"
                     "from . import knn\nimport repro.serving.server\n")
    assert sorted({name for _, name in
                   _imported_names("repro.core.splits", False, tree)}) == [
        "repro", "repro.api.service", "repro.api.service.X", "repro.cli",
        "repro.core", "repro.core.knn", "repro.serving.server"]
    tree = ast.parse("from .knn import PackedDigestStore\n")
    assert [name for _, name in
            _imported_names("repro.index", True, tree)][0] == \
        "repro.index.knn"


def test_library_never_imports_a_front_end():
    modules = list(_modules())
    assert {"repro", "repro.api.service", "repro.cli", "repro.serving.server",
            "repro.index.core"} <= {module for module, _, _ in modules}
    violations = {}         # "file:line" -> first forbidden name
    for module, is_package, path in modules:
        forbidden = _forbidden(module)
        tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
        for line, name in _imported_names(module, is_package, tree):
            if any(_within(name, target) for target in forbidden):
                violations.setdefault(
                    f"{path.relative_to(PACKAGE_DIR)}:{line}", name)
    assert violations == {}
