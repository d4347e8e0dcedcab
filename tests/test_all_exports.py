"""Every name a module lists in ``__all__`` resolves on that module.

This test imports every module under ``src/repro`` and checks each
``__all__`` entry with ``getattr``.  A stale entry — a name the module
no longer defines — makes ``from module import *`` raise and advertises
an API that is gone; nothing else would catch it, because no code
imports a deleted name by its ``__all__`` entry.
"""

import importlib
import pkgutil
import types

import repro


def _unresolved(module: types.ModuleType) -> list[str]:
    return [name for name in getattr(module, "__all__", ())
            if not hasattr(module, name)]


def test_check_sees_a_stale_entry():
    module = types.ModuleType("fake")
    module.kept = object()
    module.__all__ = ["kept", "deleted"]
    assert _unresolved(module) == ["deleted"]


def test_every_all_entry_resolves():
    modules = [repro] + [
        importlib.import_module(info.name)
        for info in pkgutil.walk_packages(repro.__path__, prefix="repro.")]
    declaring = [module for module in modules if hasattr(module, "__all__")]
    assert len(declaring) > 50
    stale = {module.__name__: _unresolved(module) for module in declaring
             if _unresolved(module)}
    assert stale == {}
