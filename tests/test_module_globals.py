"""Every global name a ``repro`` function loads must resolve.

Python looks up a function's global names only when the line runs, so a
missing import stays hidden until that branch executes -- a rarely taken
path then fails with ``NameError``.  This walks the bytecode of every
``repro.*`` module and checks each ``LOAD_GLOBAL`` against the module's
namespace and the builtins (the check ruff's F821 makes statically).
"""

from __future__ import annotations

import builtins
import dis
import importlib
import importlib.util
import pkgutil
import types
from collections.abc import Iterator

import repro


def _module_names() -> list[str]:
    return ["repro"] + [
        info.name for info in pkgutil.walk_packages(repro.__path__, "repro.")
    ]


def _code_objects(code: types.CodeType) -> Iterator[types.CodeType]:
    yield code
    for const in code.co_consts:
        if isinstance(const, types.CodeType):
            yield from _code_objects(const)


def _unresolved_globals(name: str) -> set[tuple[str, str]]:
    """``(function, name)`` pairs whose global lookup would fail."""
    module = importlib.import_module(name)
    spec = importlib.util.find_spec(name)
    assert spec is not None and spec.loader is not None
    code = spec.loader.get_code(name)  # type: ignore[attr-defined]
    known = vars(module).keys() | vars(builtins).keys()
    missing: set[tuple[str, str]] = set()
    for sub in _code_objects(code):
        for instr in dis.get_instructions(sub):
            if instr.opname == "LOAD_GLOBAL" and instr.argval not in known:
                missing.add((sub.co_name, instr.argval))
    return missing


def test_every_module_is_walked():
    names = _module_names()
    assert "repro.flow.bipartite" in names
    assert "repro.serve.engine" in names


def test_every_loaded_global_resolves():
    missing = {
        name: sorted(found)
        for name in _module_names()
        if (found := _unresolved_globals(name))
    }
    assert missing == {}
