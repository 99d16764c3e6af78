"""Load every script under ``examples/``.

Each example guards its ``main()`` behind ``if __name__ == "__main__"``,
so running it under another name only executes its imports and
definitions: cheap, yet enough to catch an example that imports a name
the library no longer exports.
"""

from __future__ import annotations

import runpy
from pathlib import Path

import pytest

EXAMPLES = sorted((Path(__file__).resolve().parents[1] / "examples").glob("*.py"))


@pytest.mark.parametrize("path", EXAMPLES, ids=lambda p: p.name)
def test_example_loads(path):
    namespace = runpy.run_path(str(path), run_name="examples_smoke")
    assert callable(namespace.get("main")), f"{path.name} defines no main()"
