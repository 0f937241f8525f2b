"""Every imported name is read.

An AST scan of the library, the tests and the scripts: a name that an
import binds must be read somewhere in its module, as a name, as the
base of an attribute, or as a string in `__all__`.  The package's
`__init__.py` re-exports what it imports, and `from __future__` binds
nothing, so neither is scanned.
"""

import ast
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
PACKAGE_INIT = ROOT / "src" / "zgcentral" / "__init__.py"
MODULES = sorted(
    path
    for folder in ("src/zgcentral", "tests", "scripts")
    for path in (ROOT / folder).rglob("*.py")
    if path != PACKAGE_INIT
)


def unread_imports(source):
    """The names that `source`'s imports bind and that it never reads."""
    tree = ast.parse(source)
    bound, read = set(), set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            bound |= {a.asname or a.name.split(".")[0] for a in node.names}
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            bound |= {a.asname or a.name for a in node.names}
        elif isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
            read.add(node.id)
        elif isinstance(node, ast.Assign) and any(
            isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets
        ):
            read |= {c.value for c in ast.walk(node.value) if isinstance(c, ast.Constant)}
    return sorted(bound - read)


def test_the_scan_sees_every_kind_of_read():
    source = (
        "from __future__ import annotations\n"
        "import os.path\n"
        "import numpy as np\n"
        "from a import b, c as d, e, f\n"
        "__all__ = ['e']\n"
        "x = np.zeros(1)\n"
        "def g(y: b) -> None:\n"
        "    return os.path.join(y)\n"
    )
    assert unread_imports(source) == ["d", "f"]


@pytest.mark.parametrize("path", MODULES, ids=lambda p: str(p.relative_to(ROOT)))
def test_every_imported_name_is_read(path):
    assert unread_imports(path.read_text(encoding="utf-8")) == []
