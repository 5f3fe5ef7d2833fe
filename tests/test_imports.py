"""Each module of the package uses only the public names of the others."""

import ast
from pathlib import Path

import pytest

PACKAGE = Path(__file__).resolve().parents[1] / "src" / "wqsc"
MODULES = sorted(PACKAGE.glob("*.py"))


def private_imports(source: str) -> list[str]:
    """The ``_``-prefixed names that ``source`` imports from a sibling module."""
    return [
        alias.name
        for node in ast.walk(ast.parse(source))
        if isinstance(node, ast.ImportFrom) and node.level > 0
        for alias in node.names
        if alias.name.startswith("_")
    ]


def test_every_module_is_walked():
    assert {"bell.py", "golden.py", "protocol.py", "cli.py"} <= {path.name for path in MODULES}


@pytest.mark.parametrize("path", MODULES, ids=lambda path: path.stem)
def test_no_module_imports_a_private_name_of_another(path):
    assert private_imports(path.read_text(encoding="utf-8")) == []


def test_a_private_relative_import_is_caught():
    source = "from .bell import ALL_AXIS_SETS, _QKD_SET_INDEX\nfrom numpy import _pytesttester\n"
    assert private_imports(source) == ["_QKD_SET_INDEX"]
