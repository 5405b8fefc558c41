"""Module boundaries inside the package."""

import ast
from pathlib import Path

import polysplit

PACKAGE = Path(polysplit.__file__).parent


def _private_imports(path):
    """(module, name) for every underscore-prefixed name that the file
    imports from another polysplit module."""
    found = []
    for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
        if not isinstance(node, ast.ImportFrom):
            continue
        inside = node.level > 0 or (node.module or "").split(".")[0] == "polysplit"
        if inside:
            found += [(node.module, alias.name) for alias in node.names
                      if alias.name.startswith("_")]
    return found


def test_no_module_imports_another_modules_private_names():
    offenders = {path.name: _private_imports(path) for path in sorted(PACKAGE.glob("*.py"))}
    assert {name: found for name, found in offenders.items() if found} == {}


def test_the_scan_sees_a_private_import(tmp_path):
    source = tmp_path / "mod.py"
    source.write_text("from .arrangements import MAX_TABLE_DEGREE, _inverse_row\n"
                      "from polysplit.rings import _ZERO\n"
                      "from os import _exit\n")
    assert _private_imports(source) == [("arrangements", "_inverse_row"),
                                        ("polysplit.rings", "_ZERO")]
