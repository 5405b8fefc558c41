"""Module boundaries inside the package."""

import ast
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

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


def _unused_imports(path):
    """Every name the file imports and never reads, in import order;
    ``from __future__ import annotations`` is a compiler directive, not a name."""
    tree = ast.parse(path.read_text(encoding="utf-8"))
    imported = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            imported += [alias.asname or alias.name.split(".")[0] for alias in node.names]
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            imported += [alias.asname or alias.name for alias in node.names]
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return [name for name in imported if name not in used]


def test_every_imported_name_is_used():
    unused = {path.name: _unused_imports(path) for path in sorted(PACKAGE.glob("*.py"))}
    assert {name: found for name, found in unused.items() if found} == {}


def test_the_scan_sees_an_unused_import(tmp_path):
    source = tmp_path / "mod.py"
    source.write_text("from __future__ import annotations\n"
                      "import math\n"
                      "import os.path\n"
                      "from fractions import Fraction as F\n"
                      "from .rings import divisors, moebius\n"
                      "def f(n) -> F:\n"
                      "    return os.path.join(str(moebius(n)))\n")
    assert _unused_imports(source) == ["math", "divisors"]


# ---------------------------------------------------------------------------
# what a fresh process loads

HEAVY_LAYERS = {"polysplit.applications", "polysplit.plethysm", "polysplit.polysym"}


def _fresh_run(tmp_path, code):
    """The polysplit modules loaded in a fresh interpreter after code runs,
    with the value code leaves in ``result``."""
    script = (code + "\nimport json, sys\n"
              "print(json.dumps([result, sorted(m for m in sys.modules"
              " if m.split('.')[0] == 'polysplit')]))")
    env = dict(os.environ, PYTHONPATH=str(PACKAGE.parent), POLYSPLIT_CACHE_DIR=str(tmp_path))
    proc = subprocess.run([sys.executable, "-c", script], env=env, capture_output=True,
                          text=True, timeout=120, check=True)
    result, modules = json.loads(proc.stdout.splitlines()[-1])
    return result, set(modules)


def test_importing_the_cli_loads_no_layer(tmp_path):
    assert _fresh_run(tmp_path, "import polysplit.cli\nresult = None")[1] == {
        "polysplit", "polysplit.cli"}


@pytest.mark.parametrize("argv", [
    ["arr", "table", "--degree", "3", "--tag", "a"],
    ["verify", "appendix", "--max-degree", "3"],
])
def test_table_commands_load_no_plethysm_polysym_or_applications(tmp_path, argv):
    code, modules = _fresh_run(tmp_path, "import polysplit.cli\n"
                                         "result = polysplit.cli.main(%r)" % (argv,))
    assert code == 0
    assert "polysplit.arrangements" in modules
    assert not modules & HEAVY_LAYERS
