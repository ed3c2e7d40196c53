"""The oracles stay independent: ``oracles.py`` imports no levysid code.

A reference that shares code with what it checks can agree with a fault
instead of catching it, so this reads the module's source with ``ast`` and
rejects every way of reaching the package: ``import levysid``,
``from levysid... import``, a relative import, and a module name passed as a
string to ``importlib.import_module`` or ``__import__``.
"""

import ast
from pathlib import Path

ORACLES = Path(__file__).with_name("oracles.py")


def _is_levysid(name):
    return name == "levysid" or name.startswith("levysid.")


def levysid_imports(source):
    """(line, what) of every reference to the levysid package in source."""
    found = []
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Import):
            found += [(node.lineno, a.name) for a in node.names if _is_levysid(a.name)]
        elif isinstance(node, ast.ImportFrom):
            if node.level or _is_levysid(node.module or ""):
                found.append((node.lineno, "." * node.level + (node.module or "")))
        elif (isinstance(node, ast.Constant) and isinstance(node.value, str)
              and _is_levysid(node.value)):
            found.append((node.lineno, repr(node.value)))
    return found


def test_oracles_import_no_levysid():
    assert levysid_imports(ORACLES.read_text()) == []


def test_every_import_form_is_caught():
    for line in ("import levysid", "import numpy, levysid.stable as s",
                 "from levysid import stable", "from levysid.expr import _walk",
                 "from . import stable",
                 "importlib.import_module('levysid.rng')", "__import__('levysid')"):
        assert levysid_imports(line) != [], line
    assert levysid_imports("import levysidx\nfrom math import pi") == []
