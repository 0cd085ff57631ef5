"""The analytic oracles stay independent of the library code they check.

``oracles.py`` may take nomabeam's data classes as inputs, but it must not
call a nomabeam function: an oracle built on the code under test agrees
with that code by construction.
"""

import ast
import importlib
import inspect
from pathlib import Path

ORACLES = Path(__file__).with_name("oracles.py")


def test_oracles_import_only_classes_from_nomabeam():
    tree = ast.parse(ORACLES.read_text(encoding="utf-8"))
    imported = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            # a bare module import would reach every function in it
            assert not any(alias.name.split(".")[0] == "nomabeam" for alias in node.names)
        elif isinstance(node, ast.ImportFrom) and (node.module or "").split(".")[0] == "nomabeam":
            module = importlib.import_module(node.module)
            for alias in node.names:
                value = getattr(module, alias.name, None)
                assert inspect.isclass(value), f"oracles.py imports {node.module}.{alias.name}, not a class"
                imported.append(alias.name)
    assert imported, "oracles.py no longer imports the nomabeam classes it takes as inputs"
