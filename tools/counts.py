"""Print the four size counts of the package: lines, module exports, package names, files.

Run from anywhere:

    python3 tools/counts.py

It reads the sources under ``src/`` with the standard library's ``ast``
alone, imports nothing from the package, and prints:

- the lines of every ``.py`` file under ``src/``;
- the module ``__all__`` names, summed over the modules of ``src/nomabeam/``
  other than ``__init__.py``;
- the package-level names: ``__init__.py``'s ``__all__`` if it has one, else
  the public names that it binds at its top level;
- the ``.py`` files under ``src/nomabeam/``.

It is not part of the test suite.
"""

from __future__ import annotations

import ast
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = ROOT / "src" / "nomabeam"


def exports(tree: ast.Module) -> list[str] | None:
    """The literal ``__all__`` of a module, or None where it has none."""
    for node in tree.body:
        if isinstance(node, ast.Assign) and any(isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets):
            return list(ast.literal_eval(node.value))
    return None


def bound_names(tree: ast.Module) -> set[str]:
    """The names that a module's top-level statements bind."""
    names = set()
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            names.add(node.name)
        elif isinstance(node, (ast.Import, ast.ImportFrom)):
            names.update((alias.asname or alias.name).split(".")[0] for alias in node.names)
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            names.update(n.id for t in targets for n in ast.walk(t) if isinstance(n, ast.Name))
    return names


def main() -> None:
    lines = sum(len(path.read_text(encoding="utf-8").splitlines()) for path in (ROOT / "src").rglob("*.py"))
    files = sorted(PACKAGE.rglob("*.py"))
    trees = {path.name: ast.parse(path.read_text(encoding="utf-8")) for path in files}
    init = trees.pop("__init__.py")
    module_names = sum(len(exports(tree) or []) for tree in trees.values())
    package_names = exports(init)
    if package_names is None:
        package_names = [name for name in bound_names(init) if not name.startswith("_")]
    print(f"src/ lines: {lines:,}")
    print(f"module __all__ names: {module_names}")
    print(f"package-level names: {len(package_names)}")
    print(f"files under src/nomabeam/: {len(files)}")


if __name__ == "__main__":
    main()
