"""The package holds no dead private name, no unused import and no export that
only tests read.

Every module-level private name of ``src/nomabeam`` (dunders excepted) must
be read somewhere in the package: in its own module, imported by name from
it, or reached as an attribute.  A deletion that leaves a helper, a constant
or a type alias behind with no reader fails here.  Every module-level import
must be read by its own module; ``__init__.py`` only re-exports names, and is
exempt.  Every name in a module's ``__all__`` must likewise be read by a
module of the package other than ``__init__.py``: test oracles live in
``tests/``, not in the library.  Every field of a package dataclass must be
read as an attribute by some package module: state that only tests read is
computed for nobody.
"""

import ast
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src" / "nomabeam"


def _defined(tree: ast.Module) -> set[str]:
    names = set()
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            names.add(node.name)
        elif isinstance(node, ast.Assign):
            names.update(t.id for t in node.targets if isinstance(t, ast.Name))
        elif isinstance(node, ast.AnnAssign) and isinstance(node.target, ast.Name):
            names.add(node.target.id)
    return {n for n in names if n.startswith("_") and not (n.startswith("__") and n.endswith("__"))}


def _read(tree: ast.Module) -> set[str]:
    return {n.id for n in ast.walk(tree) if isinstance(n, ast.Name) and not isinstance(n.ctx, ast.Store)}


def _imported(tree: ast.Module) -> set[tuple[str, str]]:
    """(module stem, name) of every relative ``from .module import name``."""
    return {
        ((node.module or "").split(".")[-1], alias.name)
        for node in ast.walk(tree)
        if isinstance(node, ast.ImportFrom)
        for alias in node.names
    }


def test_every_private_name_is_read():
    trees = {path.stem: ast.parse(path.read_text(encoding="utf-8")) for path in sorted(SRC.glob("*.py"))}
    attributes = {n.attr for tree in trees.values() for n in ast.walk(tree) if isinstance(n, ast.Attribute)}
    imported = set().union(*(_imported(tree) for tree in trees.values()))
    dead = [
        f"{stem}.{name}"
        for stem, tree in trees.items()
        for name in sorted(_defined(tree))
        if name not in _read(tree) and (stem, name) not in imported and name not in attributes
    ]
    assert dead == []


def _imports(tree: ast.Module) -> set[str]:
    """The names that the module-level imports of a module bind, ``__future__`` aside."""
    names = set()
    for node in tree.body:
        if isinstance(node, ast.Import):
            names.update(alias.asname or alias.name.split(".")[0] for alias in node.names)
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            names.update(alias.asname or alias.name for alias in node.names)
    return names


def test_every_import_is_read():
    unused = [
        f"{path.stem}.{name}"
        for path in sorted(SRC.glob("*.py"))
        if path.name != "__init__.py"
        for tree in [ast.parse(path.read_text(encoding="utf-8"))]
        for name in sorted(_imports(tree) - _read(tree))
    ]
    assert unused == []


# The one-trial entry point: the tests evaluate single drops through it, and
# an array draw must keep reproducing one trial alone through it.
_EXPORTS_READ_OUTSIDE = {("sim_harness", "evaluate_trial")}


def _exported(tree: ast.Module) -> set[str]:
    """The string entries of a module's ``__all__``."""
    return {
        element.value
        for node in tree.body
        if isinstance(node, ast.Assign) and any(isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets)
        for element in node.value.elts
    }


def test_every_exported_name_is_read():
    trees = {
        path.stem: ast.parse(path.read_text(encoding="utf-8"))
        for path in sorted(SRC.glob("*.py"))
        if path.name != "__init__.py"
    }
    attributes = {n.attr for tree in trees.values() for n in ast.walk(tree) if isinstance(n, ast.Attribute)}
    imported = set().union(*(_imported(tree) for tree in trees.values()))
    unread = [
        f"{stem}.{name}"
        for stem, tree in trees.items()
        for name in sorted(_exported(tree))
        if name not in _read(tree)
        and (stem, name) not in imported
        and name not in attributes
        and (stem, name) not in _EXPORTS_READ_OUTSIDE
    ]
    assert unread == []


def _is_dataclass(node: ast.ClassDef) -> bool:
    return any(
        isinstance(target, ast.Name) and target.id == "dataclass"
        for decorator in node.decorator_list
        for target in [decorator.func if isinstance(decorator, ast.Call) else decorator]
    )


def test_every_dataclass_field_is_read():
    trees = {path.stem: ast.parse(path.read_text(encoding="utf-8")) for path in sorted(SRC.glob("*.py"))}
    read = {
        n.attr
        for tree in trees.values()
        for n in ast.walk(tree)
        if isinstance(n, ast.Attribute) and isinstance(n.ctx, ast.Load)
    }
    unread = [
        f"{stem}.{node.name}.{field.target.id}"
        for stem, tree in trees.items()
        for node in tree.body
        if isinstance(node, ast.ClassDef) and _is_dataclass(node)
        for field in node.body
        if isinstance(field, ast.AnnAssign) and isinstance(field.target, ast.Name)
        and field.target.id not in read
    ]
    assert unread == []
