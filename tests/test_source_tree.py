"""The package holds no dead private name, no unused import and no export that
only tests read.

Every module-level private name of ``src/nomabeam`` (dunders excepted) must
be read somewhere in the package: in its own module, imported by name from
it, or reached as an attribute.  A deletion that leaves a helper, a constant
or a type alias behind with no reader fails here.  Every module-level import
must be read by its own module, ``__init__.py`` included: the package
re-exports nothing, and a re-export that creeps back fails here.  Every name
in a module's ``__all__`` must be read by another module of the package than
its own and ``__init__.py``, imported by name from it or reached as an
attribute: a name that only its own module and the tests read is private,
and test oracles live in ``tests/``, not in the library.  The few exports
read from outside the package alone are listed, each with its reason.  Every field of a package dataclass or
``NamedTuple`` must be read as an attribute, by name, by some package module:
state that only tests read is computed for nobody.  Each config value has one
record: no package dataclass or ``NamedTuple`` other than ``ScenarioConfig``
declares a field that ``ScenarioConfig`` declares, so a second record that
copies the scenario's values (and skips its checks) fails here.
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
        for tree in [ast.parse(path.read_text(encoding="utf-8"))]
        for name in sorted(_imports(tree) - _read(tree))
    ]
    assert unused == []


# Exports that no other package module reads, each for its reason.
_EXPORTS_READ_OUTSIDE = {
    # The one-trial entry point: the tests evaluate single drops through it,
    # and an array draw must keep reproducing one trial alone through it.
    ("sim_harness", "evaluate_trial"),
    # The type of what run_sweep and evaluate_trial return, one per (scheme, K).
    ("sim_harness", "Columns"),
    # The codes of opa's second result, which a caller compares against.
    ("power_allocation", "Branch"),
}


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
    unread = []
    for stem, tree in trees.items():
        others = [other for other_stem, other in trees.items() if other_stem != stem]
        attributes = {n.attr for other in others for n in ast.walk(other) if isinstance(n, ast.Attribute)}
        imported = set().union(*map(_imported, others))
        unread += [
            f"{stem}.{name}"
            for name in sorted(_exported(tree))
            if (stem, name) not in imported and name not in attributes and (stem, name) not in _EXPORTS_READ_OUTSIDE
        ]
    assert unread == []


def _is_record(node: ast.ClassDef) -> bool:
    """Whether a class is a dataclass or a ``NamedTuple``, whose fields are its annotated names."""
    return any(
        isinstance(target, ast.Name) and target.id == "dataclass"
        for decorator in node.decorator_list
        for target in [decorator.func if isinstance(decorator, ast.Call) else decorator]
    ) or any(isinstance(base, ast.Name) and base.id == "NamedTuple" for base in node.bases)


def _record_fields(tree: ast.Module) -> dict[str, list[str]]:
    """The field names of each dataclass and ``NamedTuple`` that a module defines, by class name."""
    return {
        node.name: [
            field.target.id
            for field in node.body
            if isinstance(field, ast.AnnAssign) and isinstance(field.target, ast.Name)
        ]
        for node in tree.body
        if isinstance(node, ast.ClassDef) and _is_record(node)
    }


def test_every_config_value_has_one_record():
    records = {
        f"{path.stem}.{name}": names
        for path in sorted(SRC.glob("*.py"))
        for name, names in _record_fields(ast.parse(path.read_text(encoding="utf-8"))).items()
    }
    scenario = set(records.pop("sim_harness.ScenarioConfig"))
    copies = [f"{record}.{name}" for record, names in records.items() for name in names if name in scenario]
    assert copies == []


def test_every_dataclass_field_is_read():
    trees = {path.stem: ast.parse(path.read_text(encoding="utf-8")) for path in sorted(SRC.glob("*.py"))}
    read = {
        n.attr
        for tree in trees.values()
        for n in ast.walk(tree)
        if isinstance(n, ast.Attribute) and isinstance(n.ctx, ast.Load)
    }
    unread = [
        f"{stem}.{record}.{name}"
        for stem, tree in trees.items()
        for record, names in _record_fields(tree).items()
        for name in names
        if name not in read
    ]
    assert unread == []
