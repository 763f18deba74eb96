"""A guard against dead code in the package, read with ast alone.

It fails when a module of src/blockfunctor imports a name that the
module never uses (a name listed in the module's __all__ counts as used),
and when a private function, class or method, one whose name starts with
a single underscore, is referenced nowhere in src/blockfunctor outside
its own definition.  A reference is a name or an attribute with that
name; tests and docstrings do not count.  It also fails when a module
imports a private name of another module of the package: what more than
one module reads is public.
"""

import ast
import pathlib

import pytest

PACKAGE = pathlib.Path(__file__).resolve().parent.parent / "src" / "blockfunctor"
MODULES = sorted(PACKAGE.glob("*.py"))


def parse(path):
    return ast.parse(path.read_text(), filename=str(path))


def exported(tree) -> set:
    """The names listed in the module's __all__."""
    for node in tree.body:
        if isinstance(node, ast.Assign) and any(
            isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets
        ):
            return {elt.value for elt in node.value.elts}
    return set()


def imported_names(tree):
    """(name bound by an import, line) for every import but __future__."""
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                yield (alias.asname or alias.name.split(".")[0]), node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                yield alias.asname or alias.name, node.lineno


def referenced_names(tree):
    """The nodes that refer to a name: names and attributes."""
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            yield node, node.id
        elif isinstance(node, ast.Attribute):
            yield node, node.attr


@pytest.mark.parametrize("path", MODULES, ids=[m.stem for m in MODULES])
def test_every_import_is_used(path):
    tree = parse(path)
    used = {name for node, name in referenced_names(tree) if isinstance(node, ast.Name)}
    used |= exported(tree)
    unused = [f"{name} (line {line})" for name, line in imported_names(tree) if name not in used]
    assert not unused, f"{path.name} imports names it never uses: {', '.join(unused)}"


def private_definitions(tree):
    for node in ast.walk(tree):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            name = node.name
            if name.startswith("_") and not name.startswith("__"):
                yield node


def test_every_private_definition_is_referenced():
    trees = {path.name: parse(path) for path in MODULES}
    references = [
        (node, name) for tree in trees.values() for node, name in referenced_names(tree)
    ]
    dead = []
    for module, tree in trees.items():
        for definition in private_definitions(tree):
            inside = {id(node) for node in ast.walk(definition)}
            if not any(
                name == definition.name and id(node) not in inside
                for node, name in references
            ):
                dead.append(f"{module}: {definition.name} (line {definition.lineno})")
    assert not dead, f"private definitions referenced nowhere: {', '.join(dead)}"


def test_no_module_imports_a_private_name_of_another():
    private = []
    for path in MODULES:
        for node in ast.walk(parse(path)):
            if isinstance(node, ast.ImportFrom) and (
                node.level > 0 or (node.module or "").split(".")[0] == "blockfunctor"
            ):
                private.extend(
                    f"{path.name}: {alias.name} (line {node.lineno})"
                    for alias in node.names
                    if alias.name.startswith("_") and not alias.name.startswith("__")
                )
    assert not private, f"private names imported from another module: {', '.join(private)}"
