"""Every public name, method and property that nothing in rmlab uses is pinned here.

A module's `__all__` is its public API, and so are the public methods and
properties of the classes it lists.  A name counts as used when some
module of the package other than `__init__` loads it, by name or as an
attribute; its definition, its `__all__` entry and its `__init__`
re-export do not count.  `cli.main`, the console entry point, is left
out.  The verification probes are used through the PROBES registry.
Dunder methods, and the methods a dataclass generates, are not scanned.
The pin is empty: a public name or method that nothing in the package
uses fails this test until it is given a use, or deleted.
"""

import ast
from pathlib import Path

import rmlab

ENTRY_POINTS = {"cli.main"}

UNUSED_PUBLIC: set[str] = set()


def _modules():
    """(module name, parsed source) of each module of the package but __init__."""
    for path in sorted(Path(rmlab.__file__).parent.glob("*.py")):
        if path.stem != "__init__":
            yield path.stem, ast.parse(path.read_text())


def _public(tree):
    """The names listed in a module's __all__."""
    for node in tree.body:
        if isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            if any(isinstance(t, ast.Name) and t.id == "__all__" for t in targets):
                return [ast.literal_eval(elt) for elt in node.value.elts]
    return []


def _public_members(tree, public):
    """(class, member) of each public method and property of the module's public classes."""
    for node in tree.body:
        if isinstance(node, ast.ClassDef) and node.name in public:
            for item in node.body:
                if isinstance(item, ast.FunctionDef) and not item.name.startswith("_"):
                    yield node.name, item.name


def _loaded(tree):
    """Every name the module loads, bare or as an attribute."""
    for node in ast.walk(tree):
        if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
            yield node.id
        elif isinstance(node, ast.Attribute):
            yield node.attr


def test_every_unused_public_name_is_pinned():
    modules = dict(_modules())
    used = {name for tree in modules.values() for name in _loaded(tree)}
    public = {f"{module}.{name}" for module, tree in modules.items() for name in _public(tree)}
    members = {
        f"{module}.{cls}.{member}"
        for module, tree in modules.items()
        for cls, member in _public_members(tree, set(_public(tree)))
    }
    unused = {dotted for dotted in public | members if dotted.rsplit(".", 1)[1] not in used}
    assert unused - ENTRY_POINTS == UNUSED_PUBLIC
