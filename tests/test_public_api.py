"""Every public name that nothing in rmlab uses is pinned here.

A module's `__all__` is its public API.  A public function that no code
of the package calls is reached only by its own tests and by callers
outside the package; each such name below is kept on purpose.  A name
counts as used when some module of the package other than `__init__`
loads it, by name or as an attribute; its definition, its `__all__`
entry and its `__init__` re-export do not count.  `cli.main`, the console
entry point, is left out.  The verification probes are used through the
PROBES registry.  A new public name that nothing uses fails this test
until it is listed here on purpose, or deleted.
"""

import ast
from pathlib import Path

import rmlab

ENTRY_POINTS = {"cli.main"}

UNUSED_PUBLIC = {
    "funcrep.evaluate",
    "funcrep.shell_integral_radial",
    "geometry.box_distance",
    "geometry.ring_subdivision",
    "analysis.check_holder_cube",
    "quadrature.power_integral_on_box",
}


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
    unused = {dotted for dotted in public if dotted.split(".")[1] not in used}
    assert unused - ENTRY_POINTS == UNUSED_PUBLIC

