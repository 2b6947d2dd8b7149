"""The package's modules form layers: no import cycle, function-local imports
included, and the discretization imports none of the modules built on it."""

import ast
import graphlib
from pathlib import Path

import cknstab

PACKAGE = Path(cknstab.__file__).parent
MODULES = {path.stem: path for path in PACKAGE.glob("*.py")}


def _imports(name):
    """The package modules that module ``name`` imports anywhere in its body;
    a name taken from the package itself counts as ``__init__``."""
    tree = ast.parse(MODULES[name].read_text(), filename=str(MODULES[name]))
    found = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom):
            if node.level == 0:
                parts = (node.module or "").split(".")
                if parts[0] != "cknstab":
                    continue
                base = parts[1:]
            else:
                base = node.module.split(".") if node.module else []
            if base:
                found.add(base[0])
            else:  # from . import x: a submodule, or a name of the package
                found.update(a.name if a.name in MODULES else "__init__" for a in node.names)
        elif isinstance(node, ast.Import):
            for alias in node.names:
                parts = alias.name.split(".")
                if parts[0] == "cknstab":
                    found.add(parts[1] if len(parts) > 1 else "__init__")
    found.discard(name)
    return found


GRAPH = {name: _imports(name) for name in MODULES}


def test_graph_sees_every_module():
    assert {"cylinder", "operators", "stability", "multibubble", "cli"} <= set(GRAPH)
    assert all(deps <= set(MODULES) for deps in GRAPH.values())
    assert {"cylinder", "operators"} <= GRAPH["stability"]


def test_package_imports_are_acyclic():
    order = list(graphlib.TopologicalSorter(GRAPH).static_order())  # raises CycleError
    assert set(order) == set(MODULES)


def test_cylinder_imports_no_module_built_on_it():
    assert not GRAPH["cylinder"] & {"operators", "stability", "multibubble"}
