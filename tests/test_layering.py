"""The import layering the README's Library sketch states: each module imports
only the modules above it in the table, plus ``errors`` and ``rng``."""

import ast
import os

import pytest

SRC = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))),
                   "src", "speclab")
LAYERS = ["measures", "matlin", "ensembles", "transport", "experiments", "cli"]
BASE = {"errors", "rng"}
PACKAGE = "__init__"


def speclab_imports(module: str) -> set:
    """The speclab modules a module imports, at any depth of its body."""
    with open(os.path.join(SRC, module + ".py"), encoding="utf-8") as fh:
        tree = ast.parse(fh.read())
    found = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.level == 1:
            if node.module:
                found.add(node.module.split(".")[0])
            else:  # from . import name: a sibling module, or a name the package defines
                found.update(a.name if os.path.exists(os.path.join(SRC, a.name + ".py"))
                             else PACKAGE for a in node.names)
        elif isinstance(node, ast.ImportFrom) and (node.module or "").startswith("speclab"):
            parts = node.module.split(".")
            found.add(parts[1] if len(parts) > 1 else PACKAGE)
        elif isinstance(node, ast.Import):
            found.update(a.name.split(".")[1] for a in node.names
                         if a.name.startswith("speclab."))
    return found


def test_every_module_has_a_layer():
    modules = {f[:-3] for f in os.listdir(SRC) if f.endswith(".py")}
    assert modules == set(LAYERS) | BASE | {PACKAGE}


@pytest.mark.parametrize("index,module", list(enumerate(LAYERS)))
def test_module_imports_only_the_layers_above_it(index, module):
    allowed = set(LAYERS[:index]) | BASE
    if module == "cli":
        allowed.add(PACKAGE)  # the entry point reads __version__
    assert speclab_imports(module) <= allowed


def test_measures_is_the_bottom_layer():
    assert speclab_imports("measures") == {"errors"}


@pytest.mark.parametrize("module", sorted(BASE))
def test_errors_and_rng_import_no_speclab_module(module):
    assert speclab_imports(module) <= {"errors"}
