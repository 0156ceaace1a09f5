"""The import layering the README's Library sketch states: each module imports
only the modules above it in the table, plus ``errors`` and ``rng``.  And no
library code that only the tests reach: every top-level definition is reached
from ``cli.main`` or from module-level code.  And no number that depends on
the environment: one function reads it, to record the thread variables."""

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


#: top-level definitions that only the tests reach, each with its reason
TEST_ONLY = {
    # the exact chordal W1 that test_chordal_geodesic_sandwich computes with
    # assignment_oracle, to check the chordal bracket ``distance`` prints
    "chordal_distance",
}


def referenced_names(node) -> set:
    """Every name a node may reach: Name ids, attribute names, and string
    constants, since the ENSEMBLES rows name their samplers by string."""
    return ({n.id for n in ast.walk(node) if isinstance(n, ast.Name)}
            | {n.attr for n in ast.walk(node) if isinstance(n, ast.Attribute)}
            | {n.value for n in ast.walk(node)
               if isinstance(n, ast.Constant) and isinstance(n.value, str)})


def test_every_top_level_definition_is_reached():
    definitions, module_code = {}, []
    for f in sorted(os.listdir(SRC)):
        if not f.endswith(".py"):
            continue
        with open(os.path.join(SRC, f), encoding="utf-8") as fh:
            for node in ast.parse(fh.read()).body:
                if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
                    definitions.setdefault(node.name, []).append(node)
                elif isinstance(node, (ast.Assign, ast.AnnAssign)):
                    targets = node.targets if isinstance(node, ast.Assign) else [node.target]
                    for target in targets:
                        definitions.setdefault(target.id, []).append(node)
                else:
                    module_code.append(node)
    # a name-keyed walk: names shared across modules can only hide a finding
    reached = set()
    frontier = {"main"}.union(*map(referenced_names, module_code))
    while frontier:
        name = frontier.pop()
        if name in definitions and name not in reached:
            reached.add(name)
            frontier.update(*map(referenced_names, definitions[name]))
    assert sorted(set(definitions) - reached) == sorted(TEST_ONLY)


#: the process environment as a module attribute or a bare imported name
ENVIRONMENT_NAMES = {"environ", "environb", "getenv", "getenvb"}


def environment_readers(module: str) -> set:
    """``module.function`` for each top-level function or method that names
    the environment, and ``module`` for module-level code that does."""
    with open(os.path.join(SRC, module + ".py"), encoding="utf-8") as fh:
        tree = ast.parse(fh.read())
    found = set()

    def scan(node, owner):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)) and owner == module:
            owner = f"{module}.{node.name}"
        if (isinstance(node, ast.Attribute) and node.attr in ENVIRONMENT_NAMES
                or isinstance(node, ast.Name) and node.id in ENVIRONMENT_NAMES
                or isinstance(node, ast.alias) and node.name in ENVIRONMENT_NAMES):
            found.add(owner)
        for child in ast.iter_child_nodes(node):
            scan(child, owner)

    scan(tree, module)
    return found


def test_only_the_manifest_reads_the_environment():
    # a seed or tolerance read from the environment would change a number
    # that the command line does not show; the manifest only records threads
    readers = set().union(*(environment_readers(f[:-3]) for f in sorted(os.listdir(SRC))
                            if f.endswith(".py")))
    assert readers == {"cli._environment"}
