"""The package's import graph, read from its sources with ``ast``: one home
per rule, and each module's imports at its top."""

import ast
from pathlib import Path

from clusterpump.cluster import GraphSpec
from clusterpump.lindblad import KernelStep, PumpModel

PACKAGE = Path(__file__).resolve().parent.parent / "src" / "clusterpump"
MODULES = {path.stem: ast.parse(path.read_text(), filename=str(path)) for path in PACKAGE.glob("*.py")}


def package_imports(node: ast.AST, module: str) -> set[str]:
    """The package modules imported anywhere within ``node`` (``__init__`` for
    a name the package itself defines)."""
    found = set()
    for child in ast.walk(node):
        if isinstance(child, ast.ImportFrom) and child.level == 1:
            if child.module:
                found.add(child.module.split(".")[0])
            else:
                found.update(a.name if a.name in MODULES else "__init__" for a in child.names)
        elif isinstance(child, ast.ImportFrom) and (child.module or "").split(".")[0] == "clusterpump":
            parts = child.module.split(".")
            found.add(parts[1] if len(parts) > 1 else "__init__")
        elif isinstance(child, ast.Import):
            found.update(a.name.split(".")[1] for a in child.names if a.name.startswith("clusterpump."))
    found.discard(module)
    return found


GRAPH = {module: package_imports(tree, module) for module, tree in MODULES.items()}


def test_every_module_is_parsed():
    assert {"lindblad", "solver", "operators", "cli", "__init__"} <= set(MODULES)
    assert GRAPH["lindblad"] >= {"solver", "operators"}


def test_import_graph_has_no_cycle():
    done, path = set(), []

    def visit(module):
        assert module not in path, f"import cycle: {' -> '.join([*path, module])}"
        if module in done:
            return
        path.append(module)
        for target in sorted(GRAPH[module]):
            visit(target)
        path.pop()
        done.add(module)

    for module in sorted(GRAPH):
        visit(module)


def test_no_function_imports_from_the_package():
    for module, tree in MODULES.items():
        for node in ast.walk(tree):
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                assert not package_imports(node, ""), f"{module}.{node.name} imports from the package"


def imported_modules(tree: ast.AST) -> set[str]:
    """The names a module binds to package modules (``from . import solver``)."""
    return {
        a.asname or a.name
        for node in ast.walk(tree)
        if isinstance(node, ast.ImportFrom) and (node.level == 1 and not node.module or node.module == "clusterpump")
        for a in node.names
        if a.name in MODULES
    }


def test_no_module_imports_a_private_name_from_another():
    # an underscore name is its module's own; a rule another module needs is
    # public, whether imported by name or read through the imported module
    for module, tree in MODULES.items():
        for node in ast.walk(tree):
            if not isinstance(node, ast.ImportFrom) or not package_imports(node, module):
                continue
            private = [a.name for a in node.names if a.name.startswith("_") and not a.name.endswith("__")]
            assert not private, f"{module} imports {private} from {node.module or 'the package'}"
        aliases = imported_modules(tree)
        read = sorted(
            f"{node.value.id}.{node.attr} (line {node.lineno})"
            for node in ast.walk(tree)
            if isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name) and node.value.id in aliases
            and node.attr.startswith("_") and not node.attr.endswith("__")
        )
        assert not read, f"{module} reads {read}"


def test_solver_knows_nothing_of_lindblad():
    # the kernel step runs its own RK4 (KernelStep.evolve); solver's driver
    # takes only a dense L or a callable
    assert "lindblad" not in GRAPH["solver"]
    names = {node.id for node in ast.walk(MODULES["solver"]) if isinstance(node, ast.Name)}
    assert "KernelStep" not in names


def test_kernel_step_keeps_no_cache():
    # the step's tables are built once per run by evolve and passed to step
    assert "lru_cache" not in {node.id for node in ast.walk(MODULES["lindblad"]) if isinstance(node, ast.Name)}
    assert not hasattr(KernelStep, "tables")
    kernel = PumpModel(GraphSpec.chain(2), 1.0, 0.5).kernel_step(1.0)
    assert not hasattr(kernel, "tables")


SECULAR_NAMES = {
    "groups", "secular_problem", "secular_roots", "HIDDEN_TOL", "COINCIDENT_TOL", "ROOT_CLUSTER_TOL",
    "ABERTH_MAX_SWEEPS", "ABERTH_STALL_SWEEPS", "SECULAR_BLOCK",
}


def defined_names(tree: ast.Module) -> set[str]:
    """The functions a module defines anywhere, and the names it assigns at its top."""
    found = {node.name for node in ast.walk(tree) if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef))}
    for node in tree.body:
        if isinstance(node, (ast.Assign, ast.AnnAssign, ast.AugAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            found.update(n.id for target in targets for n in ast.walk(target) if isinstance(n, ast.Name))
    return found


def test_secular_solver_has_one_home():
    # the secular equation's builder, solver and tolerances live in solver
    # alone; a second copy, under these names or the old private ones, fails
    assert SECULAR_NAMES <= defined_names(MODULES["solver"])
    for module, tree in MODULES.items():
        copies = defined_names(tree) & (SECULAR_NAMES | {"_groups", "_secular_roots"})
        assert module == "solver" or not copies, f"{module} defines {sorted(copies)}"


def referrers(name: str) -> set[str]:
    """The functions, as ``module.qualname``, whose bodies name ``name``, as a
    bare name or as an attribute (``solver.name``)."""
    found = set()

    def visit(node: ast.AST, module: str, scope: tuple[str, ...]) -> None:
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                visit(child, module, (*scope, child.name))
                continue
            named = child.id if isinstance(child, ast.Name) else getattr(child, "attr", None)
            if named == name:
                found.add(".".join((module, *scope)))
            visit(child, module, scope)

    for module, tree in MODULES.items():
        visit(tree, module, ())
    return found


def test_structured_steady_state_solve_has_one_home():
    # the 2|J| real system is solved in one function of the spectral measure,
    # a module-level one that takes no model; the dense solve is the other
    # caller of solve_nonsingular, and a second structured route would be a third
    assert referrers("solve_nonsingular") == {"lindblad.measure_steady_states", "solver.steady_state_direct"}
    top = {node.name for node in MODULES["lindblad"].body if isinstance(node, ast.FunctionDef)}
    assert "measure_steady_states" in top
