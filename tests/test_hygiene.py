"""Source hygiene: every name a module of the package imports is used, and
so is every name a test module imports, unless another test imports it from
there; every function, class and method the package defines is referenced
by the package or the benchmark (tests alone do not keep a definition
alive, unless it is on the allow-list below; nor do the re-exports of the
package's `__init__.py`); and importing the package loads neither
scipy.linalg nor scipy.sparse.linalg."""

import ast
import json
import os
import subprocess
import sys
from functools import lru_cache

import pytest

ROOT = os.path.join(os.path.dirname(__file__), os.pardir)
SRC = os.path.join(ROOT, "src", "hpfem")
INIT = os.path.join(SRC, "__init__.py")
MODULES = sorted(f for f in os.listdir(SRC)
                 if f.endswith(".py") and f != "__init__.py")
TESTS = os.path.dirname(os.path.abspath(__file__))
TEST_MODULES = sorted(f for f in os.listdir(TESTS) if f.endswith(".py"))
DEFS = (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)

# Definitions of the package that only tests read, each with the reason to
# keep it: paper features the adaptive loops do not call, views the
# acceptance tests check the method through, and diagnostics.
TEST_ONLY = {
    "estimator.solve_auxiliary": "the auxiliary problem of the estimate's "
                                 "multiplier term (paper feature)",
    "estimator.global_oscillation": "the data oscillation of the estimate "
                                    "(paper feature, criterion 12)",
    "plasticity.infsup_ratio": "the discrete inf-sup ratio of the Gauss-point "
                               "space (paper feature, criterion 8)",
    "plasticity.in_admissible_gauss": "membership in the admissible set by "
                                      "the Gauss-point bound (criterion 7)",
    "plasticity.in_admissible_weak": "membership in the admissible set "
                                     "tested against psi_hp (criterion 7)",
    "plasticity.recover_multiplier": "the blockwise recovery of the "
                                     "multiplier from (u, p) (paper feature)",
    "plasticity.n_elastic": "count of the complementarity report",
    "plasticity.n_plastic": "count of the complementarity report",
    "mesh.read_text": "reads back the mesh format that write_text exports",
    "mesh.check_det_affine": "the det-affine check behind dual = primal of "
                             "the Gauss-point space",
    "mesh.total_volume": "the mesh volume (criterion 13)",
    "space.hanging_vertices": "the resolved constraint rows of the hanging "
                              "vertices (constraint diagnostic)",
}


def unused_imports(source):
    """Names bound by the import statements of a module and never read."""
    tree = ast.parse(source)
    imported = {}
    for node in ast.walk(tree):
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            for alias in node.names:
                name = alias.asname or alias.name.split(".")[0]
                imported.setdefault(name, node.lineno)
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return sorted((line, name) for name, line in imported.items()
                  if name not in used)


def test_scan_finds_unused_names():
    src = "import os\nfrom a.b import c, d as e\nimport x.y\nx.y.z(c)\n"
    assert unused_imports(src) == [(1, "os"), (2, "e")]


@pytest.mark.parametrize("module", MODULES)
def test_no_unused_imports(module):
    with open(os.path.join(SRC, module)) as fh:
        assert unused_imports(fh.read()) == []


@lru_cache(maxsize=None)
def reexports():
    """{test module: the names other test modules import from it}."""
    out = {}
    for name in TEST_MODULES:
        with open(os.path.join(TESTS, name)) as fh:
            for node in ast.walk(ast.parse(fh.read())):
                if isinstance(node, ast.ImportFrom) and node.level == 0:
                    out.setdefault(node.module, set()).update(
                        a.name for a in node.names)
    return out


@pytest.mark.parametrize("module", TEST_MODULES)
def test_no_unused_imports_in_tests(module):
    # a name that other tests import from this module is a re-export
    with open(os.path.join(TESTS, module)) as fh:
        source = fh.read()
    kept = reexports().get(module[:-len(".py")], set())
    assert [(line, name) for line, name in unused_imports(source)
            if name not in kept] == []


def definitions(tree):
    """(line, name, is_method) of the top-level functions and classes of a
    module and of the methods of its classes, dunder methods left out."""
    out = []
    for node in tree.body:
        if isinstance(node, DEFS):
            out.append((node.lineno, node.name, False))
        if isinstance(node, ast.ClassDef):
            out += [(item.lineno, item.name, True) for item in node.body
                    if isinstance(item, DEFS) and not (item.name.startswith("__")
                                                      and item.name.endswith("__"))]
    return out


def bound_names(function):
    """The names a function binds: its parameters and the names it assigns
    outside its nested definitions, less those it declares global or
    nonlocal."""
    args = function.args
    names = {a.arg for a in args.posonlyargs + args.args + args.kwonlyargs
             + [args.vararg, args.kwarg] if a is not None}
    free = set()
    stack = list(function.body)
    while stack:
        node = stack.pop()
        if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Store):
            names.add(node.id)
        elif isinstance(node, (ast.Global, ast.Nonlocal)):
            free.update(node.names)
        if not isinstance(node, DEFS + (ast.Lambda,)):
            stack.extend(ast.iter_child_nodes(node))
    return names - free


def references(tree):
    """What a module reads, as ("name", bare name) and ("attr", attribute
    name or string constant) pairs, each counted only outside the
    definitions of that name; a bare name is not counted inside a function
    that binds it, where it is a local variable."""
    found = set()

    def walk(node, inside, local):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, DEFS):
                binds = (set() if isinstance(child, ast.ClassDef)
                         else bound_names(child))
                walk(child, inside | {child.name}, local | binds)
                continue
            if isinstance(child, ast.Name):
                ref = None if child.id in local else ("name", child.id)
            elif isinstance(child, ast.Attribute):
                ref = ("attr", child.attr)
            elif isinstance(child, ast.Constant) and isinstance(child.value, str):
                ref = ("attr", child.value)
            else:
                ref = None
            if ref is not None and ref[1] not in inside:
                found.add(ref)
            walk(child, inside, local)

    walk(tree, frozenset(), frozenset())
    return found


def unreferenced(source, used):
    """The definitions of a module that the references used never read: a
    method counts as read only through an attribute or a string constant,
    since a bare name of it is another variable."""
    return [(line, name) for line, name, is_method in definitions(ast.parse(source))
            if ("attr", name) not in used
            and (is_method or ("name", name) not in used)]


@lru_cache(maxsize=None)
def project_references(tops=("src", "tests", "perfbench")):
    """The references of the package, the tests and the benchmark, or of
    the top-level folders tops; the re-exports of the package's
    `__init__.py` read nothing."""
    used = set()
    for top in tops:
        for folder, _, files in os.walk(os.path.join(ROOT, top)):
            for name in files:
                path = os.path.join(folder, name)
                if name.endswith(".py") and path != INIT:
                    with open(path) as fh:
                        used |= references(ast.parse(fh.read()))
    return used


def test_scan_finds_unreferenced_definitions():
    src = ("def f():\n    return f()\n\n\ndef g():\n    pass\n\n\n"
           "class A:\n    def __init__(self):\n        self.m()\n\n"
           "    def m(self):\n        return self.m\n\n"
           "    def n(self):\n        pass\n")
    used = references(ast.parse(src))
    assert unreferenced(src, used | references(ast.parse("g()\nA.n\n"))) == [
        (1, "f")]
    assert unreferenced(src, used | references(ast.parse("g()\n'A'\n"))) == [
        (1, "f"), (16, "n")]
    # a local variable named like a method does not read the method
    shadow = references(ast.parse("g()\nA\n\n\ndef h():\n    n = 1\n    return n\n"))
    assert unreferenced(src, used | shadow) == [(1, "f"), (16, "n")]
    # nor does a parameter or an assigned local named like a function read
    # the function, as `_kernels.chi_blocks`'s local `chi` did not read the
    # old `plasticity.chi`; a read of the global from another function does
    local = ("A.n\n\n\ndef h(g):\n    return g\n\n\n"
             "def k():\n    for f in []:\n        pass\n    return f\n")
    assert unreferenced(src, used | references(ast.parse(local))) == [
        (1, "f"), (5, "g")]
    glob = local + "\n\ndef q():\n    global g\n    g = 1\n    return g\n"
    assert unreferenced(src, used | references(ast.parse(glob))) == [(1, "f")]


@pytest.mark.parametrize("module", MODULES)
def test_every_definition_is_referenced(module):
    with open(os.path.join(SRC, module)) as fh:
        assert unreferenced(fh.read(), project_references()) == []


def only_read_by_tests(module, source):
    """The definitions of a module that only tests read, and not allowed."""
    stem = module[:-len(".py")]
    return [(line, name) for line, name in
            unreferenced(source, project_references(("src", "perfbench")))
            if f"{stem}.{name}" not in TEST_ONLY]


@pytest.mark.parametrize("module", MODULES)
def test_no_definition_only_tests_read(module):
    with open(os.path.join(SRC, module)) as fh:
        assert only_read_by_tests(module, fh.read()) == []


def test_allow_list_is_current():
    """Every allowed name is defined in its module, and only tests read it."""
    found = set()
    for module in MODULES:
        with open(os.path.join(SRC, module)) as fh:
            stem = module[:-len(".py")]
            found |= {f"{stem}.{name}" for _, name in unreferenced(
                fh.read(), project_references(("src", "perfbench")))}
    assert set(TEST_ONLY) <= found



# Packages whose import costs a process start more than hpfem uses of them:
# scipy.sparse.linalg's `__init__` imports the iterative solvers and
# scipy.linalg, and hpfem only calls SuperLU, which `plasticity` loads by file.
HEAVY = ("scipy.linalg", "scipy.sparse.linalg")


def module_level_imports(source):
    """(line, dotted name) of every module or name imported outside the
    functions and classes of a module; `from a import b` gives a.b."""
    out = []

    def walk(node):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, ast.Import):
                out.extend((child.lineno, a.name) for a in child.names)
            elif isinstance(child, ast.ImportFrom):
                out.extend((child.lineno, f"{child.module}.{a.name}")
                           for a in child.names)
            elif not isinstance(child, DEFS):
                walk(child)

    walk(ast.parse(source))
    return out


def heavy_imports(source):
    return [(line, name) for line, name in module_level_imports(source)
            if any(name == h or name.startswith(h + ".") for h in HEAVY)]


def test_scan_finds_heavy_imports():
    src = ("import scipy.sparse.linalg as spla\nfrom scipy import linalg\n"
           "from scipy.sparse import csc_array\nimport scipy.linalgx\n"
           "try:\n    from scipy.linalg import lu\nexcept ImportError:\n    pass\n"
           "def f():\n    import scipy.linalg\n")
    assert heavy_imports(src) == [(1, "scipy.sparse.linalg"), (2, "scipy.linalg"),
                                  (6, "scipy.linalg.lu")]


@pytest.mark.parametrize("module", MODULES + ["__init__.py"])
def test_no_module_level_heavy_import(module):
    with open(os.path.join(SRC, module)) as fh:
        assert heavy_imports(fh.read()) == []


def test_fresh_import_loads_no_scipy_linalg():
    """In a fresh process, hpfem and its driver import neither package, and
    a later import of scipy.sparse.linalg reuses the SuperLU extension that
    hpfem loaded."""
    code = (
        "import json, sys\n"
        "import hpfem, hpfem.driver\n"
        f"loaded = [m for m in {HEAVY!r} if m in sys.modules]\n"
        "import scipy.sparse.linalg as spla\n"
        "from hpfem import plasticity\n"
        "same = spla._dsolve.linsolve._superlu is plasticity._superlu\n"
        "print(json.dumps([loaded, same]))\n")
    env = dict(os.environ, PYTHONPATH=os.path.join(ROOT, "src"))
    out = subprocess.run([sys.executable, "-c", code], env=env, check=True,
                         capture_output=True, text=True, timeout=120).stdout
    assert json.loads(out.splitlines()[-1]) == [[], True]
