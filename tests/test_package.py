"""The package's exports, which resolve on first access."""

import ast
import collections
import contextlib
import dataclasses
import importlib
import io
import os
import re
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import moebius
from moebius import convergence, galerkin, mathieu, models, quadrature
from moebius.errors import InputError
from moebius.geometry import StripParams

SRC = Path(__file__).resolve().parent.parent / "src"
SOURCES = sorted((SRC / "moebius").glob("*.py"))
MODULES = [path.stem for path in SOURCES if path.stem != "__init__"]


def test_every_export_is_the_object_of_its_defining_module():
    for name in moebius.__all__:
        if name == "__version__":
            continue
        value = getattr(moebius, name)
        assert value.__module__.startswith("moebius.")
        assert getattr(importlib.import_module(value.__module__), name) is value, name


def test_star_import_binds_all_and_only_the_exports():
    namespace = {}
    exec("from moebius import *", namespace)
    assert set(namespace) - {"__builtins__"} == set(moebius.__all__)


def test_a_bare_import_loads_no_submodule_and_submodules_still_resolve():
    probe = (
        "import sys, moebius\n"
        "print(sorted(m for m in sys.modules if m.startswith('moebius.')))\n"
        "print(moebius.galerkin.__name__, moebius.verify.__name__)\n"
    )
    python_path = os.pathsep.join(filter(None, [str(SRC), os.environ.get("PYTHONPATH")]))
    proc = subprocess.run(
        [sys.executable, "-c", probe],
        capture_output=True,
        text=True,
        env={"PATH": "/usr/bin:/bin", "PYTHONPATH": python_path},
        timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.splitlines() == ["[]", "moebius.galerkin moebius.verify"]


def test_an_unknown_name_raises_attribute_error():
    with pytest.raises(AttributeError, match="no_such_name"):
        moebius.no_such_name
    with pytest.raises(ImportError):
        from moebius import no_such_name  # noqa: F401


def test_names_quoted_in_the_docs_exist():
    # `module.name` in the package's docstrings and comments and in the
    # README, and ``_private`` in the package, which must belong to the
    # module that names it
    dotted = re.compile(r"`(%s)\.(\w+)" % "|".join(MODULES))
    private = re.compile(r"``(_\w+)``")
    missing = []
    for path in [*SOURCES, SRC.parent / "README.md"]:
        text = path.read_text()
        for module, name in dotted.findall(text):
            if name != "py" and not hasattr(importlib.import_module(f"moebius.{module}"), name):
                missing.append(f"{path.name}: {module}.{name}")
        if path.suffix == ".py":
            owner = importlib.import_module(
                "moebius" if path.stem == "__init__" else f"moebius.{path.stem}"
            )
            missing += [f"{path.name}: {name}" for name in private.findall(text)
                        if not hasattr(owner, name)]
    assert missing == []


def test_every_module_level_import_is_read():
    # a name imported at module level that the module never reads and does
    # not export is dead; convergence.solve is kept because
    # benchmark/spans.py rebinds it there to trace the solves of a sweep
    kept = {("convergence", "solve")}
    unused = []
    for path in SOURCES:
        tree = ast.parse(path.read_text())
        read = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
        exported = set()
        for node in tree.body:
            if isinstance(node, ast.Assign) and any(
                isinstance(target, ast.Name) and target.id == "__all__" for target in node.targets
            ):
                exported |= {item.value for item in ast.walk(node.value)
                             if isinstance(item, ast.Constant) and isinstance(item.value, str)}
        for node in tree.body:
            if isinstance(node, ast.ImportFrom) and node.module == "__future__":
                continue
            if isinstance(node, (ast.Import, ast.ImportFrom)):
                for alias in node.names:
                    name = alias.asname or alias.name.split(".")[0]
                    if name not in read | exported and (path.stem, name) not in kept:
                        unused.append(f"{path.name}: {name}")
    assert unused == []


def test_no_function_mutates_module_level_state():
    # a dict, list or set bound at module level and changed by a function
    # is shared by every caller in the process;
    # caches go through functools.lru_cache, which guards its own state
    containers = (ast.Dict, ast.List, ast.Set, ast.DictComp, ast.ListComp, ast.SetComp)
    mutators = {
        "add", "append", "clear", "difference_update", "discard", "extend", "insert",
        "intersection_update", "pop", "popitem", "remove", "reverse", "setdefault", "sort",
        "symmetric_difference_update", "update",
    }
    mutated = []
    for path in SOURCES:
        tree = ast.parse(path.read_text())
        shared = set()
        for node in tree.body:
            if isinstance(node, (ast.Assign, ast.AnnAssign)) and (
                isinstance(node.value, containers)
                or isinstance(node.value, ast.Call) and isinstance(node.value.func, ast.Name)
                and node.value.func.id in {"dict", "list", "set"}
            ):
                targets = node.targets if isinstance(node, ast.Assign) else [node.target]
                shared |= {target.id for target in targets if isinstance(target, ast.Name)}
        for function in ast.walk(tree):
            if not isinstance(function, (ast.FunctionDef, ast.AsyncFunctionDef)):
                continue
            # a parameter or local binding of the same name shadows the module's
            local = {arg.arg for arg in ast.walk(function.args) if isinstance(arg, ast.arg)}
            local |= {node.id for node in ast.walk(function)
                      if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Store)}
            for node in ast.walk(function):
                if isinstance(node, ast.Subscript) and isinstance(node.ctx, (ast.Store, ast.Del)):
                    target = node.value
                elif isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute) \
                        and node.func.attr in mutators:
                    target = node.func.value
                else:
                    continue
                if isinstance(target, ast.Name) and target.id in shared - local:
                    mutated.append(f"{path.name}:{node.lineno}")
    assert mutated == []


# The functions whose results are cached: the quadrature rules and the
# Mathieu solves.  A cache over a cached solve keeps a second copy of what
# the solve already keeps, so adding one takes an edit here.
CACHED_FUNCTIONS = {"gauss_legendre", "_class_values", "_class_decomposition"}


def test_every_cache_hands_out_read_only_arrays():
    # a cached array is shared by every later caller, so none may write it
    from moebius import mathieu, quadrature

    results = {
        "gauss_legendre": quadrature.gauss_legendre(8),
        "_class_values": mathieu._class_values("se", 1, -0.25, 64),
        "_class_decomposition": mathieu._class_decomposition("ce", 1, -0.25, 64),
    }
    assert set(results) == CACHED_FUNCTIONS
    for name, result in results.items():
        if isinstance(result, np.ndarray):
            items = [result]
        elif isinstance(result, tuple):
            items = result
        else:
            items = [getattr(result, field.name) for field in dataclasses.fields(result)]
        arrays = [item for item in items if isinstance(item, np.ndarray)]
        assert arrays and [array.flags.writeable for array in arrays] == [False] * len(arrays), name


def test_every_cache_wraps_an_allowed_function():
    # functools.lru_cache and functools.cache; a cached_property lives and
    # dies with its instance.  Every cache is bounded by a maxsize it names:
    # a bare lru_cache, lru_cache(maxsize=None) and functools.cache are refused
    def name(node):
        return getattr(node, "id", getattr(node, "attr", None))

    def unbounded(decorator):
        if not isinstance(decorator, ast.Call) or name(decorator.func) == "cache":
            return True
        sizes = decorator.args[:1] + [k.value for k in decorator.keywords if k.arg == "maxsize"]
        return not sizes or isinstance(sizes[0], ast.Constant) and sizes[0].value is None

    cached, elsewhere, unbounded_caches = [], [], []
    for path in SOURCES:
        tree = ast.parse(path.read_text())
        decorating = set()
        for node in ast.walk(tree):
            for decorator in getattr(node, "decorator_list", []):
                decorating.update(id(inner) for inner in ast.walk(decorator))
                if name(decorator.func if isinstance(decorator, ast.Call) else decorator) \
                        in {"lru_cache", "cache"}:
                    cached.append(node.name)
                    if unbounded(decorator):
                        unbounded_caches.append(f"{path.name}: {node.name}")
        # a cache built other than as a decorator is refused too
        elsewhere += [f"{path.name}:{node.lineno}" for node in ast.walk(tree)
                      if name(node) in {"lru_cache", "cache"} and id(node) not in decorating]
    assert elsewhere == []
    assert unbounded_caches == []
    assert sorted(cached) == sorted(CACHED_FUNCTIONS)


# The private names one package module reads from another, per (reader,
# defining module).  Each is an internal seam kept on purpose, so a new
# reach into another module's privates takes an edit here.
CROSS_MODULE_PRIVATES = {
    ("convergence", "galerkin"): {"_EXPANSION_BYTES", "_effective_modes", "_expanded", "_project"},
    ("galerkin", "geometry"): {"_g_with_derivatives", "_potential_from_g"},
    ("galerkin", "models"): {"_modes"},
    ("verify", "galerkin"): {"_bases", "_quadrature_orders", "_sample_factors"},
    ("verify", "mathieu"): {"_STABILITY_TOL"},
}


def test_every_private_name_read_across_modules_is_allowed():
    # "from .module import _name" and "module._name" after "from . import module"
    def private(name):
        return name.startswith("_") and not name.startswith("__")

    found = collections.defaultdict(set)
    for path in SOURCES:
        modules = {}  # local name -> package module
        tree = ast.parse(path.read_text())
        for node in ast.walk(tree):
            if isinstance(node, ast.ImportFrom) and node.level == 1:
                for alias in node.names:
                    if node.module is None:
                        modules[alias.asname or alias.name] = alias.name
                    elif private(alias.name):
                        found[path.stem, node.module].add(alias.name)
        for node in ast.walk(tree):
            if isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name) \
                    and node.value.id in modules and private(node.attr):
                found[path.stem, modules[node.value.id]].add(node.attr)
    assert dict(found) == CROSS_MODULE_PRIVATES


# The scopes that build ModeIndex labels, per module: spectra and bases are
# integer arrays, labelled only when a caller asks for the labels, so a new
# label builder takes an edit here.
LABEL_BUILDERS = {("models", "Spectrum.flattened"), ("galerkin", "_mode_labels")}


def test_mode_labels_are_built_only_on_request():
    built = set()

    def visit(node, module, scope):
        for child in ast.iter_child_nodes(node):
            inner = scope
            if isinstance(child, (ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)):
                inner = f"{scope}.{child.name}" if scope else child.name
            elif isinstance(child, ast.Call) and \
                    getattr(child.func, "id", getattr(child.func, "attr", None)) == "ModeIndex":
                built.add((module, scope))
            visit(child, module, inner)

    for path in SOURCES:
        visit(ast.parse(path.read_text()), path.stem, "")
    assert built == LABEL_BUILDERS


PARAMS = StripParams(a=0.75, R=13.2 / (2 * np.pi))
CONFIG = galerkin.GalerkinConfig(params=PARAMS, n_basis=20)
A_GRID = np.geomspace(0.1, 0.5, 5)
SWEEP = convergence.SweepResult(A_GRID, np.zeros((5, 3)), np.zeros((5, 3)),
                                np.outer(A_GRID**2, [1.0, 2.0, 3.0]))

# Each public entry point that takes a count, an order or an index: the
# call of one integer argument, and a value it accepts
INTEGER_ENTRY_POINTS = {
    "char_value": (lambda k: mathieu.char_value("ce", k, -0.25), 2),
    "fourier_coefficients": (lambda k: mathieu.fourier_coefficients("se", k, -0.25), 1),
    "evaluate": (lambda k: mathieu.evaluate("ce", k, -0.25, 0.3), 2),
    "char_values": (lambda k: mathieu.char_values(-0.25, k), 3),
    "ModeIndex.m": (lambda k: models.ModeIndex(models.FAMILY_FAKE, k, 2), 3),
    "ModeIndex.n": (lambda k: models.ModeIndex(models.FAMILY_FAKE, 0, k), 3),
    "transverse_profile": (lambda k: models.transverse_profile(k, 0.3), 3),
    "fake_longitudinal": (lambda k: models.fake_longitudinal(k, PARAMS, 0.3), 3),
    "fake_spectrum": (lambda k: models.fake_spectrum(PARAMS, k), 3),
    "effective_spectrum": (lambda k: models.effective_spectrum(PARAMS, k), 3),
    "Spectrum.values": (lambda k: models.fake_spectrum(PARAMS, 5).values(k), 3),
    "Spectrum.flattened": (lambda k: models.fake_spectrum(PARAMS, 5).flattened(k), 3),
    "gauss_legendre": (quadrature.gauss_legendre, 3),
    "for_strip.m_s": (lambda k: quadrature.QuadratureGrid.for_strip(PARAMS, k, 4), 3),
    "for_strip.m_u": (lambda k: quadrature.QuadratureGrid.for_strip(PARAMS, 10, k), 3),
    "GalerkinConfig.n_basis": (lambda k: galerkin.GalerkinConfig(PARAMS, k), 3),
    "GalerkinConfig.m_s": (lambda k: galerkin.GalerkinConfig(PARAMS, 3, m_s=k), 3),
    "basis_modes": (lambda k: galerkin.basis_modes(PARAMS, k), 3),
    "effective_in_basis": (lambda k: galerkin.effective_in_basis(CONFIG, k), 3),
    "leading_residual_norms": (lambda k: galerkin.solve(CONFIG).leading_residual_norms(k), 3),
    "residual_norm": (lambda k: galerkin.residual_norm(galerkin.solve(CONFIG), k), 3),
    "eigenfunction_values": (
        lambda k: galerkin.solve(CONFIG).eigenfunction_values(k, 0.3, 0.1), 3),
    "geometric_grid": (lambda k: convergence.geometric_grid(0.1, 1.0, k), 3),
    "eigenvalue_sweep": (lambda k: convergence.eigenvalue_sweep(PARAMS.R, [0.3, 0.5], k, 20), 3),
    "fit_rate": (lambda k: convergence.fit_rate(SWEEP, k), 3),
}


@pytest.mark.parametrize("name", sorted(INTEGER_ENTRY_POINTS))
def test_integer_inputs_refuse_non_integers(name):
    # a float, even an integral one, and a bool are refused before any
    # indexing or cache lookup; a numpy integer is an integer
    call, accepted = INTEGER_ENTRY_POINTS[name]
    for value in (2.5, 2.0, True, np.float64(3)):
        with pytest.raises(InputError, match="must be an integer, got "):
            call(value)
    call(np.int64(accepted))


def test_no_module_imports_a_concurrency_library():
    # sweeps run their chunks one after another: a pool of sweep threads
    # never ran two chunks at once, since the sweep holds the GIL
    banned = {"concurrent", "threading", "multiprocessing"}
    found = []
    for path in SOURCES:
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.Import):
                names = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom) and node.level == 0:
                names = [node.module]
            else:
                continue
            found += [f"{path.name}: {name}" for name in names if name.split(".")[0] in banned]
    assert found == []


def test_no_module_converts_an_array_to_python_objects():
    # energies are squared as IEEE products, never through Python floats;
    # a text table built with dtype=object does no arithmetic and may stay
    found = []
    for path in SOURCES:
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute) \
                    and node.func.attr == "astype" and node.args:
                target = node.args[0]
                if (isinstance(target, ast.Name) and target.id == "object") or \
                        (isinstance(target, ast.Constant) and target.value == "O"):
                    found.append(f"{path.name}:{node.lineno}")
    assert found == []


def test_every_private_module_level_name_is_used():
    # a private function, class or constant that nothing in the package
    # reads besides its own definition only served code that is gone
    trees = {path: ast.parse(path.read_text()) for path in SOURCES}
    read = collections.Counter()
    for tree in trees.values():
        for node in ast.walk(tree):
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
                read[node.id] += 1
            elif isinstance(node, ast.Attribute):
                read[node.attr] += 1
            elif isinstance(node, ast.alias):
                read[node.name.split(".")[-1]] += 1
    unused = []
    for path, tree in trees.items():
        for node in tree.body:
            if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
                names = [node.name]
            elif isinstance(node, (ast.Assign, ast.AnnAssign)):
                targets = node.targets if isinstance(node, ast.Assign) else [node.target]
                names = [target.id for target in targets if isinstance(target, ast.Name)]
            else:
                continue
            for name in names:
                if not name.startswith("_") or name.startswith("__"):
                    continue
                # reads inside its own definition (recursion) do not count
                own = sum(1 for inner in ast.walk(node)
                          if isinstance(inner, ast.Name) and isinstance(inner.ctx, ast.Load)
                          and inner.id == name)
                if read[name] - own < 1:
                    unused.append(f"{path.name}: {name}")
    assert unused == []


def test_the_capacity_cap_has_one_binding_read_by_one_gate():
    # tests patch models.MAX_ARRAY_BYTES, and every charge goes through
    # models.require_bytes, so neither may be bypassed by a copy of the cap
    bound, imported, read = [], [], []
    for path in SOURCES:
        tree = ast.parse(path.read_text())
        gate = {id(node) for function in ast.walk(tree)
                if isinstance(function, ast.FunctionDef) and function.name == "require_bytes"
                for node in ast.walk(function)}
        for node in ast.walk(tree):
            if isinstance(node, ast.alias) and node.name == "MAX_ARRAY_BYTES":
                imported.append(path.name)
            if not (isinstance(node, ast.Name) and node.id == "MAX_ARRAY_BYTES"
                    or isinstance(node, ast.Attribute) and node.attr == "MAX_ARRAY_BYTES"):
                continue
            if isinstance(node.ctx, ast.Load):
                read.append(f"{path.name}:{'require_bytes' if id(node) in gate else node.lineno}")
            else:
                bound.append(path.name)
    assert bound == ["models.py"]
    assert imported == []
    assert read and set(read) == {"models.py:require_bytes"}


# Every def and lambda parameter of the package other than self (cls,
# *args and **kwargs count) and every dataclass field: a change that adds
# or removes a setting updates this count and says why in CHANGES.md
SETTABLE_VALUES = 321


def test_settable_values_are_counted():
    count = 0
    for path in SOURCES:
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)):
                args = node.args
                names = [arg.arg for arg in args.posonlyargs + args.args + args.kwonlyargs]
                names += [arg.arg for arg in (args.vararg, args.kwarg) if arg is not None]
                count += sum(name != "self" for name in names)
            elif isinstance(node, ast.ClassDef) and any(
                    "dataclass" in ast.unparse(decorator) for decorator in node.decorator_list):
                count += sum(isinstance(item, ast.AnnAssign) for item in node.body)
    assert count == SETTABLE_VALUES


def test_every_error_maps_to_one_exit_code():
    # cli.main turns InputError into exit 2 and NumericalError into exit 3
    # and has no branch for MoebiusError itself: the package raises no bare
    # MoebiusError, and every other error class derives from one of the two
    parents, raised = {}, []
    for path in SOURCES:
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.ClassDef):
                parents[node.name] = [base.id for base in node.bases if isinstance(base, ast.Name)]
            elif isinstance(node, ast.Raise) and node.exc is not None:
                target = node.exc.func if isinstance(node.exc, ast.Call) else node.exc
                if isinstance(target, ast.Name) and target.id == "MoebiusError":
                    raised.append(f"{path.name}:{node.lineno}")

    def ancestors(name):
        return {name}.union(*(ancestors(parent) for parent in parents.get(name, [])))

    errors = {name for name in parents if "MoebiusError" in ancestors(name)} - {"MoebiusError"}
    assert raised == []
    assert {"InputError", "NumericalError", "CapacityError"} <= errors
    assert [name for name in sorted(errors)
            if len(ancestors(name) & {"InputError", "NumericalError"}) != 1] == []


def test_the_readme_library_use_block_runs():
    # the documented API, run as the README shows it: it prints the first
    # 20 Ritz values and their residuals
    readme = (SRC.parent / "README.md").read_text()
    [code] = re.findall(r"## Library use\n\n```python\n(.*?)```", readme, re.DOTALL)
    printed = io.StringIO()
    with contextlib.redirect_stdout(printed):
        exec(compile(code, "README.md", "exec"), {})
    arrays = [np.array(text.split(), dtype=float)
              for text in re.findall(r"\[([^\]]*)\]", printed.getvalue())]
    assert [array.size for array in arrays] == [20, 20]
    assert all(np.all(np.isfinite(array)) for array in arrays)
    assert np.all(np.diff(arrays[0]) >= 0.0) and np.all(arrays[1] > 0.0)
