"""The package's exports, which resolve on first access."""

import ast
import collections
import importlib
import os
import re
import subprocess
import sys
from pathlib import Path

import pytest

import moebius

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
SETTABLE_VALUES = 335


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
