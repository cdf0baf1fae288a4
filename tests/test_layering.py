"""The package's import graph runs one way: each module imports only modules
below it in LAYERS, function-level imports included."""

import ast
import json
import os
import subprocess
import sys
from pathlib import Path

import robustchow

SRC = Path(robustchow.__file__).parent

# errors/polybasis -> distributions -> adversary -> chowfilter ->
# hypothesis_select -> learners -> harness -> cli; __init__ only re-exports.
LAYERS = ("errors", "polybasis", "distributions", "adversary", "chowfilter",
          "hypothesis_select", "ltf_learner", "ptf_learner", "intersection_learner",
          "harness", "cli")


def package_imports(path: Path) -> set:
    """Names of the robustchow modules a file imports, at any depth."""
    found = set()
    for node in ast.walk(ast.parse(path.read_text())):
        if isinstance(node, ast.ImportFrom):
            if node.level == 1:
                module = node.module or ""
            elif node.level == 0 and (node.module or "").split(".")[0] == "robustchow":
                module = node.module.partition(".")[2]
            else:
                continue
            # from . import x, from robustchow import x: the names are modules
            found.update([module.split(".")[0]] if module else
                         [alias.name for alias in node.names])
        elif isinstance(node, ast.Import):
            found.update(alias.name.partition(".")[2] or "__init__" for alias in node.names
                         if alias.name.split(".")[0] == "robustchow")
    return found


def test_every_module_has_a_layer():
    modules = {p.stem for p in SRC.glob("*.py")} - {"__init__"}
    assert modules == set(LAYERS)


def test_imports_run_upward_only():
    upward = []
    for name in LAYERS:
        for target in package_imports(SRC / f"{name}.py"):
            if target not in LAYERS or LAYERS.index(target) >= LAYERS.index(name):
                upward.append(f"{name} imports {target}")
    assert upward == []


# The scipy subpackages `import robustchow` may load: scipy.special and the
# private modules scipy's own __init__ loads. scipy.stats and scipy.integrate
# pull in optimize, sparse, linalg and more, about 46 MB of resident memory.
SCIPY_ALLOWED = {"special", "_lib", "_cyutility", "_distributor_init", "__config__",
                 "version"}


def test_import_loads_only_scipy_special():
    code = ("import json, sys, robustchow; print(json.dumps(sorted("
            "{m.split('.')[1] for m in sys.modules if m.startswith('scipy.')})))")
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                          env=dict(os.environ, PYTHONPATH=str(SRC.parent)), timeout=120,
                          check=True)
    loaded = set(json.loads(proc.stdout.strip().splitlines()[-1]))
    assert "special" in loaded and sorted(loaded - SCIPY_ALLOWED) == []


REPO = SRC.parents[1]
# Top-level names and methods nothing in the program calls, each with the
# reason it stays.
UNREFERENCED = {
    # criterion 12's diagnostic: tests/test_acceptance.py calls it
    "direction_correlation",
    # no learner calls it since learn_ltf skips localization for strongly
    # biased targets; perfbench/layers.py traces it by name, and it goes once
    # a benchmark change drops that
    "refine_extreme",
    # LabeledSampleSet.to_csv writes the sample CSV that `robust-chow chow`
    # reads, the inverse of from_csv, for users who build their own inputs
    "to_csv",
}


def names_in(node) -> set:
    return {n.id if isinstance(n, ast.Name) else n.attr for n in ast.walk(node)
            if isinstance(n, (ast.Name, ast.Attribute))}


def test_every_top_level_definition_is_referenced():
    """Each top-level function and class of the package, and each non-dunder
    method and property of its classes, is used from src/, perfbench/ or
    demos/ outside its own definition; __init__'s re-exports do not count."""
    files = ([p for p in SRC.glob("*.py") if p.name != "__init__.py"]
             + sorted((REPO / "perfbench").glob("*.py"))
             + sorted((REPO / "demos").glob("*.py")))
    defined, used = set(), set()
    for path in files:
        for node in ast.parse(path.read_text()).body:
            own = path.parent == SRC and isinstance(node, (ast.FunctionDef, ast.ClassDef))
            if own:
                defined.add(node.name)
            if own and isinstance(node, ast.ClassDef):
                defined.update(item.name for item in node.body
                               if isinstance(item, ast.FunctionDef)
                               and not item.name.startswith("__"))
            used |= names_in(node) - ({node.name} if own else set())
    assert sorted(defined - used) == sorted(UNREFERENCED)
