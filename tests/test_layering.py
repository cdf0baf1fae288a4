"""The package's import graph runs one way: each module imports only modules
below it in LAYERS, function-level imports included."""

import ast
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

