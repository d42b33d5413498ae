"""The link model is written once, in sparsefl.wireless; the oracles re-derive it on purpose.

These checks parse the package source, so a Shannon formula or a noise-floor sum
restated elsewhere, or a function that only tests still call, fails the suite
rather than waiting for a reader to spot it.
"""

import ast
from pathlib import Path

import pytest

PACKAGE = Path(__file__).resolve().parent.parent / "src" / "sparsefl"
LINK_OWNERS = {"wireless.py", "oracles.py"}
LOGARITHMS = {"log", "log2", "log10", "log1p", "logaddexp", "logaddexp2"}


def _called_names(tree: ast.AST) -> set[str]:
    """The bare name of every callee: `log2` for both `log2(x)` and `np.log2(x)`."""
    called = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Call):
            func = node.func
            if isinstance(func, ast.Name):
                called.add(func.id)
            elif isinstance(func, ast.Attribute):
                called.add(func.attr)
    return called


def _identifiers(tree: ast.AST) -> set[str]:
    names = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            names.add(node.id)
        elif isinstance(node, ast.Attribute):
            names.add(node.attr)
        elif isinstance(node, ast.keyword) and node.arg:
            names.add(node.arg)
    return names


MODULES = sorted(PACKAGE.glob("*.py"))


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_link_formulas_live_in_wireless(path):
    tree = ast.parse(path.read_text(), filename=str(path))
    if path.name not in LINK_OWNERS:
        assert "log2" not in _called_names(tree), f"{path.name} restates a Shannon rate"
        assert "interference_w" not in _identifiers(tree), (
            f"{path.name} names interference_w; RadioParams.noise_w is the whole noise floor"
        )
    if path.name == "scheduler.py":
        logs = _called_names(tree) & LOGARITHMS
        assert not logs, f"scheduler.py calls {sorted(logs)}; price links through wireless"


def test_guard_sees_the_whole_package():
    assert {"wireless.py", "scheduler.py", "simulator.py", "oracles.py"} <= {
        p.name for p in MODULES
    }


# Production names that tests and oracles hold the program to, which no
# production module needs to call itself. Both stay in the package only
# because perfbench/spans.py rebinds them by name.
TEST_REFERENCES = {
    "model_data.per_sample_loss_grads",
    "wireless.round_costs",
}


def _referenced_names(tree: ast.AST, skip: ast.AST | None = None) -> set[str]:
    """Every name read in tree, as a bare name or an attribute, outside the node skip."""
    names = set()
    stack = [tree]
    while stack:
        node = stack.pop()
        if node is skip:
            continue
        if isinstance(node, ast.Name):
            names.add(node.id)
        elif isinstance(node, ast.Attribute):
            names.add(node.attr)
        stack.extend(ast.iter_child_nodes(node))
    return names


def test_every_top_level_definition_has_a_production_caller():
    """A function or class outside oracles.py that only tests reach is dead code."""
    trees = {
        p.stem: ast.parse(p.read_text(), filename=str(p)) for p in MODULES if p.name != "oracles.py"
    }
    unused = []
    for module, tree in trees.items():
        for node in tree.body:
            if not isinstance(node, (ast.FunctionDef, ast.ClassDef)):
                continue
            used = any(
                node.name in _referenced_names(other, skip=node) for other in trees.values()
            )
            if not used and f"{module}.{node.name}" not in TEST_REFERENCES:
                unused.append(f"{module}.{node.name}")
    assert not unused, f"referenced by no production module: {unused}"
