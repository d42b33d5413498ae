"""The link model is written once, in sparsefl.wireless; the oracles re-derive it on purpose.

These checks parse the package source, so a Shannon formula or a noise-floor sum
restated elsewhere, a function that only tests still call, a default that only
tests override, or a dataclass field that only tests read, fails the suite
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
        assert "VALUE_BITS" not in _identifiers(tree), (
            "scheduler.py names VALUE_BITS; take the payload form from wireless.smooth_payload_pieces"
        )


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



# Defaulted values that only an entry point outside the package sets: the
# console script calls cli.main() and main reads sys.argv.
EXTERNAL_SETTINGS = {"cli.main(argv)"}


def _is_frozen_dataclass(node: ast.ClassDef) -> bool:
    return any(
        isinstance(d, ast.Call)
        and getattr(d.func, "id", None) == "dataclass"
        and any(k.arg == "frozen" and getattr(k.value, "value", False) for k in d.keywords)
        for d in node.decorator_list
    )


def _is_init_field(stmt: ast.stmt) -> bool:
    """An annotated class-body name that the dataclass constructor takes."""
    if not (isinstance(stmt, ast.AnnAssign) and isinstance(stmt.target, ast.Name)):
        return False
    value = stmt.value
    return not (
        isinstance(value, ast.Call)
        and getattr(value.func, "id", None) == "field"
        and any(k.arg == "init" and getattr(k.value, "value", True) is False for k in value.keywords)
    )


def _defaulted_settings(module: str, tree: ast.Module) -> list[tuple[str, str, str, int | None]]:
    """(callee name, label, parameter, positional index) of every defaulted value.

    The callee name is what a call spells: a function's or method's own name,
    or the class name for a constructor. The index counts a call's positional
    arguments, so a method's self is not one; a keyword-only parameter has none.
    """
    found = []

    def function(node: ast.FunctionDef, callee: str, first: int) -> None:
        args = node.args
        positional = args.posonlyargs + args.args
        for index in range(len(positional) - len(args.defaults), len(positional)):
            name = positional[index].arg
            found.append((callee, f"{module}.{node.name}({name})", name, index - first))
        for arg, default in zip(args.kwonlyargs, args.kw_defaults):
            if default is not None:
                found.append((callee, f"{module}.{node.name}({arg.arg})", arg.arg, None))

    for node in tree.body:
        if isinstance(node, ast.FunctionDef):
            function(node, node.name, 0)
        elif isinstance(node, ast.ClassDef):
            for item in node.body:
                if isinstance(item, ast.FunctionDef):
                    function(item, node.name if item.name == "__init__" else item.name, 1)
            if _is_frozen_dataclass(node):
                fields = [stmt for stmt in node.body if _is_init_field(stmt)]
                for index, stmt in enumerate(fields):
                    if stmt.value is not None:
                        name = stmt.target.id
                        found.append((node.name, f"{module}.{node.name}({name})", name, index))
    return found


def _calls(trees) -> dict[str, list[tuple[int, set[str], bool]]]:
    """Per callee name, each call's (positional count, keyword names, passes * or **)."""
    calls: dict[str, list[tuple[int, set[str], bool]]] = {}
    for tree in trees:
        for node in ast.walk(tree):
            if not isinstance(node, ast.Call):
                continue
            func = node.func
            name = func.id if isinstance(func, ast.Name) else getattr(func, "attr", None)
            spread = any(isinstance(a, ast.Starred) for a in node.args) or any(
                k.arg is None for k in node.keywords
            )
            keywords = {k.arg for k in node.keywords if k.arg}
            calls.setdefault(name, []).append((len(node.args), keywords, spread))
    return calls


def test_every_defaulted_value_is_set_by_production_code():
    """A default that no production call overrides is a setting only tests turn.

    Covers every defaulted parameter of a function or method, and every
    defaulted field of a frozen dataclass, outside oracles.py. As in the
    guard above, calls are matched by the callee's bare name.
    """
    trees = {
        p.stem: ast.parse(p.read_text(), filename=str(p)) for p in MODULES if p.name != "oracles.py"
    }
    calls = _calls(trees.values())
    unset = [
        label
        for module, tree in trees.items()
        for callee, label, name, index in _defaulted_settings(module, tree)
        if label not in EXTERNAL_SETTINGS
        and not any(
            spread or name in keywords or (index is not None and count > index)
            for count, keywords, spread in calls.get(callee, [])
        )
    ]
    assert not unset, f"defaults that no production call sets: {unset}"


# The benchmark reads run results too, so its scripts count as production readers.
PERFBENCH = PACKAGE.parent.parent / "perfbench"


def _is_dataclass(node: ast.ClassDef) -> bool:
    return any(
        getattr(d.func if isinstance(d, ast.Call) else d, "id", None) == "dataclass"
        for d in node.decorator_list
    )


def _field_reads(trees) -> tuple[set[str], set[str]]:
    """(names read, classes read whole) across trees.

    A name is read when it is loaded as an attribute or spelled as an exact
    string constant (a getattr key); a class passed to fields() is read whole.
    """
    names, whole = set(), set()
    for tree in trees:
        for node in ast.walk(tree):
            if isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load):
                names.add(node.attr)
            elif isinstance(node, ast.Constant) and isinstance(node.value, str):
                names.add(node.value)
            elif isinstance(node, ast.Call) and getattr(node.func, "id", None) == "fields":
                whole.update(arg.id for arg in node.args if isinstance(arg, ast.Name))
    return names, whole


def test_every_dataclass_field_is_read_by_production_code():
    """A result field that only tests read is a value the run need not keep.

    Covers every annotated field of a dataclass outside oracles.py. Reads are
    matched by the field's bare name, so a field is missed when another
    class's field of the same name is read.
    """
    trees = {
        p.stem: ast.parse(p.read_text(), filename=str(p)) for p in MODULES if p.name != "oracles.py"
    }
    bench = [ast.parse(p.read_text(), filename=str(p)) for p in sorted(PERFBENCH.glob("*.py"))]
    names, whole = _field_reads([*trees.values(), *bench])
    unread = [
        f"{module}.{node.name}.{stmt.target.id}"
        for module, tree in trees.items()
        for node in tree.body
        if isinstance(node, ast.ClassDef) and _is_dataclass(node) and node.name not in whole
        for stmt in node.body
        if isinstance(stmt, ast.AnnAssign)
        and isinstance(stmt.target, ast.Name)
        and stmt.target.id not in names
    ]
    assert not unread, f"dataclass fields that no production code reads: {unread}"
