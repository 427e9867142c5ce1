"""Each input rule of the package has one path: every float model parameter
is checked by ``system.check_range``, and every seed is mixed by
``sampling.philox_keys``'s own copy of numpy's SeedSequence. These tests
parse ``src/sqzbath`` and fail when a second path appears."""

import ast
from pathlib import Path

PACKAGE_DIR = Path(__file__).resolve().parents[1] / "src" / "sqzbath"


def _modules():
    for path in sorted(PACKAGE_DIR.glob("*.py")):
        yield path, ast.parse(path.read_text(encoding="utf-8"))


def _is_inf(node):
    while isinstance(node, ast.UnaryOp):
        node = node.operand
    if isinstance(node, ast.Name):
        return node.id == "inf"
    return (isinstance(node, ast.Attribute) and node.attr == "inf"
            and isinstance(node.value, ast.Name) and node.value.id in ("np", "numpy", "math"))


def _inf_comparisons(tree):
    return [node for node in ast.walk(tree) if isinstance(node, ast.Compare)
            and any(map(_is_inf, [node.left, *node.comparators]))]


def test_range_comparisons_only_in_the_rule():
    # a hand-written `0 < x < np.inf` is a second copy of the range rule and
    # of its messages; the rule itself is the one place that compares with inf
    stray, in_rule = [], []
    for path, tree in _modules():
        rule = [node for node in tree.body if isinstance(node, ast.FunctionDef)
                and (path.stem, node.name) == ("system", "check_range")]
        exempt = {id(node) for fn in rule for node in ast.walk(fn)}
        for node in _inf_comparisons(tree):
            (in_rule if id(node) in exempt else stray).append(f"{path.name}:{node.lineno}")
    assert stray == []
    assert in_rule, "system.check_range no longer compares with inf"


def test_no_module_names_seed_sequence():
    # Philox keys come from philox_keys alone; numpy's per-row SeedSequence
    # is the tests' reference, not a second path of the package
    named = [f"{path.name}:{node.lineno}" for path, tree in _modules()
             for node in ast.walk(tree)
             if (isinstance(node, ast.Name) and node.id == "SeedSequence")
             or (isinstance(node, ast.Attribute) and node.attr == "SeedSequence")
             or (isinstance(node, ast.alias) and node.name.endswith("SeedSequence"))]
    assert named == []
