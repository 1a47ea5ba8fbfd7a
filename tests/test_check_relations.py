"""Guard: each CLI check states its bound once.

A check whose rule is value <= bound (with a relative slack), >= bound,
> bound, |value - want| <= tol or isfinite(value) goes through the `Report`
relation of that name, which records the bound it tests. `Report.add` is
left for the checks below, whose predicate is none of these: this test
parses `cli.py` with `ast` and fails on an `add(...)` call whose anchor is
not in `CUSTOM`, so a new check that could use a relation does.
"""

import ast
from pathlib import Path

CLI = Path(__file__).resolve().parents[1] / "src" / "jacobi_watson" / "cli.py"
RELATIONS = {"at_most", "at_least", "above", "near", "finite"}

# anchor -> why its predicate is not one of the relations
CUSTOM = {
    "maximal-grid-growth": "every grid point may drop by 1e-12; the value is the least change",
    "mean-converges": "each step decreases or is at rounding level; records last vs first",
    "global-average-above": "average above lambda and no interval selected",
    "ap-inadmissible": "the value must be infinite",
    "ap-divergence": "the probe's own divergence verdict",
    "dyadic-nesting": "a structural flag over all consecutive intervals",
    "shift-stability": "the library's verdict over two regions; the value is the worse ratio",
    "box-inequalities": "the library's verdict over six inequalities",
    "a1-stable": "finite and strictly below twice the coarse constant",
    "l1-norm": "soft note: a reported value, never gated",
    "dyadic-domination": "soft note: a reported value, never gated",
    "box-fitted": "soft note: a reported value, never gated",
    "no-numerical-divergence": "the record of a numerical failure: nan, no bound, failed",
}


def _report_calls() -> dict:
    """method name -> anchors of the `.add(...)` and relation calls in cli.py."""
    calls: dict = {}
    for node in ast.walk(ast.parse(CLI.read_text(), filename=str(CLI))):
        if (isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute)
                and node.func.attr in RELATIONS | {"add"}):
            anchor = node.args[1]
            assert isinstance(anchor, ast.Constant) and isinstance(anchor.value, str), (
                f"line {node.lineno}: the anchor must be a string literal")
            calls.setdefault(node.func.attr, []).append(anchor.value)
    return calls


def test_add_is_only_for_custom_checks():
    calls = _report_calls()
    assert set(calls["add"]) <= set(CUSTOM), set(calls["add"]) - set(CUSTOM)


def test_allowlist_names_only_checks_that_exist():
    assert set(_report_calls()["add"]) == set(CUSTOM)


def test_the_scan_sees_every_relation():
    assert set(_report_calls()) == RELATIONS | {"add"}
