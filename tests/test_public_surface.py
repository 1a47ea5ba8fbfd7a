"""Guard: every public name serves a claim of the paper, a suite or the benchmark.

A public definition that nothing runs is code to keep that no result needs.
This test parses `src/` with `ast` and walks names through the package's
top-level definitions: from a reached definition, every identifier it holds
(a `Name` id or an `Attribute` attr) that names a top-level definition of any
module reaches that definition too. The walk starts from `cli.main`,
`cli.SUITES`, and every `__all__` name that `perfbench/*.py` names as a word.
Names are matched by identifier only, so a local of the same name also counts.

Every name in a module's `__all__` must be reached, or sit on one of two
allowlists, each entry with its reason:
- `AWAITING_SUITE`: library code of a paper statement that no CLI suite checks
  yet (ROADMAP item 15). When its suite lands, the entry leaves the list.
- `TEST_REFERENCE`: helpers that tests use to compute expected values.
An allowlisted name must exist and still be unreached, so the lists cannot go
stale. When item 15 is done, `AWAITING_SUITE` is empty.
"""

import ast
import re
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
PACKAGE = ROOT / "src" / "jacobi_watson"

_BASIC = "the basic inequality K <= C(1 + L) (ROADMAP item 15)"
_ZYGMUND = "Zygmund's theorem for Borel measures (ROADMAP item 15)"
_FUNCTIONS = "expansions in Jacobi functions (ROADMAP item 15)"
AWAITING_SUITE = {
    "L_majorant": _BASIC,
    "basic_inequality_constant": _BASIC,
    "ZygmundConstants": _ZYGMUND,
    "zygmund_constants": _ZYGMUND,
    "zygmund_bound_check": _ZYGMUND,
    "kernel_level_bound_check": _ZYGMUND,
    "lateral_maximal": _ZYGMUND,
    "modified_watson_kernel": _FUNCTIONS,
    "jacobi_function_eval": _FUNCTIONS,
}
TEST_REFERENCE = {
    "QuadratureRule": "the result type of gauss_jacobi_rule",
    "gauss_jacobi_rule": "plain Gauss-Jacobi rules for expected integrals",
    "binomial_real": "P_n(1) = C(n + alpha, n) in closed form",
}


def _parse(path: Path) -> ast.Module:
    return ast.parse(path.read_text(), filename=str(path))


def _modules() -> dict[str, ast.Module]:
    return {path.stem: _parse(path) for path in sorted(PACKAGE.glob("*.py"))}


def _public_names(tree: ast.Module) -> set[str]:
    for node in tree.body:
        if isinstance(node, ast.Assign) and any(
            isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets
        ):
            return {ast.literal_eval(e) for e in node.value.elts}
    return set()


def _definitions(modules) -> dict[str, list[ast.AST]]:
    """Top-level name -> the nodes that define it, over every module."""
    defs: dict[str, list[ast.AST]] = {}
    for tree in modules.values():
        for node in tree.body:
            if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
                defs.setdefault(node.name, []).append(node)
            elif isinstance(node, (ast.Assign, ast.AnnAssign)):
                targets = node.targets if isinstance(node, ast.Assign) else [node.target]
                for t in targets:
                    if isinstance(t, ast.Name):
                        defs.setdefault(t.id, []).append(node)
    return defs


def _identifiers(node: ast.AST):
    for sub in ast.walk(node):
        if isinstance(sub, ast.Name):
            yield sub.id
        elif isinstance(sub, ast.Attribute):
            yield sub.attr


def public_names() -> set[str]:
    return set().union(*map(_public_names, _modules().values()))


def roots() -> set[str]:
    words = set()
    for path in sorted((ROOT / "perfbench").glob("*.py")):
        words |= set(re.findall(r"\w+", path.read_text()))
    return {"main", "SUITES"} | (public_names() & words)


def reached() -> set[str]:
    defs = _definitions(_modules())
    seen, todo = set(), [n for n in roots() if n in defs]
    while todo:
        name = todo.pop()
        if name in seen:
            continue
        seen.add(name)
        for node in defs[name]:
            todo += [n for n in _identifiers(node) if n in defs and n not in seen]
    return seen


def unreached() -> set[str]:
    return public_names() - reached()


def test_the_walk_follows_names_into_the_library():
    # kernel_mass is reached through cli.SUITES, doubling_ratio through
    # doubling_sweep, which perfbench names
    assert {"_kernel_mass", "kernel_mass", "doubling_sweep", "doubling_ratio"} <= reached()


def test_every_public_name_is_reached_or_allowlisted():
    assert sorted(unreached() - AWAITING_SUITE.keys() - TEST_REFERENCE.keys()) == []


def test_every_allowlisted_name_exists_and_is_unreached():
    listed = AWAITING_SUITE.keys() | TEST_REFERENCE.keys()
    assert sorted(listed - public_names()) == []
    assert sorted(listed & reached()) == []
