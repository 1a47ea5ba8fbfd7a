"""Guard: each number the CLI prints has one producer in the library.

The CLI's grids print the suites' own numbers, so `cli.py` runs no projection
or weighted sum of its own: this test parses it with `ast` and asserts that it
calls neither `fourier_jacobi_coefficients` nor `jacobi_weighted_sum`, by any
name or attribute. Gauss-Jacobi rules are cached once, in
`quadrature._gauss_jacobi_raw` (which shares `gauss_legendre`'s Legendre
rules); `polynomials._roots_jacobi_cached` only reads it. The integrals of
the Watson kernel take their cells from one helper, `kernels._kernel_cells`,
and choose no rule of their own; `modified_abel_mean` reaches the kernel only
through `abel_mean`. In `abel.py` only `_as_expansion` projects (`_project`,
`_project_residual`); the halfweight route of `modified_abel_mean` is a call
of it. No function there builds a rule itself (`quadrature_rule`,
`cell_rules`): each takes rules that absorb f's declared exponents
(`_absorbing_rule`). The measure layer inverts mu once
(`measure._invert_mass`); `harmonic.py` bisects for no mass itself.
"""

import ast
from pathlib import Path

from jacobi_watson import polynomials, quadrature

SRC = Path(__file__).resolve().parents[1] / "src" / "jacobi_watson"
CLI = SRC / "cli.py"


def _called_names(tree: ast.AST) -> set[str]:
    names = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Call):
            f = node.func
            if isinstance(f, ast.Name):
                names.add(f.id)
            elif isinstance(f, ast.Attribute):
                names.add(f.attr)
    return names


def test_cli_runs_no_projection_of_its_own():
    called = _called_names(ast.parse(CLI.read_text(), filename=str(CLI)))
    assert "abel_mean" in called  # the scan sees the calls it should
    assert not called & {"fourier_jacobi_coefficients", "jacobi_weighted_sum"}


def test_one_gauss_jacobi_rule_cache():
    assert not hasattr(polynomials._roots_jacobi_cached, "cache_info")
    assert hasattr(quadrature._gauss_jacobi_raw, "cache_info")
    # the same arrays, not copies: the rule is held once
    got = polynomials._roots_jacobi_cached(600, 0.25, -0.5)
    raw = quadrature._gauss_jacobi_raw(600, 0.25, -0.5)
    assert got[0] is raw[0] and got[1] is raw[1]
    assert polynomials.gauss_jacobi_rule(polynomials.JacobiParams(0.25, -0.5), 600).nodes is raw[0]


def test_kernel_integrals_take_the_kernel_cells():
    helpers = {
        ("kernels.py", "kernel_mass"): "_kernel_cells",
        ("abel.py", "abel_mean"): "_kernel_cells",
        ("abel.py", "modified_abel_mean"): "abel_mean",
    }
    for (module, name), helper in helpers.items():
        tree = ast.parse((SRC / module).read_text(), filename=module)
        (fn,) = [n for n in tree.body if isinstance(n, ast.FunctionDef) and n.name == name]
        called = _called_names(fn)
        assert helper in called, name
        assert not called & {"quadrature_rule", "gauss_jacobi_rule", "graded_breakpoints"}, name
    # the function-expansion mean is a view: its kernel integral is abel_mean's
    called = _called_names(_functions("abel.py")["modified_abel_mean"])
    assert not called & {"_kernel_cells", "_kernel_edges", "watson_series_matrix"}


def _functions(module: str) -> dict:
    tree = ast.parse((SRC / module).read_text(), filename=module)
    return {n.name: n for n in ast.walk(tree) if isinstance(n, ast.FunctionDef)}


def test_abel_projects_only_in_as_expansion():
    functions = _functions("abel.py")
    engine = {"_project", "_project_residual"}
    assert engine <= _called_names(functions["_as_expansion"])
    for name, fn in functions.items():
        if name != "_as_expansion":
            assert not _called_names(fn) & engine, name
    called = _called_names(functions["modified_abel_mean"])
    assert "_as_expansion" in called
    rule_builders = {"_gauss_jacobi_raw", "gauss_jacobi_rule", "gauss_legendre", "quadrature_rule"}
    assert not called & rule_builders
    # every rule against J comes through `_absorbing_rule`
    for name, fn in functions.items():
        assert not _called_names(fn) & {"quadrature_rule", "cell_rules"}, name


def test_harmonic_inverts_no_mass_of_its_own():
    functions = _functions("harmonic.py")
    assert "_extend_by_mass" not in functions
    called = _called_names(functions["cz_decompose"])
    assert "_invert_mass" in called and "equal_measure_split" not in called
