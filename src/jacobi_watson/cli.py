"""Command-line front end: verification suites and plot-ready grids.

One table, `SUITES`, names every command and its suites and maps each suite
to the function that runs its checks. Every run emits a report whose JSON form
is byte-stable for a fixed configuration and seed (timing is only embedded on
request). Exit status: 0 when every hard check passes, 1 when a check fails or
a computation diverges, 2 for unusable configuration.
"""

from __future__ import annotations

import argparse
import json
import math
import sys
import time
import typing
from dataclasses import dataclass, replace

import numpy as np

from . import abel, estimates, harmonic
from .errors import (
    ConvergenceError,
    DegenerateInputError,
    DomainError,
    RegimeError,
    RegionError,
    SingularEvaluationError,
)
from .kernels import (
    AbelParameter,
    BaileyArguments,
    _series_pairs,
    kernel_mass,
    watson_kernel_bailey,
    watson_kernel_integral,
    watson_series_matrix,
)
from .measure import WeightedMeasure
from .polynomials import JacobiParams, jacobi_eval
from .reporting import Report, grid_csv

_NUMERIC_ERRORS = (
    ConvergenceError,
    DegenerateInputError,
    RegimeError,
    RegionError,
    SingularEvaluationError,
    FloatingPointError,
    OverflowError,
    ZeroDivisionError,
)


@dataclass
class RunConfig:
    """Everything a run needs; flags override --config file entries."""

    command: str
    suite: str = ""
    alpha: float = 0.0
    beta: float = 0.0
    r_grid: tuple = (0.5, 0.9)
    lam_grid: tuple = (0.7,)
    x_points: int = 25
    y_point: float = 0.25
    measure: str = "jacobi:0.5,0.5"
    f_name: str = "bump"
    tol: float = 1e-8
    seed: int = 0
    refine: int = 1
    out: str = ""
    fmt: str = "json"
    timing: bool = False

    def validate(self) -> None:
        if not (self.alpha > -1.0 and self.beta > -1.0):
            raise DomainError(f"need alpha, beta > -1, got ({self.alpha}, {self.beta})")
        if len(self.r_grid) == 0 or len(self.lam_grid) == 0:
            raise DomainError("grids must be nonempty")
        if self.x_points < 2:
            raise DomainError(f"--x-points must be at least 2, got {self.x_points}")
        if self.refine < 1:
            raise DomainError(f"--refine must be at least 1, got {self.refine}")
        if self.refine > 6:
            # the maximal grid's top radius 1 - 2^-(8 refine) rounds to 1 past 6
            raise DomainError(f"--refine must be at most 6, got {self.refine}")
        if any(not (0.0 < r < 1.0) for r in self.r_grid):
            raise DomainError("r grid must lie inside (0, 1)")
        if self.tol <= 0.0:
            raise DomainError(f"tolerance must be positive, got {self.tol}")
        if self.seed < 0:
            raise DomainError(f"seed must be >= 0, got {self.seed}")
        if self.fmt not in ("json", "csv"):
            raise DomainError(f"format must be json or csv, got {self.fmt!r}")
        runners = SUITES.get(self.command)
        if runners is not None:
            if self.suite not in runners:
                raise DomainError(
                    f"suite {self.suite!r} not in {tuple(runners)} for {self.command}"
                )
            if runners[self.suite] is None and self.fmt != "csv":
                # a grid has no checks, so a JSON report of it would pass vacuously
                raise DomainError(f"suite {self.suite!r} emits CSV only; pass --format csv")
        _parse_measure(self.measure)  # fail fast on a bad measure spec
        el, er = _pick_function(self, self.params).exponents  # and on an unknown --f
        if self.alpha + er <= -1.0 or self.beta + el <= -1.0:
            raise DomainError(f"{self.f_name} is not in L^1(J): f J(dx) has an end power <= -1")

    def echo(self) -> dict:
        return {
            "command": self.command,
            "suite": self.suite,
            "alpha": self.alpha,
            "beta": self.beta,
            "r_grid": list(self.r_grid),
            "lambda_grid": list(self.lam_grid),
            "x_points": self.x_points,
            "y_point": self.y_point,
            "measure": self.measure,
            "f": self.f_name,
            "tol": self.tol,
            "seed": self.seed,
            "refine": self.refine,
            "format": self.fmt,
        }

    @property
    def params(self) -> JacobiParams:
        return JacobiParams(self.alpha, self.beta)


_FIELD_TYPES = typing.get_type_hints(RunConfig)


def _parse_measure(spec: str) -> WeightedMeasure:
    head, _, rest = spec.partition(":")
    try:
        nums = [float(t) for t in rest.split(",") if t != ""]
        if head == "lebesgue":
            a, b = nums if nums else (0.0, 1.0)
            return WeightedMeasure.lebesgue(a, b)
        if head == "jacobi":
            return WeightedMeasure.jacobi(*nums)
        if head == "power":
            if len(nums) not in (1, 3):
                raise DomainError(f"power takes 1 or 3 numbers, got {len(nums)}")
            return WeightedMeasure.power(nums[0], nums[1:] or (0.0, 1.0))
    except (TypeError, ValueError) as exc:
        raise DomainError(f"bad measure spec {spec!r}: {exc}") from None
    raise DomainError(f"unknown measure family {head!r}")


def _pick_function(cfg: RunConfig, p: JacobiParams):
    family = {tf.tag: tf for tf in abel.test_function_family(p)}
    if cfg.f_name not in family:
        raise DomainError(f"unknown test function {cfg.f_name!r}; have {list(family)}")
    return family[cfg.f_name]


def _x_grid(cfg: RunConfig, jitter=False):
    xs = np.linspace(-1.0, 1.0, cfg.x_points)
    if jitter and cfg.x_points > 2:
        rng = np.random.default_rng(cfg.seed)
        h = 2.0 / (cfg.x_points - 1)
        xs[1:-1] = xs[1:-1] + 0.4 * h * rng.uniform(-1.0, 1.0, cfg.x_points - 2)
    return xs


# ---- kernel ------------------------------------------------------------------


def _kernel_mass(cfg: RunConfig, rep: Report) -> None:
    p = cfg.params
    xs = np.linspace(-0.9, 0.9, 5)
    for r in cfg.r_grid:
        tol = 1e-8 if r <= 0.95 else 1e-6
        worst = max(abs(kernel_mass(p, AbelParameter(r), x) - 1.0) for x in xs)
        rep.at_most(f"mass r={r:g}", "mass-conservation", worst, tol)


def _kernel_positivity(cfg: RunConfig, rep: Report) -> None:
    p = cfg.params
    xs = _x_grid(cfg, jitter=True)
    for r in cfg.r_grid:
        mat, _, _ = watson_series_matrix(p, r, xs, xs)
        low = float(mat.min())
        rep.at_least(f"min r={r:g}", "kernel-nonnegative", low, -1e-10)


def _kernel_crossval(cfg: RunConfig, rep: Report) -> None:
    p = cfg.params
    xs = np.linspace(-0.9, 0.9, 8)
    for r in cfg.r_grid:
        ab = AbelParameter(r)
        pairs = [(x, y) for x in xs for y in xs
                 if BaileyArguments.from_points(ab, x, y).margin > 0.1]
        series, _, _ = _series_pairs(p, r, *np.array(pairs).T)
        worst = 0.0
        for (x, y), a in zip(pairs, series):
            b = watson_kernel_bailey(p, ab, x, y).value
            worst = max(worst, abs(a - b) / max(abs(a), 1e-300))
        rep.at_most(f"series-vs-product r={r:g}", "dual-route-agreement", worst, 1e-8)
        if p.alpha + p.beta > -1.0:
            worst = 0.0
            xi = np.linspace(-0.8, 0.8, 3)
            series, _, _ = _series_pairs(p, r, xi, 0.3)
            for x, a in zip(xi, series):
                c = watson_kernel_integral(p, ab, x, 0.3).value
                worst = max(worst, abs(a - c) / max(abs(a), 1e-300))
            rep.at_most(f"series-vs-integral r={r:g}", "integral-route-agreement", worst, 1e-4)


def _grid_kernel(cfg: RunConfig):
    p = cfg.params
    rows = []
    xs = _x_grid(cfg)
    for r in cfg.r_grid:
        values, _, tail = _series_pairs(p, r, xs, cfg.y_point)
        rows.extend((x, r, v, "series", tail) for x, v in zip(xs, values))
    return rows


# ---- abel --------------------------------------------------------------------


def _abel_inputs(cfg: RunConfig):
    p = cfg.params
    return p, _pick_function(cfg, p), _x_grid(cfg)


def _abel_mean(cfg: RunConfig, rep: Report) -> None:
    p, f, xs = _abel_inputs(cfg)
    for r in cfg.r_grid:
        ab = AbelParameter(r)
        vals = abel.abel_mean(f, p, ab, xs)
        if f.tag == "pk:3":
            want = r**3 * jacobi_eval(p, 3, xs)
            worst = float(np.max(np.abs(vals - want)))
            rep.at_most(f"single-term r={r:g}", "damped-eigenvector", worst, 1e-10)
        else:
            step = max(1, xs.size // 5)
            dual = abel.abel_mean(f, p, ab, xs[::step], route="kernel")
            # the series sum is elementwise in x, so the subgrid's values are
            # those already computed
            ser = vals[::step]
            worst = float(np.max(np.abs(dual - ser)))
            rep.at_most(f"dual-route r={r:g}", "series-vs-kernel-mean", worst, 1e-6)


def _maximal_pair(cfg: RunConfig, coarse: int, fine: int):
    """x grid and `jacobi_maximal` over default_r_grid(coarse) and (fine).

    One expansion, resolved at the fine grid's top radius, serves both grids.
    """
    p, f, xs = _abel_inputs(cfg)
    e = abel._as_expansion(f, p, 1.0 - 2.0**-fine, 1e-8)
    va, vb = (np.asarray(abel.jacobi_maximal(e, p, xs, abel.default_r_grid(n)))
              for n in (coarse, fine))
    return xs, va, vb


def _abel_maximal(cfg: RunConfig, rep: Report) -> None:
    _, va, vb = _maximal_pair(cfg, 10, 12)
    mono = bool(np.all(vb >= va - 1e-12))
    rep.add(
        "refinement-monotone",
        "maximal-grid-growth",
        float(np.min(vb - va)),
        0.0,
        mono,
    )
    rep.finite("sup finite", "maximal-finite", float(np.max(vb)))


def _abel_lp(cfg: RunConfig, rep: Report) -> None:
    p, f, _ = _abel_inputs(cfg)
    norms = abel.lp_convergence_probe(f, p, 2.0, cfg.r_grid)
    # an error at rounding level has converged, whatever its sign of change
    settled = np.asarray(norms[1:]) <= 1e-12 * abel.lp_norm(f, p, 2.0)
    dec = bool(np.all((np.diff(norms) < 0.0) | settled)) if len(norms) > 1 else True
    rep.add(
        "L2 error decreasing",
        "mean-converges",
        float(norms[-1]),
        float(norms[0]),
        dec,
    )


def _grid_abel(cfg: RunConfig):
    if SUITES["abel"][cfg.suite] is _abel_maximal:
        n_r = 8 * cfg.refine
        xs, prev, vals = _maximal_pair(cfg, max(2, n_r - 2), n_r)
        r_top = 1.0 - 2.0**-n_r
        return [
            (x, r_top, v, f"maximal:{n_r}", abs(v - q))
            for x, v, q in zip(xs, vals, prev)
        ]
    # the mean suite's numbers: the series route, and its gap to the kernel
    # route, which raises ConvergenceError on the series cliff from r = 0.995
    p, f, xs = _abel_inputs(cfg)
    rows = []
    for r in cfg.r_grid:
        ab = AbelParameter(r)
        vals = abel.abel_mean(f, p, ab, xs)
        gap = np.abs(abel.abel_mean(f, p, ab, xs, route="kernel") - vals)
        rows.extend((x, r, v, "series", g) for x, v, g in zip(xs, vals, gap))
    return rows


# ---- cz ------------------------------------------------------------------------


def _cz_decompose(cfg: RunConfig, rep: Report) -> None:
    m = _parse_measure(cfg.measure)
    p = cfg.params
    f = _pick_function(cfg, p)
    a, b = m.support
    norm1 = None
    for lam in cfg.lam_grid:
        d = harmonic.cz_decompose(m, f, lam)
        norm1 = d.norm1
        tag = f"lam={lam:g}"
        if d.trivial:
            avg = d.norm1 / m.total_mass
            rep.add(
                f"{tag} trivial certificate",
                "global-average-above",
                avg,
                lam,
                avg > lam and len(d.intervals) == 0,
            )
            continue
        avgs = [iv[2] for iv in d.intervals]
        sel_lo = min(avgs) if avgs else lam + 1
        sel_hi = max(avgs) if avgs else 0.0
        rep.above(f"{tag} selected averages > lam", "selection-lower", sel_lo, lam)
        rep.at_most(f"{tag} selected averages <= 2 lam", "selection-upper", sel_hi, 2.0 * lam,
                    slack=1e-12)
        tot, _ = harmonic._merged_mass(m, [(iv[0], iv[1]) for iv in d.intervals])
        rep.at_most(f"{tag} selected mass", "selection-mass", tot, d.norm1 / lam, slack=1e-10)
        rep.at_most(f"{tag} inflated mass", "inflated-mass", d.mass_Gstar, 3.0 * d.norm1 / lam,
                    slack=1e-10)
        xs = np.linspace(a + 1e-9, b - 1e-9, 101)
        recon = float(np.max(np.abs(f(xs) - d.good(xs) - d.bad(xs))))
        rep.at_most(f"{tag} f = g + b", "reconstruction", recon, 1e-9)
    if norm1 is not None:
        rep.add("norm echo", "l1-norm", norm1, None, True, hard=False)


# ---- weights -------------------------------------------------------------------


def _weights_identity(cfg: RunConfig, rep: Report) -> None:
    m = WeightedMeasure.lebesgue(0.0, 1.0)
    one = harmonic.PowerWeight(())
    rep.near("a1 of unit weight", "unit-a1", harmonic.a1_constant(one, m), 1.0, 1e-10)
    rep.near("a2 of unit weight", "unit-ap", harmonic.ap_constant(one, m, 2.0), 1.0, 1e-10)


def _weights_power(cfg: RunConfig, rep: Report) -> None:
    worst = 0.0
    for a_out, a_in in ((2.0, -0.5), (1.0, -0.3)):
        base = WeightedMeasure.power(a_out)
        w = harmonic.PowerWeight(((0.0, a_in),))
        for x in np.linspace(0.05, 1.0, 20):
            got = harmonic.weighted_interval_average(base, w, (0.0, x))
            want = (a_out + 1.0) / (a_out + a_in + 1.0) * x**a_in
            worst = max(worst, abs(got - want) / want)
    rep.at_most("left-average identity", "power-average-closed-form", worst, 1e-8)


def _weights_jacobi_a1(cfg: RunConfig, rep: Report) -> None:
    m = WeightedMeasure.jacobi(0.5, 0.5)
    w = harmonic.PowerWeight(((1.0, -0.3), (-1.0, -0.3)))
    v1 = harmonic.a1_constant(w, m, grid_size=256)
    v2 = harmonic.a1_constant(w, m, grid_size=512)
    ok = math.isfinite(v2) and v2 < 2.0 * v1
    rep.add("jacobi a1 refinement", "a1-stable", v2, 2.0 * v1, ok)


def _weights_ap(cfg: RunConfig, rep: Report) -> None:
    m = WeightedMeasure.lebesgue(0.0, 1.0)
    good = harmonic.ap_constant(harmonic.PowerWeight(((0.0, 0.5),)), m, 2.0)
    bad = harmonic.ap_constant(harmonic.PowerWeight(((0.0, 1.5),)), m, 2.0)
    rep.finite("inside class finite", "ap-admissible", good)
    rep.add(
        "outside class infinite",
        "ap-inadmissible",
        bad,
        None,
        math.isinf(bad),
    )


def _weights_divergence(cfg: RunConfig, rep: Report) -> None:
    m = WeightedMeasure.lebesgue(0.0, 1.0)
    probe = harmonic.ap_divergence_probe(harmonic.PowerWeight(((0.0, 1.5),)), m, 2.0)
    rep.add(
        "probe flags divergence",
        "ap-divergence",
        probe["sups"][-1],
        None,
        probe["divergent"],
    )


# ---- estimates -----------------------------------------------------------------


def _estimates_poisson(cfg: RunConfig, rep: Report) -> None:
    a = cfg.alpha
    for tag, alpha in (("k1", None), ("k2", None), ("k3", None), ("k4", a if a > -1 else 0.5)):
        kern = estimates.PoissonTypeKernel(tag, alpha)
        name = tag if alpha is None else f"{tag} alpha={alpha:g}"
        rep.near(f"mass {name}", "comparison-kernel-mass", estimates.poisson_mass(tag, alpha),
                 kern.analytic_mass, 1e-6)


def _estimates_dyadic(cfg: RunConfig, rep: Report) -> None:
    p = cfg.params
    ab = AbelParameter(max(cfg.r_grid))
    maj = estimates.DyadicMajorant(p, ab, 0.5)
    iv = maj.intervals
    nested = all(
        iv[i][0] >= iv[i + 1][0] and iv[i][1] <= iv[i + 1][1]
        for i in range(len(iv) - 1)
    )
    rep.add("intervals nested", "dyadic-nesting", float(nested), None, nested)
    c = estimates.dyadic_domination_constant(
        p, cfg.r_grid, [0.2, 0.5, 0.9], np.linspace(-0.9, 0.9, 13)
    )
    rep.add("domination constant", "dyadic-domination", c, None, math.isfinite(c), hard=False)


def _estimates_auxiliary(cfg: RunConfig, rep: Report) -> None:
    sups = [0.0, 0.0, 0.0]
    for j in range(1, 13):
        ab = AbelParameter(1.0 - 2.0**-j)
        v1, v2 = estimates.estm_integrals(ab, 0.7)
        pv = estimates.estm_proof_variant(ab)
        sups = [max(sups[0], v1), max(sups[1], v2), max(sups[2], pv)]
    rep.finite("windowed integral sup", "auxiliary-bounded", sups[0])
    rep.finite("endpoint-weighted sup", "auxiliary-bounded", sups[1])
    rep.at_most("rearranged variant sup", "auxiliary-mass-bound", sups[2], 4.0)


def _estimates_shift(cfg: RunConfig, rep: Report) -> None:
    for eta in (1.1, 1.5, 3.0):
        out = estimates.kernel_shift_check(eta)
        rep.add(
            f"regional bounds eta={eta:g}",
            "shift-stability",
            max(out["worst_far"] / out["bound_far"], out["worst_near"] / out["bound_near"]),
            1.0,
            out["holds"],
        )


def _estimates_mainest(cfg: RunConfig, rep: Report) -> None:
    worst_ratio = 0.0
    sup = 0.0
    for a in (-0.5, 0.0, 1.7):
        pp = JacobiParams(a, cfg.beta)
        for r in cfg.r_grid:
            ab = AbelParameter(r)
            v = estimates.mainest_integral(pp, ab, 0.5)
            w = estimates.mainest_integral(pp, ab, 0.5, n_y=96, n_s=32, level=3)
            sup = max(sup, w)
            worst_ratio = max(worst_ratio, max(v, w) / max(min(v, w), 1e-300))
    rep.finite("superposition sup", "mainest-finite", sup)
    rep.at_most("refinement ratio", "mainest-stable", worst_ratio, 1.5)


def _estimates_joperator(cfg: RunConfig, rep: Report) -> None:
    p = cfg.params
    f = _pick_function(cfg, cfg.params)
    worst = estimates.j_domination_probe(
        p, f, cfg.r_grid, np.linspace(0.05, 0.9, 5)
    )
    rep.finite("maximal domination ratio", "averaging-dominated", worst)


def _estimates_sxy(cfg: RunConfig, rep: Report) -> None:
    out = estimates.sxy_inequalities_check()
    rep.add(
        "literal comparison constants",
        "box-inequalities",
        float(out["holds"]),
        1.0,
        out["holds"],
    )
    rep.at_least("lower rate constant", "localization-rate", out["vii"]["rate_range"][0], 0.125)
    for key in ("iii", "iv", "v"):
        fit = out[key].get("C2_fit", out[key].get("C_fit"))
        rep.add(f"fitted constant {key}", "box-fitted", fit, None, True, hard=False)


# ---- plumbing ------------------------------------------------------------------

# command -> {suite: check runner}, in --help order; the first suite is the
# default, and a suite without a runner is a CSV-only grid
SUITES = {
    "kernel": {"mass": _kernel_mass, "positivity": _kernel_positivity,
               "crossval": _kernel_crossval, "grid": None},
    "abel": {"mean": _abel_mean, "maximal": _abel_maximal, "lp": _abel_lp, "grid": None},
    "cz": {"decompose": _cz_decompose},
    "weights": {"identity": _weights_identity, "power": _weights_power,
                "jacobi-a1": _weights_jacobi_a1, "ap": _weights_ap,
                "divergence": _weights_divergence},
    "estimates": {"poisson": _estimates_poisson, "dyadic": _estimates_dyadic,
                  "auxiliary": _estimates_auxiliary, "shift": _estimates_shift,
                  "mainest": _estimates_mainest, "joperator": _estimates_joperator,
                  "sxy": _estimates_sxy},
}

# command -> CSV grid emitter; `--format csv` emits it for any suite
_GRIDS = {"kernel": _grid_kernel, "abel": _grid_abel}

# the suites report-all merges, with the config entries it overrides for each
_REPORT_ALL = {
    _kernel_mass: {}, _kernel_positivity: {}, _abel_mean: {"f_name": "pk:3"},
    _cz_decompose: {}, _weights_identity: {}, _weights_power: {},
    _estimates_poisson: {}, _estimates_shift: {}, _estimates_sxy: {},
}


def run(cfg: RunConfig) -> Report:
    """Dispatch one configuration; a numerical failure becomes a failed check
    after the records made before it, and is named on stderr."""
    cfg.validate()
    runner = SUITES[cfg.command][cfg.suite] if cfg.command in SUITES else _report_all
    rep = Report(cfg.command, cfg.echo())
    try:
        runner(cfg, rep)
    except _NUMERIC_ERRORS as exc:
        # a diverging computation is a failed check, never a crash
        print(f"numerical failure: {type(exc).__name__}: {exc}", file=sys.stderr)
        rep.add(f"{cfg.suite} completed", "no-numerical-divergence", math.nan, None, False)
    return rep


def _report_all(cfg: RunConfig, rep: Report) -> None:
    subs = [
        (suite, run(replace(cfg, command=cmd, suite=suite, **_REPORT_ALL[runner])))
        for cmd, runners in SUITES.items()
        for suite, runner in runners.items()
        if runner in _REPORT_ALL
    ]
    for _, sub in sorted(subs, key=lambda t: t[0]):
        rep.extend(sub)


def emit_grid(cfg: RunConfig) -> str:
    """CSV grid for the current command/suite; deterministic row order."""
    cfg.validate()
    if cfg.command not in _GRIDS:
        raise DomainError(f"no grid emitter for command {cfg.command!r}")
    return grid_csv(_GRIDS[cfg.command](cfg))


def _float_list(text: str) -> tuple:
    try:
        return tuple(float(t) for t in text.split(","))
    except ValueError:
        raise argparse.ArgumentTypeError(f"not a comma list of numbers: {text!r}") from None


def _build_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(
        prog="jacobi-watson",
        description="verification suites and grids for weighted expansion summability",
    )
    # the options every command shares, declared once: each add_argument call
    # builds a HelpFormatter, which asks for the terminal size
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--config", help="JSON file with defaults")
    common.add_argument("--alpha", type=float)
    common.add_argument("--beta", type=float)
    common.add_argument("--r", dest="r_grid", metavar="R", type=_float_list,
                        help="comma list of r values in (0,1)")
    common.add_argument("--x-points", type=int)
    common.add_argument("--y", dest="y_point", metavar="Y", type=float,
                        help="second kernel argument")
    common.add_argument("--lambda", dest="lam_grid", metavar="LAM", type=_float_list,
                        help="comma list of levels")
    common.add_argument("--measure", help="lebesgue[:a,b] | jacobi:a,b | power:e[:l,r]")
    common.add_argument("--f", dest="f_name", metavar="F", help="test function name")
    common.add_argument("--tol", type=float)
    common.add_argument("--seed", type=int)
    common.add_argument("--refine", type=int)
    common.add_argument("--out")
    common.add_argument("--format", dest="fmt", choices=("json", "csv"))
    common.add_argument("--timing", action="store_true", default=None)
    sub = ap.add_subparsers(dest="command", required=True)
    for cmd in (*SUITES, "report-all"):
        sp = sub.add_parser(cmd, parents=[common])
        if cmd in SUITES:
            sp.add_argument("--suite", choices=SUITES[cmd])
    return ap


def _typed(key: str, val, kind: type):
    """`val` checked against the field type `kind`; an int stays an int where a
    float is expected, and a grid becomes a tuple of floats."""
    if kind is tuple:
        if isinstance(val, (list, tuple)):
            try:
                return tuple(float(v) for v in val)
            except (TypeError, ValueError):
                pass
    elif isinstance(val, bool) == (kind is bool) and isinstance(
        val, (int, float) if kind is float else kind
    ):
        return val
    want = "a list of numbers" if kind is tuple else kind.__name__
    raise DomainError(f"config key {key!r} needs {want}, got {val!r}")


def _config_from_args(args) -> RunConfig:
    flags = {key: val for key, val in vars(args).items() if val is not None}
    path = flags.pop("config", None)
    merged: dict = {}
    if path:
        with open(path, "r", encoding="utf-8") as fh:
            merged = json.load(fh)
        if not isinstance(merged, dict):
            raise DomainError(f"config file must hold a JSON object, got {merged!r}")
    merged.update(flags)
    cfg = RunConfig(command=args.command, suite=next(iter(SUITES.get(args.command, ())), ""))
    for key, val in merged.items():
        if key not in _FIELD_TYPES:
            raise DomainError(f"unknown config key {key!r}")
        setattr(cfg, key, _typed(key, val, _FIELD_TYPES[key]))
    return cfg


def main(argv=None) -> int:
    ap = _build_parser()
    args = ap.parse_args(argv)
    try:
        cfg = _config_from_args(args)
        cfg.validate()
    except (DomainError, OSError, json.JSONDecodeError, UnicodeDecodeError) as exc:
        print(f"configuration error: {exc}", file=sys.stderr)
        return 2
    t0 = time.perf_counter()
    try:
        if cfg.fmt == "csv":
            text, status = emit_grid(cfg), 0
        else:
            report = run(cfg)
            text = report.to_json(time.perf_counter() - t0 if cfg.timing else None)
            status = 0 if report.aggregate_pass else 1
    except DomainError as exc:
        # also an input a suite refuses, such as an f < 0 for cz_decompose
        print(f"configuration error: {exc}", file=sys.stderr)
        return 2
    except _NUMERIC_ERRORS as exc:
        # run() records these as failed checks; a CSV grid has no place for them
        print(f"numerical failure: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 1
    if cfg.out:
        try:
            with open(cfg.out, "w", encoding="utf-8") as fh:
                fh.write(text)
        except OSError as exc:
            print(f"configuration error: {exc}", file=sys.stderr)
            return 2
        if cfg.fmt == "json":
            print(report.summary())
    else:
        sys.stdout.write(text)
    return status


if __name__ == "__main__":
    sys.exit(main())
