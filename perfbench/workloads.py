"""The benchmark's workloads: seeded job lists with a check per job.

A job is one user request, either an in-process `jacobi_watson.cli.main`
invocation writing to a temp file or one public library call. Every job is
checked: a CLI job must exit 0 with a non-empty set of hard checks, a library
job against an independent route or a closed form. The library is always
reached through module attributes at call time, so the traced run's wrappers
see every call.

Inputs the parent is known to fail on stay in the workloads. Each such job
names the defect in `known`; the rule that marks it looks only at the inputs.
A known job may fail or pass; any other failing job is unexpected.

Costs follow a few input properties (r, the Jacobi exponents, the closed
form's margin, window and grid sizes, bump and cut counts), so those come
from fixed strata, with seeded jitter inside each or in a fixed order: every
seed gets the same spread of cost, and figures from different seeds stay
comparable.

BENCHMARK.json lists abel-r1 and measure-weights. kernel-routes runs the same
way from the command line, but is not in the list: its runs could not be made
long enough within the benchmark's time budget to steady its timings on a
host whose speed drifts for minutes.
"""

from __future__ import annotations

import contextlib
import functools
import io
import json
import math
import os
from dataclasses import dataclass

import numpy as np
from scipy import special

import jacobi_watson as jw
from jacobi_watson import abel, cli, estimates, harmonic, kernels, measure

# r at or above this makes the series tail bound raise (ROADMAP item 3)
SERIES_CLIFF_R = 0.995
CLIFF = "series cliff: the tail bound never closes for r >= 0.995"


@dataclass
class Check:
    ok: bool
    value: float
    bound: float | None


@dataclass
class Job:
    name: str
    run: object  # () -> output
    check: object  # output -> Check
    known: str | None = None
    # False for a job that continues the previous job's session and keeps
    # the Gauss rules it built; such a job runs once, right after it
    fresh: bool = True


@dataclass
class CliOutput:
    status: int
    text: str


class CliRunner:
    """Runs `cli.main` in-process with `--out` pointing into a scratch dir."""

    def __init__(self, tmpdir: str):
        self.path = os.path.join(tmpdir, "job.out")

    def __call__(self, argv: list[str]) -> CliOutput:
        with contextlib.redirect_stdout(io.StringIO()):
            try:
                status = cli.main(argv + ["--out", self.path])
            except SystemExit as exc:  # argparse rejects a config this way
                status = exc.code if isinstance(exc.code, int) else 2
        text = ""
        if os.path.exists(path := self.path):
            with open(path, encoding="utf-8") as fh:
                text = fh.read()
            os.remove(path)
        return CliOutput(status, text)


def check_cli_report(out: CliOutput) -> Check:
    """Exit 0 with at least one hard check. The value and bound are those of
    the first failed hard check, else the number of hard checks against 1."""
    hard = [r for r in json.loads(out.text)["records"] if r["hard"]] if out.text else []
    for r in hard:
        if not r["passed"]:
            # canonical JSON writes non-finite values as strings
            return Check(False, float(r["value"]), r["bound"])
    return Check(out.status == 0 and len(hard) > 0, float(len(hard)), 1.0)


def _f(v: float) -> str:
    return repr(float(v))


def _csv(values) -> str:
    return ",".join(_f(v) for v in values)


def _rel(a: float, b: float) -> float:
    return abs(a - b) / max(abs(b), 1e-300)


# ---- abel-r1 ---------------------------------------------------------------


def abel_r1(seed: int, run_cli: CliRunner) -> list[Job]:
    """The paper's regime: Abel means and maximal function as r -> 1.

    Cold Gauss rules (quadrature) and coefficient projection (abel) carry most
    of the work; the smooth `bump` and the jump `sign` profiles are both here
    so that a degree-adaptive change that helps one and costs the other shows.
    """
    rng = np.random.default_rng(seed)
    p = jw.JacobiParams(0.5, 0.5)
    fam = {f.tag: f for f in abel.test_function_family(p)}
    sign = fam["sign"]
    n = 25
    base = np.linspace(-0.96, 0.96, n)
    xs = np.sort(base + 0.4 * (base[1] - base[0]) * rng.uniform(-1.0, 1.0, n))
    r_grid = abel.default_r_grid(12)
    mean_points = int(rng.integers(21, 30))
    common = ["--alpha", "0.5", "--beta", "0.5", "--seed", str(seed)]

    def check_maximal(vals) -> Check:
        # |f| <= 1 and the Watson kernel is a probability density, so every
        # Abel mean lies in [-1, 1]; the kernel-route mean at one grid radius
        # is a lower bound for the max over the grid
        lower = np.abs(abel.abel_mean(sign, p, kernels.AbelParameter(0.9), xs, route="kernel"))
        top = float(np.max(vals))
        gap = float(np.max(lower - vals))
        ok = bool(np.all(np.isfinite(vals))) and top <= 1.0 + 1e-6 and gap <= 1e-6
        return Check(ok, max(top - 1.0, gap), 1e-6)

    def check_weak(v) -> Check:
        # the order-one weak (1,1) bound the test suite holds the probe to
        return Check(0.0 < v < 10.0, float(v), 10.0)

    return [
        Job(
            "cli abel maximal bump",
            lambda: run_cli(["abel", "--suite", "maximal", "--f", "bump"] + common),
            check_cli_report,
        ),
        Job(
            "abel.jacobi_maximal sign",
            lambda: abel.jacobi_maximal(sign, p, xs, r_grid=r_grid),
            check_maximal,
        ),
        # probed in the session that computed the maximal function, whose
        # 16384-node rules it reuses
        Job("abel.weak11_probe sign", lambda: abel.weak11_probe(sign, p), check_weak,
            fresh=False),
    ] + [
        # one request per radius, so a miss names its radius
        Job(
            f"cli abel mean {tag} r={r:g}",
            _cli_job(run_cli, ["abel", "--suite", "mean", "--f", tag, "--r", _f(r),
                               "--x-points", str(mean_points)] + common),
            check_cli_report,
            known=known if r >= r_known else None,
        )
        for tag, radii, r_known, known in (
            ("pk:3", abel.default_r_grid(7), 0.96,
             "pk:3 single-term check misses 1e-10 from r = 0.969 on"),
            ("sign", (0.9, 0.99), 0.99, "sign dual-route check misses 1e-6 at r = 0.99"),
        )
        for r in radii
    ]


# ---- kernel-routes ---------------------------------------------------------


def kernel_routes(seed: int, run_cli: CliRunner) -> list[Job]:
    """Many small kernel jobs with r stratified over 1 - 2^-j, j = 1..12.

    Work sits in `kernels` (series budget, F4, integral route) and in
    `polynomials.jacobi_eval_table`; Gauss rules stay at 2048 nodes or fewer.

    Cost follows r, (alpha, beta) and the route, so all three are stratified:
    every seed puts one job of a kind in each r stratum, spreads (alpha, beta)
    over fixed strata of [-0.45, 1.0]^2 with seeded jitter, and gives each r
    one series-route and five closed-form-route point kernels, the latter in
    fixed bands of the closed form's margin. x and y are drawn freely within
    those constraints.
    """
    rng = np.random.default_rng(seed)
    radii = [1.0 - 2.0**-j for j in range(1, 13)]
    jobs: list[Job] = []

    def params(slot: int, shift: int) -> jw.JacobiParams:
        n = len(radii)
        a = -0.45 + 1.45 * (slot % n + rng.uniform()) / n
        b = -0.45 + 1.45 * ((5 * slot + shift) % n + rng.uniform()) / n
        return jw.JacobiParams(float(a), float(b))

    def point() -> float:
        return float(rng.uniform(-0.98, 0.98))

    for j, r in enumerate(radii):
        ab = kernels.AbelParameter(r)
        cliff = CLIFF if r >= SERIES_CLIFF_R else None

        for k, band in enumerate(MARGIN_BANDS):
            p = params(j, 2 * k + 1)
            x, y = _route_point(rng, p, ab, band)
            series = _margin(ab, x, y) <= kernels._BAILEY_MARGIN
            jobs.append(_best_route_job(p, ab, x, y, known=cliff if series else None))

        p, x, y = params(j, 4), point(), point()
        jobs.append(
            Job(
                f"kernels.watson_kernel_integral vs series r={r:g}",
                _integral_vs_series(p, ab, x, y),
                lambda out: Check(_rel(out[0], out[1]) <= 1e-4, _rel(out[0], out[1]), 1e-4),
                known=cliff,
            )
        )

        p, x = params(j, 7), point()
        bump = {f.tag: f for f in abel.test_function_family(p)}["bump"]
        jobs.append(
            Job(
                f"abel.modified_abel_mean both routes r={r:g}",
                _modified_both(bump, p, ab, x),
                # the bound of the CLI's series-vs-kernel Abel mean check
                lambda out: Check(abs(out[0] - out[1]) <= 1e-6, abs(out[0] - out[1]), 1e-6),
                known=cliff or (MODIFIED_ORDER if r > MODIFIED_ORDER_R else None),
            )
        )

    # the CLI suites take an r list; each suite covers a third of the strata,
    # two per job, a low one paired with one six strata higher
    for shift, suite in enumerate(("positivity", "mass", "crossval")):
        for i in (shift, shift + 3):
            lo, hi = radii[i], radii[i + 6]
            p = params(2 * i, shift)
            argv = ["kernel", "--suite", suite, "--alpha", _f(p.alpha), "--beta", _f(p.beta),
                    "--r", _csv((lo, hi)), "--x-points", "24", "--seed", str(seed)]
            jobs.append(
                Job(f"cli kernel {suite} r={lo:g},{hi:g}", _cli_job(run_cli, argv),
                    check_cli_report, known=CLIFF if hi >= SERIES_CLIFF_R else None)
            )
    for i, r in enumerate(radii[::2]):
        p, y = params(2 * i + 1, 9), point()
        argv = ["kernel", "--suite", "grid", "--format", "csv", "--alpha", _f(p.alpha),
                "--beta", _f(p.beta), "--r", _f(r), "--y", _f(y), "--x-points", "12"]
        jobs.append(
            Job(f"cli kernel grid csv r={r:g}", _cli_job(run_cli, argv),
                _grid_check(p, r, y, 12), known=CLIFF if r >= SERIES_CLIFF_R else None)
        )

    # the F4 overflow regime is represented by this pinned input alone, so the
    # number of 2.5 s failures per pass does not hang on the seed: Bailey is
    # picked (margin 0.060) and the F4 cumprod overflows to NaN, so all 20000
    # diagonals run before ConvergenceError
    jobs.append(
        _best_route_job(jw.JacobiParams(0.5, -0.3), kernels.AbelParameter(0.5), -0.918, -0.967,
                        known=F4_OVERFLOW)
    )
    return jobs


F4_OVERFLOW = "F4 anti-diagonal cumprod overflows to NaN and never settles"
# margin bands of the point kernels per radius: the best-route dispatch takes
# the series at margins up to _BAILEY_MARGIN and the closed form above, where
# F4 runs about 16 / margin anti-diagonals, so a narrow band per slot fixes
# the job's cost on every seed. The closed-form slots give clusters of
# near-equal costs, the costliest two bands sitting close together, and the
# median job falls inside that cluster of 24 rather than between clusters or
# on the steep rise of the series costs with r.
MARGIN_BANDS = (
    (-math.inf, kernels._BAILEY_MARGIN),
    (0.062, 0.066),
    (0.066, 0.070),
    (0.097, 0.103),
    (0.145, 0.155),
    (0.24, 0.26),
)
MODIFIED_ORDER = "modified_abel_mean's fixed order 160 under-resolves the kernel as r -> 1"
MODIFIED_ORDER_R = 0.9


def _margin(ab, x, y) -> float:
    return kernels.BaileyArguments.from_points(ab, x, y).margin


def _f4_overflow_log10(p, ab, x, y) -> float:
    """log10 of the largest in-diagonal cumprod F4 forms at the diagonal where
    its terms fall to 1e-14; above about 308 the product overflows first."""
    args = kernels.BaileyArguments.from_points(ab, x, y)
    u, v = args.first, args.second
    c1, c2 = p.alpha + 1.0, p.beta + 1.0
    d = int(math.log(1e-14) / (2.0 * math.log(1.0 - args.margin))) + 1
    m = np.arange(d, dtype=float)
    ratios = (u / v) * (d - m) * (c2 + d - m - 1.0) / ((m + 1.0) * (c1 + m))
    return float(np.max(np.cumsum(np.log10(ratios))))


def _route_point(rng, p, ab, band, tries: int = 4000):
    """(x, y) whose margin lies in `band`, outside the F4 overflow regime;
    radii with no series region fall back to the first closed-form band."""
    lo, hi = band
    for _ in range(tries):
        x, y = rng.uniform(-0.98, 0.98, 2)
        margin = _margin(ab, x, y)
        if not lo <= margin <= hi:
            continue
        if margin > kernels._BAILEY_MARGIN and _f4_overflow_log10(p, ab, x, y) > 300.0:
            continue
        return float(x), float(y)
    if hi <= kernels._BAILEY_MARGIN:  # at small r every pair is in the closed-form region
        return _route_point(rng, p, ab, MARGIN_BANDS[1], tries)
    raise RuntimeError(f"no point with margin in {band} outside the F4 overflow regime "
                       f"at r = {ab.r}")


def _cli_job(run_cli, argv):
    return lambda: run_cli(argv)


def _best_route_job(p, ab, x, y, known=None) -> Job:
    def check(ev) -> Check:
        ref = kernels.watson_kernel_integral(p, ab, x, y).value
        err = _rel(ev.value, ref)
        return Check(err <= 1e-4, err, 1e-4)

    return Job(
        f"kernels.watson_kernel r={ab.r:g}",
        lambda: kernels.watson_kernel(p, ab, x, y),
        check,
        known=known,
    )


def _integral_vs_series(p, ab, x, y):
    return lambda: (
        kernels.watson_kernel_integral(p, ab, x, y).value,
        kernels.watson_kernel_series(p, ab, x, y).value,
    )


def _modified_both(f, p, ab, x):
    return lambda: (
        abel.modified_abel_mean(f, p, ab, x, route="halfweight"),
        abel.modified_abel_mean(f, p, ab, x, route="lebesgue"),
    )


def _grid_check(p, r, y, n_x):
    def check(out: CliOutput) -> Check:
        rows = [line.split(",") for line in out.text.splitlines()[1:]]
        if out.status != 0 or len(rows) != n_x:
            return Check(False, float(len(rows)), float(n_x))
        ab = kernels.AbelParameter(r)
        worst = 0.0
        for row in (rows[1], rows[len(rows) // 2], rows[-2]):
            x, value = float(row[0]), float(row[2])
            ref = kernels.watson_kernel_integral(p, ab, x, y).value
            worst = max(worst, _rel(value, ref))
        return Check(worst <= 1e-4, worst, 1e-4)

    return check


# ---- measure-weights -------------------------------------------------------


class Profile:
    """A nonnegative test profile; `breakpoints` marks where it is not smooth."""

    def __init__(self, tag, fn, breakpoints=()):
        self.tag, self.fn, self.breakpoints = tag, fn, tuple(breakpoints)

    def __call__(self, x):
        return self.fn(np.asarray(x, dtype=float))


def _bumps(rng, a: float, b: float, k: int) -> Profile:
    centers = rng.uniform(a + 0.1 * (b - a), b - 0.1 * (b - a), k)
    widths = (b - a) * rng.uniform(0.005, 0.03, k)
    heights = rng.uniform(0.5, 3.0, k)

    def fn(x):
        z = (x[..., None] - centers) / widths
        return np.exp(-0.5 * z * z) @ heights + 0.05

    return Profile("bumps", fn)


def _steps(rng, a: float, b: float, n_cuts: int) -> Profile:
    cuts = np.sort(rng.uniform(a + 0.05 * (b - a), b - 0.05 * (b - a), n_cuts))
    levels = rng.uniform(0.1, 4.0, cuts.size + 1)

    def fn(x):
        return levels[np.searchsorted(cuts, x, side="right")]

    return Profile("steps", fn, breakpoints=cuts)


def _draw_measure(rng, kind: str) -> measure.WeightedMeasure:
    if kind == "jacobi":
        near, other = rng.uniform(-0.95, -0.8), rng.uniform(-0.5, 1.0)
        a, b = (near, other) if rng.uniform() < 0.5 else (other, near)
        return measure.WeightedMeasure.jacobi(float(a), float(b))
    if kind == "power":
        return measure.WeightedMeasure.power(float(rng.uniform(-0.9, 2.0)))
    e0, e1 = rng.uniform(-0.6, 1.5, 2)
    return measure.WeightedMeasure.product(((0.0, float(e0)), (1.0, float(e1))), (0.0, 1.0))


@functools.lru_cache(maxsize=None)
def _scipy_jacobi_rule(alpha: float, beta: float):
    return special.roots_jacobi(48, alpha, beta)


def _mean_and_sup(m, f) -> tuple[float, float]:
    """Average of f in dmu and sup of f, by composite Gauss rules taken from
    scipy directly, outside the library's rule caches and cell quadrature."""
    a, b = m.support
    factors = m._factors()
    cuts = set(np.linspace(a, b, 65)[1:-1]) | set(getattr(f, "breakpoints", ()))
    edges = [a] + sorted(cuts) + [b]
    num = den = 0.0
    for lo, hi in zip(edges[:-1], edges[1:]):
        # int_lo^hi f (x-lo)^wl (hi-x)^wr prod_rest |x-c|^e dx
        wl = sum(e for c, e in factors if c == lo)
        wr = sum(e for c, e in factors if c == hi)
        t, w = _scipy_jacobi_rule(wr, wl)
        half = 0.5 * (hi - lo)
        x = lo + half * (t + 1.0)
        w = w * half ** (1.0 + wl + wr)
        for c, e in factors:
            if c not in (lo, hi):
                w = w * np.abs(x - c) ** e
        num += float(np.dot(w, f(x)))
        den += float(np.sum(w))
    xs = np.linspace(a, b, 20001)
    return num / den, float(np.max(f(xs)))


CZ_NORM = "cz_decompose takes ||f||_1 from one 24-node rule, which misses narrow bumps"
HL_ENDPOINT = "at an endpoint exponent <= -0.5, cell integrals and exact masses disagree"


def measure_weights(seed: int, run_cli: CliRunner) -> list[Job]:
    """Seeded measures (jacobi with an exponent near -1, power, two-anchor
    product) and profiles (narrow bumps, steps). Work sits in `measure`,
    `harmonic` and `estimates`; `quadrature` serves thousands of cached tiny
    cell rules. No `polynomials` or `kernels` code runs."""
    rng = np.random.default_rng(seed)
    jobs: list[Job] = []

    kinds = ("jacobi", "power", "product", "product") * 2
    # two window families per profile keep the median job inside the dense
    # block of maximal-function jobs rather than at its edge
    windows = _spread(4 * len(kinds), 256, 1024)
    levels = _spread(2 * len(kinds), 1.5, 4.0)
    for i, kind in enumerate(kinds):
        m = _draw_measure(rng, kind)
        a, b = m.support
        singular = min(e for _, e in m._factors()) <= -0.5
        # 2 to 4 bumps or cuts, cycled by slot like the window sizes
        profiles = (_bumps(rng, a, b, 2 + i % 3), _steps(rng, a, b, 2 + (i + 1) % 3))
        for k, f in enumerate(profiles):
            mean, sup = _mean_and_sup(m, f)
            lam = float(mean * levels[2 * i + k])
            jobs.append(Job(f"harmonic.cz_decompose {kind} {f.tag}",
                            _call(harmonic, "cz_decompose", m, f, lam), _cz_check(m, f, lam),
                            known=CZ_NORM if f.tag == "bumps" else None))
            xs = np.sort(rng.uniform(a, b, 16))
            for n in windows[4 * i + 2 * k: 4 * i + 2 * k + 2]:
                n = int(n)
                jobs.append(Job(f"harmonic.hl_maximal {kind} {f.tag} n={n}",
                                _call(harmonic, "hl_maximal", m, f, xs, window_family=n),
                                _maximal_check(mean, sup),
                                known=HL_ENDPOINT if singular else None))

    specs = [("lebesgue", "bump"), ("jacobi:0.5,-0.9", "clipped")] + [
        ("power:" + _f(e), "bump") for e in _spread(4, -0.5, 1.5)
    ]
    for spec, tag in specs:
        m = cli._parse_measure(spec)
        f = {t.tag: t for t in abel.test_function_family(jw.JacobiParams(0.5, 0.5))}[tag]
        mean, _ = _mean_and_sup(m, f)
        lams = mean * np.sort(rng.uniform(1.5, 4.0, 2))
        argv = ["cz", "--suite", "decompose", "--measure", spec, "--f", tag,
                "--lambda", _csv(lams), "--seed", str(seed)]
        jobs.append(Job(f"cli cz decompose {spec} {tag}", _cli_job(run_cli, argv), check_cli_report))

    unit = harmonic.PowerWeight(())
    leb = measure.WeightedMeasure.lebesgue(0.0, 1.0)
    for g in _spread(4, 512, 1024):
        n = int(g)
        m = _draw_measure(rng, "jacobi")
        jobs.append(Job(f"harmonic.a1_constant unit n={n}",
                        _call(harmonic, "a1_constant", unit, m, grid_size=n), _unit_check))
        jobs.append(Job(f"harmonic.ap_constant unit n={n}",
                        _call(harmonic, "ap_constant", unit, m, 2.0, grid_size=n), _unit_check))
        # |x|^e on [0, 1] is in A_p exactly when -1 < e < p - 1, and in A_1
        # exactly when -1 < e <= 0: those constants are finite and >= 1
        p_exp = float(rng.uniform(1.5, 3.0))
        e = float(rng.uniform(-0.8, 0.9 * (p_exp - 1.0)))
        w = harmonic.PowerWeight(((0.0, e),))
        jobs.append(Job(f"harmonic.ap_constant |x|^{e:.3f} p={p_exp:.3f} n={n}",
                        _call(harmonic, "ap_constant", w, leb, p_exp, grid_size=n), _ge_one_check))
        w1 = harmonic.PowerWeight(((0.0, float(rng.uniform(-0.8, 0.0))),))
        jobs.append(Job(f"harmonic.a1_constant |x|^e n={n}",
                        _call(harmonic, "a1_constant", w1, leb, grid_size=n), _ge_one_check))

    for inside in (True, False, True, False):
        p_exp = float(rng.uniform(1.5, 3.0))
        # outside the class by at least 1 in the exponent, so the probe's six
        # levels show the growth
        e = float(rng.uniform(-0.5, 0.8 * (p_exp - 1.0)) if inside else rng.uniform(p_exp, p_exp + 1.5))
        w = harmonic.PowerWeight(((0.0, e),))
        jobs.append(Job(f"harmonic.ap_divergence_probe e={e:.3f} p={p_exp:.3f}",
                        _call(harmonic, "ap_divergence_probe", w, leb, p_exp),
                        _divergence_check(not inside)))

    for depth in (6, 7, 8, 8):
        a = float(rng.uniform(-0.9, 3.0))
        jobs.append(Job(f"measure.doubling_sweep power a={a:.3f} depth={depth}",
                        _call(measure, "doubling_sweep", measure.WeightedMeasure.power(a), depth),
                        _doubling_check(a, depth)))

    for _ in range(4):
        m = _draw_measure(rng, "jacobi")
        alpha, beta = m.params
        p = jw.JacobiParams(alpha, beta)
        f = _bumps(rng, -1.0, 1.0, 3)
        r_grid = [float(rng.uniform(0.5, 0.7)), float(rng.uniform(0.9, 0.97))]
        x_grid = np.sort(rng.uniform(0.05, 0.9, 4))
        jobs.append(Job("estimates.j_domination_probe",
                        _call(estimates, "j_domination_probe", p, f, r_grid, x_grid),
                        lambda v: Check(math.isfinite(v) and v > 0.0, float(v), None)))
        ab = kernels.AbelParameter(float(rng.uniform(0.5, 0.999)))
        x = float(rng.uniform(0.0, 0.95))
        jobs.append(Job("estimates.mainest_integral",
                        _call(estimates, "mainest_integral", p, ab, x),
                        _mainest_check(p, ab, x)))
    return jobs


def _spread(n: int, lo: float, hi: float) -> list[float]:
    """n evenly spaced values of [lo, hi] in a fixed golden-ratio order: every
    seed puts the same size in the same slot, so the costs, their ranks and
    the memory do not hang on the draw, and neighbouring slots get sizes far
    apart."""
    rank = np.argsort(np.argsort(np.arange(n) * 0.6180339887498949 % 1.0))
    return [float(v) for v in np.linspace(lo, hi, n)[rank]]


def _call(module, name: str, *args, **kwargs):
    # resolve through the module at call time so the traced run's wrapper is
    # hit; a measure keeps the CDF table it builds, so each call gets a fresh
    # copy, as a new request would
    def call():
        fresh = [measure.WeightedMeasure(a.family, a.params, a.support)
                 if isinstance(a, measure.WeightedMeasure) else a for a in args]
        return getattr(module, name)(*fresh, **kwargs)

    return call


def _cz_check(m, f, lam):
    def check(d) -> Check:
        if d.trivial:
            avg = d.norm1 / m.total_mass
            return Check(avg > lam, avg, lam)
        worst = 0.0
        for l, r, avg in d.intervals:
            worst = max(worst, lam / avg, avg / (2.0 * lam))
        tot, _ = harmonic._merged_mass(m, [(iv[0], iv[1]) for iv in d.intervals])
        worst = max(worst, tot * lam / d.norm1, d.mass_Gstar * lam / (3.0 * d.norm1))
        a, b = m.support
        xs = np.linspace(a + 1e-9, b - 1e-9, 101)
        recon = float(np.max(np.abs(f(xs) - d.good(xs) - d.bad(xs))))
        ok = (
            all(lam < avg <= 2.0 * lam * (1.0 + 1e-12) for _, _, avg in d.intervals)
            and tot <= d.norm1 / lam * (1.0 + 1e-10)
            and d.mass_Gstar <= 3.0 * d.norm1 / lam * (1.0 + 1e-10)
            and recon <= 1e-9
        )
        return Check(ok, worst, 1.0)

    return check


def _maximal_check(mean, sup):
    # the whole support is in every window family, and an average never
    # exceeds the sup
    def check(vals) -> Check:
        lo = float(np.min(vals))
        hi = float(np.max(vals))
        ok = lo >= mean * (1.0 - 1e-6) and hi <= sup * (1.0 + 1e-9)
        return Check(ok, lo / mean, 1.0)

    return check


def _unit_check(v) -> Check:
    return Check(abs(v - 1.0) <= 1e-10, abs(v - 1.0), 1e-10)


def _ge_one_check(v) -> Check:
    return Check(math.isfinite(v) and v >= 1.0 - 1e-12, float(v), 1.0)


def _divergence_check(want: bool):
    return lambda out: Check(out["divergent"] == want, out["sups"][-1] / out["sups"][0], 10.0)


def _doubling_check(a: float, depth: int):
    def check(v) -> Check:
        # the sweep covers every dyadic cell down to 2^-depth; the cells with
        # k >= 2 have closed-form ratios inside the sharp bracket
        lo, _ = measure.doubling_bracket(a)
        best = max(
            measure.dyadic_doubling_ratio_closed_form(a, k, j)
            for j in range(1, depth + 1)
            for k in range(2, 2**j - 1)
        ) if depth >= 2 else lo
        ok = math.isfinite(v) and v >= best * (1.0 - 1e-9) and v >= lo * (1.0 - 1e-9)
        return Check(ok, float(v), best)

    return check


def _mainest_check(p, ab, x):
    def check(v) -> Check:
        w = estimates.mainest_integral(p, ab, x, n_y=96, n_s=32, level=3)
        ratio = max(v, w) / max(min(v, w), 1e-300)
        return Check(math.isfinite(v) and ratio <= 1.5, ratio, 1.5)

    return check


GENERATORS = {
    "abel-r1": abel_r1,
    "kernel-routes": kernel_routes,
    "measure-weights": measure_weights,
}
