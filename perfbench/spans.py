"""Span recorder for the benchmark's traced run.

The recorder wraps the public functions of each library module (the layers)
from outside the library: every module attribute that names the original
function is rebound to a wrapper, so `abel._gauss_jacobi_raw` and
`measure._gauss_jacobi_raw` both record, and `WeightedMeasure` / `Report`
methods are patched on the class itself. Spans are recorded only while a job
is running; checks and input generation outside jobs leave no spans.

A span's self time is its duration minus the time its child spans cover.
Since spans nest on one thread, a layer's self time summed over its spans
counts nested same-layer calls once.
"""

from __future__ import annotations

import contextlib
import functools
import importlib
import inspect
import sys
import time
from collections import Counter, defaultdict
from dataclasses import dataclass, field

import numpy as np

LAYERS = (
    "quadrature",
    "polynomials",
    "measure",
    "kernels",
    "abel",
    "harmonic",
    "estimates",
    "reporting",
    "cli",
)

# wrapped besides each module's `__all__`: ROADMAP item 1's named building
# blocks, the second Gauss-rule cache, and the CLI entry points (no `__all__`)
BUILDING_BLOCKS = {
    "quadrature": ("_gauss_jacobi_raw",),
    "kernels": ("_series_budget",),
    "harmonic": ("_maximal_profile",),
    "polynomials": ("_roots_jacobi_cached",),
    "cli": ("main", "run", "emit_grid"),
}

CLASS_METHODS = {
    "measure": (
        "WeightedMeasure",
        (
            "density",
            "cdf",
            "_generic_cdf",
            "_cumulative_table",
            "_quad_interval_mass",
            "interval_mass_exact",
            "cell_rule",
            "quadrature_rule",
        ),
    ),
    "reporting": ("Report", ("add", "extend", "to_dict", "to_json", "summary")),
}

FAIL_CLASSES = (
    "ConvergenceError",
    "RegionError",
    "RegimeError",
    "DomainError",
    "SingularEvaluationError",
    "DegenerateInputError",
)


@dataclass
class Span:
    name: str
    layer: str
    start: float
    parent: int | None
    job: int
    end: float = 0.0
    error: str | None = None
    attrs: dict = field(default_factory=dict)

    @property
    def duration(self) -> float:
        return self.end - self.start


class Tracer:
    """In-memory span store; `job` is None outside jobs, which records nothing."""

    def __init__(self):
        self.spans: list[Span] = []
        self._stack: list[int] = []
        self.job: int | None = None
        self._patched: list[tuple[object, str, object]] = []

    # ---- recording ------------------------------------------------------

    def wrap(self, layer: str, name: str, fn, probe=None):
        """Wrapper recording one span per call; `probe(span, bound_args, result)`
        adds attributes after a successful call. Values and exceptions pass
        through unchanged."""
        sig = inspect.signature(fn) if probe is not None else None
        rule = getattr(fn, "cache_info", None) if probe is _rule_probe else None

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if self.job is None:
                return fn(*args, **kwargs)
            span = Span(
                name, layer, 0.0, self._stack[-1] if self._stack else None, self.job
            )
            self.spans.append(span)
            self._stack.append(len(self.spans) - 1)
            misses = rule().misses if rule is not None else 0
            span.start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            except BaseException as exc:
                span.error = type(exc).__name__
                raise
            finally:
                span.end = time.perf_counter()
                self._stack.pop()
            if rule is not None:
                span.attrs["miss"] = rule().misses > misses
            if probe is not None:
                bound = sig.bind(*args, **kwargs)
                bound.apply_defaults()
                probe(span, bound.arguments, result)
            return result

        return wrapper

    @contextlib.contextmanager
    def job_span(self, job_id: int, name: str):
        """Make `job_id` current and record its root span."""
        span = Span(name, "job", time.perf_counter(), None, job_id)
        self.spans.append(span)
        self._stack.append(len(self.spans) - 1)
        self.job = job_id
        try:
            yield span
        except BaseException as exc:
            span.error = type(exc).__name__
            raise
        finally:
            span.end = time.perf_counter()
            self._stack.pop()
            self.job = None

    # ---- patching -------------------------------------------------------

    def install(self, package) -> None:
        """Rebind every layer function in every package module that holds it."""
        for layer in LAYERS:
            importlib.import_module(f"{package.__name__}.{layer}")
        modules = [
            m
            for n, m in list(sys.modules.items())
            if m is not None and (n == package.__name__ or n.startswith(package.__name__ + "."))
        ]
        for layer in LAYERS:
            mod = sys.modules[f"{package.__name__}.{layer}"]
            names = list(getattr(mod, "__all__", ())) + list(BUILDING_BLOCKS.get(layer, ()))
            for name in names:
                fn = getattr(mod, name)
                if inspect.isclass(fn) or not callable(fn):
                    continue
                probe = PROBES.get((layer, name))
                wrapper = self.wrap(layer, name, fn, probe)
                for m in modules:
                    for attr, val in list(vars(m).items()):
                        if val is fn:
                            self._patched.append((m, attr, val))
                            setattr(m, attr, wrapper)
            if layer in CLASS_METHODS:
                cls_name, methods = CLASS_METHODS[layer]
                cls = getattr(mod, cls_name)
                for meth in methods:
                    fn = cls.__dict__[meth]
                    probe = PROBES.get((layer, f"{cls_name}.{meth}"))
                    self._patched.append((cls, meth, fn))
                    setattr(cls, meth, self.wrap(layer, f"{cls_name}.{meth}", fn, probe))

    def uninstall(self) -> None:
        for owner, attr, val in reversed(self._patched):
            setattr(owner, attr, val)
        self._patched.clear()


# ---- per-call probes: work counts computed from arguments and results ------


def _points(x) -> int:
    return int(np.size(x))


def _rule_probe(span, args, result):
    span.attrs["rule"] = True
    span.attrs["n"] = int(args.get("n", args.get("order", 0)))
    span.attrs["exponents"] = (args.get("alpha", 0.0), args.get("beta", 0.0))


def _eval_table_probe(span, args, result):
    span.attrs["cells"] = (int(args["n_max"]) + 1) * _points(args["x"])


def _eval_probe(span, args, result):
    span.attrs["cells"] = (int(args["n"]) + 1) * _points(args["x"])


def _weighted_sum_probe(span, args, result):
    w = np.asarray(args["weights"])
    rows = 1 if w.ndim == 1 else w.shape[0]
    span.attrs["cells"] = rows * w.shape[-1] * _points(args["x"])


def _projection_probe(span, args, result):
    degree = int(args["degree"])
    order = args["order"]
    order = max(2 * (degree + 1), 64) if order is None else int(order)
    mags = np.abs(result.coeffs)
    top = float(mags.max()) if mags.size else 0.0
    span.attrs["cells"] = (degree + 1) * order
    span.attrs["coeffs"] = int(mags.size)
    span.attrs["useful"] = int(np.count_nonzero(mags > 1e-14 * top)) if top > 0.0 else 0


def _series_probe(span, args, result):
    span.attrs["terms"] = int(result.terms)


def _matrix_probe(span, args, result):
    span.attrs["terms"] = int(result[1])


def _profile_probe(span, args, result):
    span.attrs["cells"] = int(np.size(args["masses"])) ** 2


def _cz_probe(span, args, result):
    span.attrs["selected"] = len(result.intervals)


# the three cached Gauss-rule builders carry _rule_probe; a call to one is a
# miss when its cache_info().misses grows
PROBES = {
    ("quadrature", "gauss_legendre"): _rule_probe,
    ("quadrature", "_gauss_jacobi_raw"): _rule_probe,
    ("polynomials", "_roots_jacobi_cached"): _rule_probe,
    ("polynomials", "jacobi_eval_table"): _eval_table_probe,
    ("polynomials", "jacobi_eval"): _eval_probe,
    ("polynomials", "jacobi_weighted_sum"): _weighted_sum_probe,
    ("abel", "fourier_jacobi_coefficients"): _projection_probe,
    ("kernels", "watson_kernel_series"): _series_probe,
    ("kernels", "watson_series_matrix"): _matrix_probe,
    ("harmonic", "_maximal_profile"): _profile_probe,
    ("harmonic", "cz_decompose"): _cz_probe,
}


# ---- aggregation ------------------------------------------------------------


def self_times(spans: list[Span]) -> list[float]:
    """Per-span duration minus the time its direct children cover."""
    child = [0.0] * len(spans)
    for s in spans:
        if s.parent is not None:
            child[s.parent] += s.duration
    return [s.duration - c for s, c in zip(spans, child)]


def rule_builds(spans: list[Span]) -> list[Span]:
    """Outermost rule spans that missed the cache, i.e. built a Gauss rule."""
    return [
        s
        for s in spans
        if s.attrs.get("miss")
        and not (s.parent is not None and spans[s.parent].attrs.get("rule", False))
    ]


def aggregate(spans: list[Span]) -> dict:
    """Per-layer metrics from one traced pass's spans."""
    selfs = self_times(spans)
    out: dict[str, float] = {}
    self_s = defaultdict(float)
    calls = Counter()
    for s, st in zip(spans, selfs):
        self_s[s.layer] += st
        parent_layer = spans[s.parent].layer if s.parent is not None else None
        if parent_layer != s.layer:
            calls[s.layer] += 1
    for layer in LAYERS:
        out[f"{layer}.self_s"] = self_s[layer]
        out[f"{layer}.calls"] = calls[layer]

    def outermost(pred):
        for s in spans:
            if pred(s) and not (s.parent is not None and pred(spans[s.parent])):
                yield s

    rules = list(outermost(lambda s: s.attrs.get("rule", False)))
    misses = rule_builds(spans)
    out["quadrature.rule_calls"] = len(rules)
    out["quadrature.rule_misses"] = len(misses)
    out["quadrature.rule_nodes_built"] = sum(s.attrs["n"] for s in misses)
    out["quadrature.rule_build_s"] = float(sum(s.duration for s in misses))

    out["polynomials.recurrence_cells"] = sum(
        s.attrs.get("cells", 0) for s in spans if s.layer == "polynomials"
    )

    proj = [s for s in spans if s.name == "fourier_jacobi_coefficients"]
    # the projection loop itself; rule builds under it count in quadrature
    out["abel.projection_s"] = float(
        sum(st for s, st in zip(spans, selfs) if s.name == "fourier_jacobi_coefficients")
    )
    out["abel.projection_cells"] = sum(s.attrs.get("cells", 0) for s in proj)
    n_coeffs = sum(s.attrs.get("coeffs", 0) for s in proj)
    out["abel.coeff_useful_ratio"] = (
        sum(s.attrs.get("useful", 0) for s in proj) / n_coeffs if n_coeffs else 0.0
    )

    def named(*names):
        return list(outermost(lambda s: s.name in names))

    series = named("watson_kernel_series", "watson_series_matrix")
    out["kernels.series_terms"] = sum(s.attrs.get("terms", 0) for s in series)
    out["kernels.series_s"] = float(sum(s.duration for s in series))
    out["kernels.budget_s"] = float(sum(s.duration for s in named("_series_budget")))
    f4 = named("appell_f4")
    out["kernels.f4_calls"] = len(f4)
    out["kernels.f4_s"] = float(sum(s.duration for s in f4))
    integral = named("watson_kernel_integral")
    out["kernels.integral_calls"] = len(integral)
    out["kernels.integral_s"] = float(sum(s.duration for s in integral))
    # an exception counts where it leaves the kernels layer
    leaving = Counter(
        s.error
        for s in spans
        if s.layer == "kernels"
        and s.error is not None
        and not (s.parent is not None and spans[s.parent].layer == "kernels")
    )
    for cls in FAIL_CLASSES:
        out[f"kernels.fail.{cls}"] = leaving.pop(cls, 0)
    out["kernels.fail.other"] = sum(leaving.values())

    def count(*names):
        return sum(1 for s in spans if s.name in names)

    out["measure.mass_calls"] = count("interval_mass", "WeightedMeasure.interval_mass_exact")
    out["measure.cdf_calls"] = count("WeightedMeasure.cdf", "WeightedMeasure._generic_cdf")
    out["measure.cell_rule_calls"] = count("WeightedMeasure.cell_rule")
    out["measure.split_calls"] = count("equal_measure_split")

    out["harmonic.profile_cells"] = sum(
        s.attrs.get("cells", 0) for s in spans if s.name == "_maximal_profile"
    )
    out["harmonic.cz_selected"] = sum(
        s.attrs.get("selected", 0) for s in spans if s.name == "cz_decompose"
    )
    return out
