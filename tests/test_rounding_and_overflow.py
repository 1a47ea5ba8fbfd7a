"""Rounding-level L2 errors count as converged; an overflowing F4 sum stops
at once and the best-route kernel falls back to the series."""

import time

import pytest

from jacobi_watson import AbelParameter, JacobiParams
from jacobi_watson.cli import main
from jacobi_watson.errors import ConvergenceError
from jacobi_watson.kernels import (
    BaileyArguments,
    appell_f4,
    watson_kernel,
    watson_kernel_series,
)


@pytest.mark.parametrize(
    "extra", [[], ["--alpha", "-0.5", "--beta", "-0.5", "--r", "0.5,0.9,0.99"]]
)
def test_lp_suite_passes_for_exact_means(extra, capsys):
    # the Abel means of a constant are exact, so its L2 errors are rounding
    # noise that need not decrease
    assert main(["abel", "--suite", "lp", "--f", "const", *extra]) == 0
    assert '"passed":true' in capsys.readouterr().out


# the pinned point where the F4 anti-diagonal cumprod overflows
F4_POINT = (JacobiParams(0.5, -0.3), AbelParameter(0.5), -0.918, -0.967)
quiet_overflow = pytest.mark.filterwarnings("ignore:overflow:RuntimeWarning")


@quiet_overflow
def test_f4_overflow_stops_at_the_first_nonfinite_diagonal():
    p, ab, x, y = F4_POINT
    a, b = p.alpha, p.beta
    args = BaileyArguments.from_points(ab, x, y)
    with pytest.raises(ConvergenceError) as info:
        appell_f4(0.5 * (a + b + 2), 0.5 * (a + b + 3), a + 1, b + 1, args.first, args.second)
    assert info.value.diagnostics["diagonal"] == 99


@quiet_overflow
def test_best_route_falls_back_to_series_on_f4_overflow():
    p, ab, x, y = F4_POINT
    t0 = time.perf_counter()
    ev = watson_kernel(p, ab, x, y)
    elapsed = time.perf_counter() - t0
    assert ev.method == "series"
    assert ev.value == pytest.approx(watson_kernel_series(p, ab, x, y).value, abs=1e-10)
    assert elapsed < 0.5
