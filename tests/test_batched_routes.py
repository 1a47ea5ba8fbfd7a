"""Batched series and geometry routes against their per-point forms, bit for bit."""

import numpy as np
import pytest

from jacobi_watson import AbelParameter, JacobiParams, WatsonGeometry, watson_kernel_series
from jacobi_watson.cli import main
from jacobi_watson.reporting import CSV_HEADER


@pytest.mark.parametrize("command", ["kernel", "abel"])
@pytest.mark.parametrize("fmt", [[], ["--format", "json"]])
def test_grid_suite_without_csv_is_config_error(command, fmt, capsys):
    # a grid carries no checks, so a JSON report of it would pass vacuously
    assert main([command, "--suite", "grid", *fmt]) == 2
    assert "csv" in capsys.readouterr().err


def test_kernel_csv_grid_equals_scalar_series(tmp_path, capsys):
    p = JacobiParams(0.5, -0.3)
    y = 0.25
    out = tmp_path / "grid.csv"
    code = main(
        ["kernel", "--suite", "grid", "--format", "csv", "--alpha", "0.5",
         "--beta", "-0.3", "--r", "0.5,0.9,0.99", "--y", str(y), "--out", str(out)]
    )
    assert code == 0
    lines = out.read_text().strip().split("\n")
    assert lines[0] == CSV_HEADER
    rows = [line.split(",") for line in lines[1:]]
    assert len(rows) == 3 * 25
    for x, r, value, method, err in rows:
        ev = watson_kernel_series(p, AbelParameter(float(r)), float(x), y)
        assert method == ev.method == "series"
        assert float(value) == ev.value
        assert float(err) == ev.error_estimate


def test_watson_geometry_broadcast_equals_scalar_loop():
    s = np.linspace(1.0, 2.0, 5)
    x = np.linspace(-1.0, 1.0, 7)
    y = np.linspace(-0.9, 1.0, 6)
    g = WatsonGeometry(s[:, None, None], x[None, :, None], y[None, None, :])
    names = ("Y2", "Y", "Z1", "Z2")
    want = {name: np.empty((s.size, x.size, y.size)) for name in names}
    for i, si in enumerate(s):
        for j, xj in enumerate(x):
            for k, yk in enumerate(y):
                one = WatsonGeometry(float(si), float(xj), float(yk))
                for name in names:
                    assert type(getattr(one, name)) is float
                    want[name][i, j, k] = getattr(one, name)
    for name in names:
        got = getattr(g, name)
        assert got.shape == (s.size, x.size, y.size)
        assert np.array_equal(got, want[name]), name
