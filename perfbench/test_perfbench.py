"""Tests of the benchmark harness itself.

    python3 -m pytest perfbench -q
"""

import json
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))
sys.path.insert(0, str(HERE))

import jacobi_watson  # noqa: E402
import run  # noqa: E402
import spans  # noqa: E402
import workloads  # noqa: E402
from jacobi_watson import abel, measure, quadrature  # noqa: E402
from jacobi_watson.errors import ConvergenceError  # noqa: E402


class TestWrappers:
    def test_value_passes_through_unchanged(self):
        t = spans.Tracer()
        marker = object()
        w = t.wrap("kernels", "f", lambda a, b=1: (a, b, marker))
        with t.job_span(0, "job"):
            assert w(3, b=4) == (3, 4, marker)
        assert [s.name for s in t.spans] == ["job", "f"]

    def test_exception_is_reraised_unchanged(self):
        t = spans.Tracer()
        err = ConvergenceError("stalled", r=0.999)

        def boom():
            raise err

        w = t.wrap("kernels", "boom", boom)
        with pytest.raises(ConvergenceError) as info, t.job_span(0, "job"):
            w()
        assert info.value is err
        assert info.value.diagnostics == {"r": 0.999}
        assert t.spans[1].error == "ConvergenceError"

    def test_outside_a_job_nothing_is_recorded(self):
        t = spans.Tracer()
        assert t.wrap("abel", "f", lambda: 7)() == 7
        assert t.spans == []

    def test_install_patches_every_importer_and_uninstall_restores(self):
        raw = quadrature._gauss_jacobi_raw
        cell_rule = measure.WeightedMeasure.__dict__["cell_rule"]
        t = spans.Tracer()
        t.install(jacobi_watson)
        try:
            assert quadrature._gauss_jacobi_raw is not raw
            assert abel._gauss_jacobi_raw is quadrature._gauss_jacobi_raw
            assert measure._gauss_jacobi_raw is quadrature._gauss_jacobi_raw
            assert measure.WeightedMeasure.__dict__["cell_rule"] is not cell_rule
            m = measure.WeightedMeasure.power(0.5)
            want = cell_rule(m, 0.0, 0.5, 8)
            with t.job_span(0, "job"):
                got = m.cell_rule(0.0, 0.5, 8)
            assert all((g == w).all() for g, w in zip(got, want))
            assert "WeightedMeasure.cell_rule" in {s.name for s in t.spans}
        finally:
            t.uninstall()
        assert quadrature._gauss_jacobi_raw is raw
        assert abel._gauss_jacobi_raw is raw
        assert measure.WeightedMeasure.__dict__["cell_rule"] is cell_rule


def _span(name, layer, start, end, parent):
    s = spans.Span(name, layer, start, parent, 0)
    s.end = end
    return s


class TestSelfTime:
    # job [0, 10] -> abel [1, 9] -> { polynomials [2, 4], abel [5, 8] -> quadrature [6, 7] }
    SPANS = [
        _span("job", "job", 0.0, 10.0, None),
        _span("abel_mean", "abel", 1.0, 9.0, 0),
        _span("jacobi_eval", "polynomials", 2.0, 4.0, 1),
        _span("fourier_jacobi_coefficients", "abel", 5.0, 8.0, 1),
        _span("gauss_legendre", "quadrature", 6.0, 7.0, 3),
    ]

    def test_self_time_subtracts_direct_children(self):
        assert spans.self_times(self.SPANS) == [2.0, 3.0, 2.0, 2.0, 1.0]

    def test_layer_totals_count_nested_same_layer_once(self):
        out = spans.aggregate(self.SPANS)
        assert out["abel.self_s"] == 5.0
        assert out["polynomials.self_s"] == 2.0
        assert out["quadrature.self_s"] == 1.0
        # the nested abel span is not a second entry into the layer
        assert out["abel.calls"] == 1
        # the projection loop's own time, without the rule built under it
        assert out["abel.projection_s"] == 2.0
        total = sum(spans.self_times(self.SPANS))
        assert total == self.SPANS[0].duration


class TestCaches:
    def test_every_pass_starts_with_cold_rule_caches(self):
        t = spans.Tracer()
        for install in (False, True):
            if install:
                t.install(jacobi_watson)
            try:
                quadrature.gauss_legendre(7)
                quadrature._gauss_jacobi_raw(7, 0.5, 0.5)
                run.clear_caches(jacobi_watson)
            finally:
                t.uninstall()
            assert quadrature.gauss_legendre.cache_info().currsize == 0
            assert quadrature._gauss_jacobi_raw.cache_info().currsize == 0


class TestTailRule:
    def test_percentile_leaves_ten_jobs_beyond(self):
        assert run.tail_percentile(100) == 90.0
        assert run.tail_percentile(1000) == 99.0
        assert run.tail_percentile(50) == 75.0
        assert run.tail_percentile(20) == 50.0
        assert run.tail_percentile(19) is None

    def test_value_is_the_nearest_rank(self):
        samples = [float(v) for v in range(1, 101)]
        p = run.tail_percentile(len(samples))
        tail = run.nearest_rank(samples, p)
        assert tail == 90.0
        assert sum(1 for v in samples if v > tail) == 10

    def test_timings_rank_each_jobs_median_run(self):
        # 20 jobs, job k ran in k / 2, k and 100 + k seconds: the medians count
        runs = [[run.Outcome("job", 100.0 + k, True, None), run.Outcome("job", float(k), True, None),
                 run.Outcome("job", k / 2.0, True, None)] for k in range(1, 21)]
        metrics, extra = run.end_to_end(runs, [1.0])
        assert metrics["wall_s"][0] == sum(range(1, 21))
        assert metrics["job_p50_s"][0] == 10.5
        assert metrics["job_tail_s"][0] == 10.0
        assert "p50 of 20 jobs" in extra["tail"]


class TestMetricNames:
    SPEC = json.loads((HERE.parent / "BENCHMARK.json").read_text())

    def _outcome(self, ok=True):
        return run.Outcome("job", 0.5, ok, None)

    def test_end_to_end_names_and_units_match_the_spec(self):
        metrics, _ = run.end_to_end([[self._outcome()] * 3], [0.7, 0.8, 0.9])
        want = {m["name"]: m["unit"] for m in self.SPEC["end_to_end"]}
        assert {k: u for k, (_, u) in metrics.items()} == want

    def test_per_layer_names_and_units_match_the_spec(self):
        metrics = run.layer_metrics([], 0.5, [self._outcome(False)], [])
        want = {m["name"]: m["unit"] for m in self.SPEC["per_layer"]}
        assert {k: u for k, (_, u) in metrics.items()} == want


class TestCliCheck:
    def _out(self, status, records):
        return workloads.CliOutput(status, json.dumps({"records": records}))

    def test_failed_hard_check_reports_its_value_and_bound(self):
        out = self._out(1, [
            {"hard": True, "passed": True, "value": 1.0, "bound": 2.0},
            {"hard": True, "passed": False, "value": "nan", "bound": None},
        ])
        chk = workloads.check_cli_report(out)
        assert not chk.ok and chk.value != chk.value and chk.bound is None

    def test_a_report_without_hard_checks_fails(self):
        out = self._out(0, [{"hard": False, "passed": True, "value": 1.0, "bound": None}])
        assert not workloads.check_cli_report(out).ok
        assert not workloads.check_cli_report(workloads.CliOutput(0, "")).ok
