"""Report serialization, grid emission, exit codes, and config handling."""

import json
import math

import numpy as np
import pytest

from jacobi_watson import (
    AbelParameter,
    JacobiParams,
    abel_mean,
    jacobi_eval,
)
from jacobi_watson import test_function_family as function_family
from jacobi_watson.cli import main
from jacobi_watson.reporting import (
    CSV_HEADER,
    CheckRecord,
    Report,
    canonical_json,
    format_float,
    grid_csv,
)


class TestCanonicalJson:
    def test_keys_are_sorted(self):
        s = canonical_json({"zeta": 1, "alpha": 2, "mid": {"b": 0, "a": 1}})
        assert s.index('"alpha"') < s.index('"mid"') < s.index('"zeta"')
        assert s.index('"a"') < s.index('"b"')

    def test_floats_round_trip_at_17_digits(self):
        for v in (math.pi, 1.0 / 3.0, 2.0**-52, 1e300, -0.1):
            s = canonical_json({"v": v})
            back = json.loads(s)["v"]
            assert back == v

    def test_integral_floats_keep_a_decimal_point(self):
        assert canonical_json(2.0) == "2.0"
        assert canonical_json(-10.0) == "-10.0"

    def test_nonfinite_becomes_quoted_strings(self):
        assert canonical_json(math.inf) == '"inf"'
        assert canonical_json(-math.inf) == '"-inf"'
        assert canonical_json(math.nan) == '"nan"'

    def test_numpy_scalars_are_unwrapped(self):
        s = canonical_json({"a": np.float64(0.5), "n": np.int64(3)})
        assert json.loads(s) == {"a": 0.5, "n": 3}

    def test_containers_and_primitives(self):
        s = canonical_json({"t": (1, 2), "l": [True, None, "x"]})
        assert json.loads(s) == {"t": [1, 2], "l": [True, None, "x"]}

    def test_unknown_types_rejected(self):
        with pytest.raises(TypeError):
            canonical_json(object())

    def test_format_float_is_shortest_exact(self):
        assert float(format_float(math.pi)) == math.pi
        assert format_float(4.0) == "4.0"


class TestReport:
    def _report(self):
        rep = Report(command="kernel", config={"alpha": 0.5})
        rep.add("mass", "conservation", 1.0 + 1e-15, 1e-10, True)
        rep.add("probe", "soft-note", 0.3, 1.0, False, hard=False)
        return rep

    def test_soft_failures_do_not_gate(self):
        rep = self._report()
        assert rep.aggregate_pass
        rep.add("bad", "hard-check", 2.0, 1.0, False)
        assert not rep.aggregate_pass

    def test_summary_names_failures(self):
        rep = self._report()
        rep.add("bad", "hard-check", 2.0, 1.0, False)
        text = rep.summary()
        assert "FAIL" in text
        assert "bad" in text

    def test_json_shape(self):
        rep = self._report()
        doc = json.loads(rep.to_json())
        assert doc["command"] == "kernel"
        assert [r["name"] for r in doc["records"]] == ["mass", "probe"]
        assert "timing_seconds" not in doc
        doc2 = json.loads(rep.to_json(0.25))
        assert doc2["timing_seconds"] == 0.25

    def test_record_fields(self):
        r = CheckRecord(name="n", anchor="a", value=1.0, bound=2.0, passed=True)
        d = r.to_dict()
        assert set(d) == {"name", "anchor", "value", "bound", "passed", "hard"}


def _checked(relation: str, *args, **kw) -> CheckRecord:
    rep = Report(command="kernel", config={})
    getattr(rep, relation)("check", "anchor", *args, **kw)
    (rec,) = rep.records
    assert rec.hard
    return rec


class TestRelations:
    def test_value_at_the_bound_passes(self):
        assert _checked("at_most", 1e-8, 1e-8).passed
        assert _checked("at_least", -1e-10, -1e-10).passed
        assert _checked("near", 1.5, 1.0, 0.5).passed

    def test_each_relation_fails_past_its_bound(self):
        assert not _checked("at_most", 2e-8, 1e-8).passed
        assert not _checked("at_least", -2e-10, -1e-10).passed
        assert not _checked("near", 1.5 + 1e-9, 1.0, 0.5).passed
        assert not _checked("near", 0.5 - 1e-9, 1.0, 0.5).passed
        assert not _checked("finite", math.inf).passed

    def test_above_is_strict(self):
        assert not _checked("above", 0.7, 0.7).passed
        assert _checked("above", 0.7 + 1e-16, 0.7).passed

    def test_slack_is_multiplicative(self):
        # bound 3 with slack 1e-10 allows 3e-10 above it; an absolute slack of
        # 1e-10 would fail the first check and pass the last
        assert _checked("at_most", 3.0 + 2e-10, 3.0, slack=1e-10).passed
        assert not _checked("at_most", 3.0 + 4e-10, 3.0, slack=1e-10).passed
        assert not _checked("at_most", 1e-11, 0.0, slack=1e-10).passed

    def test_nan_fails_every_relation(self):
        nan = math.nan
        for relation, args in (("at_most", (nan, 1.0)), ("at_least", (nan, 0.0)),
                               ("above", (nan, 0.0)), ("near", (nan, 0.0, 1.0)),
                               ("finite", (nan,))):
            assert not _checked(relation, *args).passed, relation

    def test_each_records_the_bound_it_tests(self):
        assert _checked("near", 1.0 + 1e-12, 1.0, 1e-10).bound == 1.0
        assert _checked("at_most", 0.5, 2.0, slack=1e-12).bound == 2.0
        assert _checked("at_least", 0.5, 0.25).bound == 0.25
        assert _checked("above", 0.5, 0.25).bound == 0.25
        rec = _checked("finite", 4.0)
        assert rec.bound is None and rec.passed


def test_grid_csv_shape():
    rows = [(0.1, 0.5, 1.25, "series", 1e-12)]
    text = grid_csv(rows)
    lines = text.strip().split("\n")
    assert lines[0] == CSV_HEADER
    cells = lines[1].split(",")
    assert cells[3] == "series"
    # numeric cells carry 17 significant digits and round-trip exactly
    assert float(cells[0]) == 0.1
    assert float(cells[2]) == 1.25
    assert float(cells[4]) == 1e-12


class TestExitCodes:
    def test_passing_suite_returns_zero(self, capsys, tmp_path):
        out = tmp_path / "rep.json"
        code = main(
            ["estimates", "--suite", "poisson", "--alpha", "0.5", "--out", str(out)]
        )
        assert code == 0
        doc = json.loads(out.read_text())
        assert all(r["passed"] for r in doc["records"])

    def test_unknown_suite_is_config_error(self, capsys):
        # argparse rejects it via choices=, which also carries exit code 2
        with pytest.raises(SystemExit) as exc:
            main(["estimates", "--suite", "nonsense"])
        assert exc.value.code == 2

    def test_invalid_parameter_is_config_error(self, capsys):
        assert main(["kernel", "--alpha", "-2.0"]) == 2

    def test_unknown_config_key_is_config_error(self, tmp_path, capsys):
        cfgfile = tmp_path / "c.json"
        cfgfile.write_text('{"alpha": 0.5, "bogus": 1}')
        assert main(["kernel", "--config", str(cfgfile)]) == 2

    def test_numerical_divergence_is_a_failed_check(self, capsys, tmp_path):
        # r = 0.05 puts k above 2, collapsing the majorant window; the run
        # must record a failed divergence check and exit 1, not crash
        out = tmp_path / "rep.json"
        code = main(
            ["estimates", "--suite", "joperator", "--r", "0.05", "--out", str(out)]
        )
        assert code == 1
        doc = json.loads(out.read_text())
        failed = [r for r in doc["records"] if not r["passed"]]
        assert any(r["anchor"] == "no-numerical-divergence" for r in failed)

    def test_numerical_failure_keeps_the_records_before_it(self, capsys, tmp_path):
        # r = 0.5 passes; r = 0.999 meets the series cliff
        out = tmp_path / "rep.json"
        code = main(["kernel", "--suite", "mass", "--r", "0.5,0.999", "--out", str(out)])
        assert code == 1
        records = json.loads(out.read_text())["records"]
        assert [(r["name"], r["passed"]) for r in records] == [
            ("mass r=0.5", True), ("mass completed", False)]
        assert records[1]["anchor"] == "no-numerical-divergence"
        assert records[1]["value"] == "nan" and records[1]["bound"] is None
        assert "numerical failure: ConvergenceError: " in capsys.readouterr().err


class TestDeterminism:
    def test_reports_are_byte_identical(self, tmp_path):
        a, b = tmp_path / "a.json", tmp_path / "b.json"
        argv = ["weights", "--measure", "lebesgue:0,1", "--out"]
        assert main(argv + [str(a)]) == 0
        assert main(argv + [str(b)]) == 0
        assert a.read_bytes() == b.read_bytes()

    def test_timing_only_when_requested(self, tmp_path):
        out = tmp_path / "t.json"
        main(["estimates", "--suite", "poisson", "--timing", "--out", str(out)])
        assert "timing_seconds" in json.loads(out.read_text())


class TestConfigPrecedence:
    def test_flags_override_file(self, tmp_path, capsys):
        cfgfile = tmp_path / "c.json"
        cfgfile.write_text('{"alpha": 0.5, "beta": 0.5, "r_grid": [0.5]}')
        out = tmp_path / "rep.json"
        code = main(
            ["estimates", "--suite", "poisson", "--config", str(cfgfile),
             "--alpha", "1.7", "--out", str(out)]
        )
        assert code == 0
        doc = json.loads(out.read_text())
        assert doc["config"]["alpha"] == 1.7
        assert doc["config"]["beta"] == 0.5


class TestGridEmission:
    def test_kernel_grid_row_count(self, tmp_path):
        out = tmp_path / "g.csv"
        code = main(
            ["kernel", "--format", "csv", "--x-points", "100",
             "--r", "0.5,0.9,0.99", "--out", str(out)]
        )
        assert code == 0
        lines = out.read_text().strip().split("\n")
        assert lines[0] == CSV_HEADER
        assert len(lines) == 301

    def test_abel_grid_matches_eigenvalue_law(self, tmp_path):
        # the pk:3 column must be r^3 P_3(x) to 1e-10
        out = tmp_path / "g.csv"
        code = main(
            ["abel", "--format", "csv", "--f", "pk:3", "--alpha", "0.5",
             "--beta", "0.3", "--x-points", "40", "--r", "0.6,0.9",
             "--out", str(out)]
        )
        assert code == 0
        p = JacobiParams(0.5, 0.3)
        worst = 0.0
        for line in out.read_text().strip().split("\n")[1:]:
            xs, rs, vs = line.split(",")[:3]
            x, r, v = float(xs), float(rs), float(vs)
            worst = max(worst, abs(v - r**3 * jacobi_eval(p, 3, x)))
        assert worst <= 1e-10

    @pytest.mark.parametrize("tag", ["sign", "clipped", "pk:3"])
    def test_abel_grid_holds_the_mean_suites_numbers(self, tag, tmp_path):
        # each row is abel_mean's series value on the mean suite's x grid, and
        # its error column the gap to the kernel route at that x
        out = tmp_path / "g.csv"
        assert main(["abel", "--format", "csv", "--f", tag, "--r", "0.5,0.9",
                     "--out", str(out)]) == 0
        rows = [line.split(",") for line in out.read_text().strip().split("\n")[1:]]
        p = JacobiParams(0.0, 0.0)
        f = next(tf for tf in function_family(p) if tf.tag == tag)
        xs = np.linspace(-1.0, 1.0, 25)
        for i, r in enumerate((0.5, 0.9)):
            got = rows[25 * i : 25 * (i + 1)]
            ab = AbelParameter(r)
            series = abel_mean(f, p, ab, xs)
            gap = np.abs(abel_mean(f, p, ab, xs, route="kernel") - series)
            assert [float(row[0]) for row in got] == xs.tolist()
            assert all(float(row[1]) == r for row in got)
            assert [float(row[2]) for row in got] == series.tolist()
            assert [float(row[4]) for row in got] == gap.tolist()
        assert len(rows) == 50

    def test_abel_grid_past_the_series_cliff_fails(self, tmp_path, capsys):
        # the kernel route behind the error column has no budget at r = 0.999
        out = tmp_path / "g.csv"
        code = main(["abel", "--format", "csv", "--r", "0.999", "--out", str(out)])
        assert code == 1
        assert "numerical failure" in capsys.readouterr().err
        assert not out.exists()

    def test_csv_only_for_grid_commands(self, capsys):
        assert main(["cz", "--format", "csv"]) == 2


def test_measure_parser_errors(capsys):
    assert main(["cz", "--measure", "banana:1,2"]) == 2
    assert main(["cz", "--measure", "jacobi:0.5"]) == 2


@pytest.mark.parametrize("beta", [-0.99, 0.5])
def test_mass_suite_passes_near_the_lower_exponent_limit(beta, tmp_path, capsys):
    # below 514 nodes scipy builds the rule; its 512-node rule at
    # (-0.99, -0.99) left the mass 1.2e-7 off at r = 0.5, against 1e-8
    out = tmp_path / "m.json"
    argv = ["kernel", "--suite", "mass", "--alpha", "-0.99", "--beta", str(beta)]
    assert main([*argv, "--out", str(out)]) == 0
