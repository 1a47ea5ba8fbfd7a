"""Bad configuration exits 2 and a diverging grid exits 1, never with a traceback."""

import json

import pytest

from jacobi_watson.cli import RunConfig, main
from jacobi_watson.errors import DomainError


@pytest.mark.parametrize(
    "argv",
    [
        ["kernel", "--r", "abc"],
        ["kernel", "--r", "0.5,"],
        ["cz", "--lambda", "x"],
    ],
)
def test_malformed_number_list_is_usage_error(argv, capsys):
    with pytest.raises(SystemExit) as exc:
        main(argv)
    assert exc.value.code == 2
    assert "comma list" in capsys.readouterr().err


@pytest.mark.parametrize(
    "text",
    [
        '{"x_points": "abc"}',
        '{"r_grid": 0.5}',
        '{"r_grid": ["a"]}',
        '{"alpha": null}',
        '{"timing": "yes"}',
        '{"x_points": true}',
        '{"params": 1}',
        "[1, 2]",
    ],
)
def test_wrongly_typed_config_is_config_error(text, tmp_path, capsys):
    cfgfile = tmp_path / "c.json"
    cfgfile.write_text(text)
    assert main(["estimates", "--suite", "poisson", "--config", str(cfgfile)]) == 2
    assert capsys.readouterr().err.startswith("configuration error:")


def test_config_values_echo_as_given(tmp_path, capsys):
    cfgfile = tmp_path / "c.json"
    cfgfile.write_text('{"alpha": 1, "r_grid": [0.5]}')
    out = tmp_path / "rep.json"
    assert main(["estimates", "--suite", "poisson", "--config", str(cfgfile), "--out", str(out)]) == 0
    doc = json.loads(out.read_text())
    assert doc["config"]["alpha"] == 1 and isinstance(doc["config"]["alpha"], int)
    assert doc["config"]["r_grid"] == [0.5]


@pytest.mark.parametrize("command", ["abel", "cz"])
@pytest.mark.parametrize("fmt", ["json", "csv"])
def test_unknown_test_function_is_config_error(command, fmt, capsys):
    code = main([command, "--f", "banana", "--format", fmt])
    assert code == 2
    assert "unknown test function 'banana'" in capsys.readouterr().err


def test_csv_grid_numerical_failure_is_reported(tmp_path, capsys):
    # r = 0.996 is past the series route's budget; the grid has no values to
    # write, so the run reports the failure and writes no CSV
    out = tmp_path / "g.csv"
    code = main(
        ["kernel", "--suite", "grid", "--format", "csv", "--r", "0.996",
         "--x-points", "3", "--out", str(out)]
    )
    assert code == 1
    captured = capsys.readouterr()
    assert captured.err.startswith("numerical failure: ConvergenceError: ")
    assert captured.out == ""
    assert not out.exists()


@pytest.mark.parametrize(
    "argv",
    [
        ["cz", "--f", "sign"],
        ["cz", "--f", "pk:3"],
        ["cz", "--f", "fk:3"],
        ["report-all", "--f", "sign"],
    ],
)
def test_refused_test_function_is_config_error(argv, capsys):
    # cz_decompose needs f >= 0 on the support; report-all passes --f to cz
    assert main(argv) == 2
    captured = capsys.readouterr()
    assert captured.err.startswith("configuration error:")
    assert "f >= 0" in captured.err
    assert captured.out == ""


@pytest.mark.parametrize(
    "command", ["kernel", "abel", "cz", "weights", "estimates", "report-all"]
)
@pytest.mark.parametrize("source", ["flag", "config"])
def test_negative_seed_is_config_error(command, source, tmp_path, capsys):
    if source == "flag":
        argv = [command, "--seed", "-1"]
    else:
        cfgfile = tmp_path / "c.json"
        cfgfile.write_text('{"seed": -1}')
        argv = [command, "--config", str(cfgfile)]
    assert main(argv) == 2
    assert capsys.readouterr().err.startswith("configuration error: seed must be >= 0")


@pytest.mark.parametrize(
    "argv",
    [
        ["abel", "--suite", "mean", "--f", "fk:3", "--alpha", "0.9", "--beta", "-0.9"],
        ["abel", "--suite", "lp", "--f", "fk:3", "--alpha", "0.9", "--beta", "-0.9"],
        ["abel", "--suite", "maximal", "--f", "fk:3", "--alpha", "-0.7", "--beta", "0.2"],
        ["abel", "--format", "csv", "--f", "fk:3", "--alpha", "0.9", "--beta", "-0.9"],
        ["report-all", "--f", "fk:3", "--beta", "-0.8"],
    ],
)
def test_fk3_outside_l1_is_config_error(argv, capsys):
    # fk:3 J(dx) behaves like (1 -+ x)^(3e/2) at an end of exponent e, which is
    # not integrable for e <= -2/3
    assert main(argv) == 2
    captured = capsys.readouterr()
    assert captured.err.startswith("configuration error:")
    assert "not in L^1(J)" in captured.err
    assert captured.out == ""


def test_fk3_refusal_starts_at_minus_two_thirds():
    with pytest.raises(DomainError, match="L\\^1"):
        RunConfig("abel", "mean", alpha=-2.0 / 3.0, f_name="fk:3").validate()
    RunConfig("abel", "mean", alpha=0.5, beta=-0.66, f_name="fk:3").validate()
    RunConfig("abel", "mean", alpha=-0.9, beta=-0.9, f_name="pk:3").validate()


@pytest.mark.parametrize(
    "argv,message",
    [
        (["abel", "--suite", "maximal", "--format", "csv", "--refine", "0"], "--refine must be at least 1"),
        (["abel", "--suite", "maximal", "--refine", "-1"], "--refine must be at least 1"),
        (["abel", "--x-points", "1"], "--x-points must be at least 2"),
    ],
)
def test_refine_and_x_points_below_their_floor_are_config_errors(argv, message, capsys):
    assert main(argv) == 2
    captured = capsys.readouterr()
    assert captured.err.startswith("configuration error:")
    assert message in captured.err
    assert captured.out == ""


def test_unwritable_out_is_config_error(tmp_path, capsys):
    out = tmp_path / "missing" / "x.json"
    assert main(["estimates", "--suite", "poisson", "--out", str(out)]) == 2
    captured = capsys.readouterr()
    assert captured.err.startswith("configuration error:")
    assert len(captured.err.splitlines()) == 1
    assert not out.exists()


@pytest.mark.parametrize("lam", ["nan", "inf", "0.7,nan"])
def test_non_finite_threshold_is_config_error(lam, capsys):
    assert main(["cz", "--lambda", lam]) == 2
    captured = capsys.readouterr()
    assert captured.err.startswith("configuration error: need a finite positive threshold")
    assert captured.out == ""


@pytest.mark.parametrize(
    "spec",
    [
        "power:0.5,0",
        "power:",
        "power:0.5,0,1,2",
        "jacobi:nan,0",
        "jacobi:0,inf",
        "power:inf",
        "lebesgue:0,inf",
        "lebesgue:-inf,0",
    ],
)
def test_malformed_or_non_finite_measure_is_config_error(spec, capsys):
    # power takes 1 or 3 numbers; every end and exponent must be finite
    assert main(["cz", "--measure", spec]) == 2
    captured = capsys.readouterr()
    assert captured.err.startswith(f"configuration error: bad measure spec {spec!r}")
    assert len(captured.err.splitlines()) == 1
    assert captured.out == ""


@pytest.mark.parametrize("fmt", ["json", "csv"])
def test_refine_past_six_is_config_error(fmt, capsys):
    # the maximal grid's top radius 1 - 2^-(8 refine) rounds to 1.0 from refine 7
    assert main(["abel", "--suite", "maximal", "--format", fmt, "--refine", "7"]) == 2
    captured = capsys.readouterr()
    assert captured.err == "configuration error: --refine must be at most 6, got 7\n"
    assert captured.out == ""
