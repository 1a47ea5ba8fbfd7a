"""Every entry of the CLI suite table yields a report with hard checks, and
every command takes the shared options plus its own --suite."""

import argparse
import json

import pytest

from jacobi_watson.cli import SUITES, _build_parser, main

CASES = [(command, suite) for command in SUITES for suite in SUITES[command]]


@pytest.mark.parametrize("command,suite", CASES)
def test_json_suite_has_hard_checks(command, suite, tmp_path, capsys):
    out = tmp_path / "rep.json"
    code = main([command, "--suite", suite, "--out", str(out)])
    if suite == "grid":
        # a grid carries no checks, so a JSON report of it is refused
        assert code == 2
        assert not out.exists()
        return
    assert code == 0
    doc = json.loads(out.read_text())
    assert doc["pass"] is True
    assert any(r["hard"] for r in doc["records"])


def test_report_all_has_hard_checks(tmp_path, capsys):
    out = tmp_path / "rep.json"
    assert main(["report-all", "--out", str(out)]) == 0
    doc = json.loads(out.read_text())
    assert doc["pass"] is True
    assert any(r["hard"] for r in doc["records"])


SHARED = [
    "--config", "--alpha", "--beta", "--r", "--x-points", "--y", "--lambda", "--measure",
    "--f", "--tol", "--seed", "--refine", "--out", "--format", "--timing",
]


def test_every_command_has_the_shared_options_in_order():
    ap = _build_parser()
    sub = next(a for a in ap._actions if isinstance(a, argparse._SubParsersAction))
    assert list(sub.choices) == [*SUITES, "report-all"]
    for cmd, sp in sub.choices.items():
        opts = [a.option_strings[-1] for a in sp._actions]
        assert opts == ["--help", *SHARED, *(["--suite"] if cmd in SUITES else [])], cmd
        if cmd in SUITES:
            assert list(sp._actions[-1].choices) == list(SUITES[cmd])
