"""Every entry of the CLI suite table yields a report with hard checks."""

import json

import pytest

from jacobi_watson.cli import SUITES, main

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
