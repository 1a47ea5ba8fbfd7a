"""CLI reports against committed goldens.

A change that is meant to change no result keeps, for every case, the exit
status, the report's header and config, and each record's name, anchor,
bound and pass flag exactly; values may move by 1e-12 relative at most.

To rewrite the goldens after a deliberate change of results, run
`PYTHONPATH=src python tests/test_golden.py` from the repository root, and
say in CHANGES.md which values moved.
"""

import contextlib
import io
import json
from pathlib import Path

import pytest

from jacobi_watson.cli import main

GOLDEN = Path(__file__).parent / "golden"
ALT = ["--alpha", "-0.5", "--beta", "-0.5", "--r", "0.5,0.9,0.99"]
CASES = {
    "report-all-default": ["report-all"],
    "report-all-alt": ["report-all", *ALT],
    "cz-clipped-jacobi": [
        "cz", "--f", "clipped", "--measure", "jacobi:-0.9,0.3", "--lambda", "0.7,1.5,3",
    ],
    "abel-lp-sign": ["abel", "--suite", "lp", "--f", "sign"],
    "weights-jacobi-a1": ["weights", "--suite", "jacobi-a1"],
    # the suites report-all leaves out, at the default config
    "kernel-crossval": ["kernel", "--suite", "crossval"],
    "abel-mean": ["abel", "--suite", "mean"],
    "abel-maximal": ["abel", "--suite", "maximal"],
    "weights-ap": ["weights", "--suite", "ap"],
    "weights-divergence": ["weights", "--suite", "divergence"],
    "estimates-dyadic": ["estimates", "--suite", "dyadic"],
    "estimates-auxiliary": ["estimates", "--suite", "auxiliary"],
    "estimates-mainest": ["estimates", "--suite", "mainest"],
    "estimates-joperator": ["estimates", "--suite", "joperator"],
}
EXACT = ("name", "anchor", "bound", "passed", "hard")
REL = 1e-12


def _close(got, want) -> bool:
    if isinstance(got, float) and isinstance(want, float):
        return got == want or abs(got - want) <= REL * max(abs(got), abs(want))
    return got == want  # non-finite values are the strings "nan", "inf", "-inf"


def _run(argv) -> dict:
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = main(argv)
    return {"exit": code, "report": json.loads(out.getvalue())}


@pytest.mark.parametrize("name", sorted(CASES))
def test_report_matches_golden(name):
    want = json.loads((GOLDEN / f"{name}.json").read_text())
    got = _run(CASES[name])
    assert got["exit"] == want["exit"]
    head = {k: v for k, v in got["report"].items() if k != "records"}
    assert head == {k: v for k, v in want["report"].items() if k != "records"}
    records, expected = got["report"]["records"], want["report"]["records"]
    assert len(records) == len(expected)
    for g, w in zip(records, expected):
        assert {k: g[k] for k in EXACT} == {k: w[k] for k in EXACT}
        assert _close(g["value"], w["value"]), (g["name"], g["value"], w["value"])


def test_close_is_relative():
    assert _close(1.0, 1.0 + 1e-13) and not _close(1.0, 1.0 + 1e-11)
    assert _close(0.0, 0.0) and not _close(0.0, 1e-300)
    assert _close("nan", "nan") and not _close("inf", 1e308)


def _moved(case: str, doc: dict) -> list:
    """(case, name, field, old, new) for each record field, the value or one
    of EXACT, that differs from the committed golden, in record order; [] when
    there is no golden yet."""
    path = GOLDEN / f"{case}.json"
    if not path.exists():
        return []
    old = json.loads(path.read_text())["report"]["records"]
    new = doc["report"]["records"]
    return [
        (case, n["name"], key, o[key], n[key])
        for o, n in zip(old, new)
        for key in ("value", *EXACT)
        if o[key] != n[key]
    ]


if __name__ == "__main__":
    GOLDEN.mkdir(exist_ok=True)
    for case, argv in CASES.items():
        doc = _run(argv)
        for moved in _moved(case, doc):
            print("moved", *moved)
        (GOLDEN / f"{case}.json").write_text(json.dumps(doc, indent=1, sort_keys=True) + "\n")
        print(case, "exit", doc["exit"])
