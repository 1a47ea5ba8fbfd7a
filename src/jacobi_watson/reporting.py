"""Typed check records and byte-stable serialization for run reports.

A report is a command echo plus a list of checks. Hard checks gate the
aggregate pass flag; soft checks carry fitted constants and diagnostics that
are reported but never gated on. The JSON form is canonical: keys sorted,
floats printed with 17 significant digits (round-trip exact), no volatile
fields unless explicitly requested, so a fixed configuration and seed
reproduce the output byte for byte.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

SCHEMA_VERSION = 1

CSV_HEADER = "x,r,value,method,error_estimate"

__all__ = [
    "SCHEMA_VERSION",
    "CSV_HEADER",
    "CheckRecord",
    "Report",
    "canonical_json",
    "format_float",
    "grid_csv",
]


def format_float(v: float) -> str:
    """17 significant digits; enough to reconstruct the double exactly."""
    if math.isnan(v):
        return '"nan"'
    if math.isinf(v):
        return '"inf"' if v > 0 else '"-inf"'
    s = format(float(v), ".17g")
    if "." not in s and "e" not in s and "E" not in s:
        s += ".0"
    return s


def _escape(s: str) -> str:
    out = []
    for ch in s:
        if ch == '"':
            out.append('\\"')
        elif ch == "\\":
            out.append("\\\\")
        elif ord(ch) < 0x20:
            out.append(f"\\u{ord(ch):04x}")
        else:
            out.append(ch)
    return '"' + "".join(out) + '"'


def canonical_json(obj) -> str:
    """Deterministic JSON: sorted object keys, canonical float text.

    Non-finite floats are emitted as the strings "inf", "-inf", "nan" since
    bare tokens for them are not valid JSON.
    """
    if obj is None:
        return "null"
    if obj is True:
        return "true"
    if obj is False:
        return "false"
    if isinstance(obj, str):
        return _escape(obj)
    if isinstance(obj, int):
        return str(obj)
    if isinstance(obj, float):
        return format_float(obj)
    if isinstance(obj, dict):
        items = sorted(obj.items(), key=lambda kv: kv[0])
        body = ",".join(_escape(str(k)) + ":" + canonical_json(v) for k, v in items)
        return "{" + body + "}"
    if isinstance(obj, (list, tuple)):
        return "[" + ",".join(canonical_json(v) for v in obj) + "]"
    # numpy scalars and anything float-like fall through here
    if hasattr(obj, "item"):
        return canonical_json(obj.item())
    raise TypeError(f"cannot serialize {type(obj).__name__}")


@dataclass(frozen=True)
class CheckRecord:
    """One named check: the computed value against its bound or expectation.

    anchor is a stable tag for the fact being checked, so downstream tooling
    can track a check across runs independent of display names. bound is the
    number the value was compared against (None for report-only values).
    """

    name: str
    anchor: str
    value: float
    bound: float | None
    passed: bool
    hard: bool = True

    def to_dict(self) -> dict:
        return {
            "name": self.name,
            "anchor": self.anchor,
            "value": self.value,
            "bound": self.bound,
            "passed": self.passed,
            "hard": self.hard,
        }


@dataclass
class Report:
    """Aggregated result of one command run."""

    command: str
    config: dict
    records: list = field(default_factory=list)

    def add(self, name, anchor, value, bound, passed, hard=True) -> None:
        """A check with a predicate of its own; the relations below cover
        the common ones, each recording the bound it tests."""
        self.records.append(
            CheckRecord(name, anchor, float(value), bound, bool(passed), hard)
        )

    # the relations: a nan value fails each of them

    def at_most(self, name, anchor, value, bound, slack=0.0) -> None:
        """value <= bound * (1 + slack)."""
        self.add(name, anchor, value, bound, value <= bound * (1.0 + slack))

    def at_least(self, name, anchor, value, bound) -> None:
        self.add(name, anchor, value, bound, value >= bound)

    def above(self, name, anchor, value, bound) -> None:
        self.add(name, anchor, value, bound, value > bound)

    def near(self, name, anchor, value, want, tol) -> None:
        """|value - want| <= tol; the record's bound is want."""
        self.add(name, anchor, value, want, abs(value - want) <= tol)

    def finite(self, name, anchor, value) -> None:
        """value is finite; the record has no bound."""
        self.add(name, anchor, value, None, math.isfinite(value))

    def extend(self, other: "Report") -> None:
        self.records.extend(other.records)

    @property
    def aggregate_pass(self) -> bool:
        return all(r.passed for r in self.records if r.hard)

    def to_dict(self, timing: float | None = None) -> dict:
        d = {
            "schema": SCHEMA_VERSION,
            "command": self.command,
            "config": self.config,
            "records": [r.to_dict() for r in self.records],
            "pass": self.aggregate_pass,
        }
        if timing is not None:
            d["timing_seconds"] = timing
        return d

    def to_json(self, timing: float | None = None) -> str:
        return canonical_json(self.to_dict(timing)) + "\n"

    def summary(self) -> str:
        hard = [r for r in self.records if r.hard]
        failed = [r for r in hard if not r.passed]
        word = "pass" if self.aggregate_pass else "FAIL"
        line = (
            f"{self.command}: {word} "
            f"({len(hard) - len(failed)}/{len(hard)} hard checks, "
            f"{len(self.records) - len(hard)} reported values)"
        )
        for r in failed:
            line += f"\n  FAIL {r.name}: value {r.value!r} vs bound {r.bound!r}"
        return line


def grid_csv(rows) -> str:
    """Plot-ready CSV: header then one row per grid point, caller's order.

    Each row is (x, r, value, method, error_estimate); floats use 17
    significant digits.
    """
    out = [CSV_HEADER]
    for x, r, value, method, err in rows:
        out.append(
            ",".join(
                (
                    format(float(x), ".17g"),
                    format(float(r), ".17g"),
                    format(float(value), ".17g"),
                    str(method),
                    format(float(err), ".17g"),
                )
            )
        )
    return "\n".join(out) + "\n"
