"""Structured check records and deterministic report output.

One record per check: the name, the identity it certifies (the anchor),
the measured residual against the tolerance the check sets (both null for a
pass/fail check), and any convention notes (signs fixed by the package).
Reports serialize to JSON lines plus a human-readable table, bit-identical
across runs with the same seed.
"""
from __future__ import annotations

import json
from dataclasses import dataclass, field

__all__ = ["CheckRecord", "Report", "fmt_float"]


def fmt_float(x):
    if x is None:
        return None
    return float(f"{float(x):.12g}")


@dataclass
class CheckRecord:
    name: str
    anchor: str                  # the identity or construction being certified
    residual: float | None
    tol: float | None
    passed: bool
    notes: str = ""

    def to_json(self):
        return {
            "name": self.name,
            "anchor": self.anchor,
            "residual": fmt_float(self.residual),
            "tol": fmt_float(self.tol),
            "passed": bool(self.passed),
            "notes": self.notes,
        }


@dataclass
class Report:
    scenario: str
    seed: int
    samples: int
    checks: list = field(default_factory=list)
    conventions: str = ("fiber volume extracted rightmost; F = -sum theta_i^thetat_i "
                        "for constructed duals; bracket flux term i_X i_Y H; "
                        "d_H = d + H^")

    def add(self, name, anchor, residual=None, tol=None, passed=None, notes=""):
        if passed is None:
            if residual is None or tol is None:
                raise ValueError("explicit pass/fail needed without residual+tol")
            passed = residual <= tol
        self.checks.append(CheckRecord(name, anchor, residual, tol, bool(passed), notes))
        return self.checks[-1]

    @property
    def ok(self):
        return all(c.passed for c in self.checks)

    def to_jsonl(self):
        lines = [json.dumps({
            "scenario": self.scenario,
            "seed": self.seed,
            "samples": self.samples,
            "conventions": self.conventions,
            "passed": self.ok,
        }, sort_keys=True)]
        for c in self.checks:
            lines.append(json.dumps(c.to_json(), sort_keys=True))
        return "\n".join(lines) + "\n"

    def summary_table(self):
        width = max((len(c.name) for c in self.checks), default=4)
        out = [f"scenario {self.scenario}  (seed={self.seed}, samples={self.samples})"]
        out.append("-" * (width + 34))
        for c in self.checks:
            res = "      --" if c.residual is None else f"{c.residual:8.2e}"
            status = "pass" if c.passed else "FAIL"
            out.append(f"{c.name:<{width}}  {res}  {status}  {c.anchor}")
        out.append("-" * (width + 34))
        out.append(f"result: {'all checks passed' if self.ok else 'FAILURES PRESENT'}")
        return "\n".join(out)
