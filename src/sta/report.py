"""Check records and report serialization for the verification CLI.

The structured report is canonical: fixed key order, no timing data, so a
fixed configuration and seed produce byte-identical files.  Wall time is
reported on the human log only.  Reports are strict JSON: a check whose value
is not finite is written with ``"value": null`` and fails.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field


@dataclass
class Check:
    """One verified identity: measured value against its tolerance."""

    suite: str
    name: str
    law: str
    value: float
    tol: float
    passed: bool
    diagnostic: bool = False

    def __post_init__(self):
        if not math.isfinite(self.value):
            self.passed = False

    def to_json(self) -> dict:
        return {
            "suite": self.suite,
            "name": self.name,
            "law": self.law,
            "value": float(self.value) if math.isfinite(self.value) else None,
            "tol": float(self.tol),
            "passed": bool(self.passed),
            "diagnostic": bool(self.diagnostic),
        }

    def human_line(self) -> str:
        status = "PASS" if self.passed else "FAIL"
        extra = " (diagnostic)" if self.diagnostic else ""
        return (
            f"[{status}] {self.suite}/{self.name}: value={self.value:.3e} "
            f"tol={self.tol:.1e}{extra}  -- {self.law}"
        )


@dataclass
class Report:
    scenario: str
    seed: int
    grid: int
    checks: list[Check] = field(default_factory=list)
    wall_time_s: float = 0.0

    @property
    def passed(self) -> bool:
        return all(c.passed for c in self.checks)

    @property
    def counts(self) -> tuple[int, int]:
        good = sum(1 for c in self.checks if c.passed)
        return good, len(self.checks) - good

    def to_json_text(self) -> str:
        obj = {
            "scenario": self.scenario,
            "seed": self.seed,
            "grid": self.grid,
            "passed": self.passed,
            "summary": {
                "total": len(self.checks),
                "passed": self.counts[0],
                "failed": self.counts[1],
            },
            "checks": [c.to_json() for c in self.checks],
        }
        return json.dumps(obj, indent=2, sort_keys=True, allow_nan=False) + "\n"

    def human_text(self) -> str:
        lines = [f"scenario: {self.scenario} (seed={self.seed}, grid={self.grid})"]
        lines += [c.human_line() for c in self.checks]
        good, bad = self.counts
        lines.append(
            f"summary: {good} passed, {bad} failed, "
            f"{'OK' if self.passed else 'FAILED'} in {self.wall_time_s:.2f} s"
        )
        return "\n".join(lines) + "\n"
