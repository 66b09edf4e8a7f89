"""Verification report records and their stable serializations.

Schema haarent-report/1. A report compares a computed lhs against rhs:
for <=-claims slack = rhs - lhs and passed means slack >= -tolerance;
for =-claims passed means |lhs - rhs| <= tolerance. Skipped trials are
recorded as passed reports whose scope notes start with "skipped:".
"""

from __future__ import annotations

import csv
import io
import json
from dataclasses import dataclass

SCHEMA = "haarent-report/1"

CSV_COLUMNS = ["claim_id", "trial", "passed", "lhs", "rhs", "slack",
               "tolerance", "seed", "scope_notes"]


@dataclass(frozen=True)
class VerificationReport:
    claim_id: str
    passed: bool
    lhs: float
    rhs: float
    slack: float
    tolerance: float
    seed: int
    trial: int = 0
    scope_notes: str = ""

    @property
    def skipped(self) -> bool:
        return self.scope_notes.startswith("skipped:")

    def to_dict(self) -> dict:
        return {k: getattr(self, k) for k in CSV_COLUMNS}


def le_report(claim_id: str, lhs: float, rhs: float, tolerance: float,
              seed: int, trial: int = 0, scope_notes: str = "") -> VerificationReport:
    """lhs <= rhs claim."""
    slack = rhs - lhs
    return VerificationReport(claim_id, slack >= -tolerance, lhs, rhs,
                              slack, tolerance, seed, trial, scope_notes)


def eq_report(claim_id: str, lhs: float, rhs: float, tolerance: float,
              seed: int, trial: int = 0, scope_notes: str = "") -> VerificationReport:
    """lhs == rhs claim (within tolerance)."""
    slack = rhs - lhs
    return VerificationReport(claim_id, abs(slack) <= tolerance, lhs, rhs,
                              slack, tolerance, seed, trial, scope_notes)


def skip_report(claim_id: str, reason: str, tolerance: float, seed: int,
                trial: int = 0) -> VerificationReport:
    return VerificationReport(claim_id, True, 0.0, 0.0, 0.0, tolerance,
                              seed, trial, "skipped: " + reason)


def reports_to_json(reports) -> str:
    doc = {"schema": SCHEMA, "reports": [r.to_dict() for r in reports]}
    return json.dumps(doc, indent=2)


def reports_to_csv(reports) -> str:
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(CSV_COLUMNS)
    for r in reports:
        d = r.to_dict()
        writer.writerow([repr(d[c]) if isinstance(d[c], float) else d[c]
                         for c in CSV_COLUMNS])
    return buf.getvalue()


def reports_to_table(reports) -> str:
    rows = [CSV_COLUMNS]
    for r in reports:
        d = r.to_dict()
        rows.append([f"{d[c]:.12g}" if isinstance(d[c], float) else str(d[c])
                     for c in CSV_COLUMNS])
    widths = [max(len(row[i]) for row in rows) for i in range(len(CSV_COLUMNS))]
    lines = []
    for j, row in enumerate(rows):
        lines.append("  ".join(cell.ljust(widths[i])
                               for i, cell in enumerate(row)).rstrip())
        if j == 0:
            lines.append("  ".join("-" * widths[i]
                                   for i in range(len(CSV_COLUMNS))))
    return "\n".join(lines) + "\n"
