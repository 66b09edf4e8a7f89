"""Verification report records and their stable serializations.

Schema haarent-report/1. A report compares a computed lhs against rhs:
for <=-claims slack = rhs - lhs and passed means slack >= -tolerance;
for =-claims passed means |lhs - rhs| <= tolerance. Skipped trials are
recorded as passed reports whose scope notes start with "skipped:".
judge applies this rule; every report is made by it.
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


def judge(claim_id: str, found, tolerance: float, seed: int,
          trial: int = 0) -> VerificationReport:
    """The report of what a checker compared: `found` is a tuple
    (relation, lhs, rhs, notes) with relation "=", "<=" or "<", or a str,
    the reason the trial was skipped.

    A strict "<" is recorded with the tolerance negated, so it passes only
    when rhs - lhs reaches the tolerance.
    """
    if isinstance(found, str):
        return VerificationReport(claim_id, True, 0.0, 0.0, 0.0, tolerance,
                                  seed, trial, "skipped: " + found)
    relation, lhs, rhs, notes = found
    slack = rhs - lhs
    if relation == "=":
        passed = abs(slack) <= tolerance
    else:
        if relation == "<":
            tolerance = -tolerance
        passed = slack >= -tolerance
    return VerificationReport(claim_id, passed, lhs, rhs, slack, tolerance,
                              seed, trial, notes)


def reports_to_json(reports) -> str:
    """{"schema": ..., "reports": [...]}, laid out as json.dumps(doc,
    indent=2) lays it out, but by one call of json's C encoder (indent
    selects the pure-Python one). A report dict is flat and ensure_ascii
    escapes every newline inside a string, so the separator "},\n      {"
    occurs only between two reports."""
    dicts = [r.to_dict() for r in reports]
    if not dicts:
        return json.dumps({"schema": SCHEMA, "reports": dicts}, indent=2)
    body = json.dumps(dicts, separators=(",\n      ", ": "))[2:-2]
    body = body.replace("},\n      {", "\n    },\n    {\n      ")
    return (f'{{\n  "schema": {json.dumps(SCHEMA)},\n  "reports": [\n'
            f'    {{\n      {body}\n    }}\n  ]\n}}')


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
