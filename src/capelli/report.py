"""Machine-readable run reports.

A verification run produces a ``RunReport``: tool version, the command and
its parameters, one record per check, and a summary.  Serialization is
byte-deterministic for fixed inputs: rationals are rendered as ``p/q``
strings (never floats), dict key order is fixed at construction, and JSON is
emitted with a fixed layout.  The JSON shape is described by the schema
shipped at ``capelli/schemas/report.schema.json``.
"""

from __future__ import annotations

import csv
import io
import json
from dataclasses import dataclass, field

from . import __version__


def json_text(obj) -> str:
    """The fixed JSON layout of every document the package writes."""
    return json.dumps(obj, indent=2, ensure_ascii=True) + "\n"


def csv_text(header: list[str], rows) -> str:
    """The fixed CSV layout: a header row, then one line per row."""
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(header)
    writer.writerows(rows)
    return buf.getvalue()


@dataclass(frozen=True)
class Check:
    """One verification record; ``params`` keeps insertion order."""

    name: str
    params: tuple[tuple[str, str], ...]
    status: str  # "pass" | "fail"
    lhs: str = "-"
    rhs: str = "-"

    @property
    def passed(self) -> bool:
        return self.status == "pass"

    def params_str(self) -> str:
        return " ".join(f"{k}={v}" for k, v in self.params)


@dataclass
class RunReport:
    command: str
    params: tuple[tuple[str, str], ...]
    checks: list[Check] = field(default_factory=list)
    version: str = __version__

    @property
    def total(self) -> int:
        return len(self.checks)

    @property
    def passed(self) -> int:
        return sum(1 for c in self.checks if c.passed)

    @property
    def failed(self) -> int:
        return self.total - self.passed

    @property
    def all_passed(self) -> bool:
        return self.failed == 0

    def to_obj(self) -> dict:
        return {
            "version": self.version,
            "command": self.command,
            "params": {k: v for k, v in self.params},
            "checks": [
                {
                    "name": c.name,
                    "params": {k: v for k, v in c.params},
                    "status": c.status,
                    "lhs": c.lhs,
                    "rhs": c.rhs,
                }
                for c in self.checks
            ],
            "summary": {"total": self.total, "passed": self.passed, "failed": self.failed},
        }

    def to_json(self) -> str:
        return json_text(self.to_obj())

    def to_csv(self) -> str:
        return csv_text(["name", "params", "status", "lhs", "rhs"],
                        ([c.name, c.params_str(), c.status, c.lhs, c.rhs] for c in self.checks))

    def to_pretty(self) -> str:
        lines = [f"capelli {self.command} (v{self.version})"]
        for k, v in self.params:
            lines.append(f"  {k} = {v}")
        for c in self.checks:
            lines.append(f"[{c.status.upper():4}] {c.name} {c.params_str()}")
            if not c.passed:
                lines.append(f"       lhs: {c.lhs}")
                lines.append(f"       rhs: {c.rhs}")
        lines.append(f"summary: {self.passed}/{self.total} passed, {self.failed} failed")
        return "\n".join(lines) + "\n"

    def summary_line(self) -> str:
        return f"capelli {self.command}: {self.passed}/{self.total} passed, {self.failed} failed"
