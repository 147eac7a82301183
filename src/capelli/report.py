"""Machine-readable run reports.

A verification run produces a ``RunReport``: tool version, the command and
its parameters, one record per check, and a summary.  Serialization is
byte-deterministic for fixed inputs: rationals are rendered as ``p/q``
strings (never floats), dict key order is fixed at construction, and JSON is
emitted with a fixed layout.  The JSON shape is described by the schema
shipped at ``capelli/schemas/report.schema.json``.
``RunReport.to_json`` lays that out by hand, one check at a time, with the
C escaper of ``json.dumps``; a property test holds it to ``json_text`` of
the reference object form in ``tests/test_report_config.py``.
"""

from __future__ import annotations

import io
import json
from json.encoder import encode_basestring_ascii as _q
from typing import NamedTuple

from . import __version__


def json_text(obj) -> str:
    """The fixed JSON layout of every document the package writes."""
    return json.dumps(obj, indent=2, ensure_ascii=True) + "\n"


def csv_text(header: list[str], rows) -> str:
    """The fixed CSV layout: a header row, then one line per row."""
    import csv  # only the CSV format needs it

    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(header)
    writer.writerows(rows)
    return buf.getvalue()


def _json_map(pairs, pad: str) -> str:
    """String ``pairs`` as a ``json_text`` object closed at indent ``pad``; a later key wins."""
    body = f",\n{pad}  ".join(f"{_q(k)}: {_q(v)}" for k, v in dict(pairs).items())
    return f"{{\n{pad}  {body}\n{pad}}}" if body else "{}"


class Check(NamedTuple):
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


class RunReport:
    def __init__(self, command: str, params: tuple[tuple[str, str], ...], checks: list[Check],
                 version: str = __version__):
        self.command, self.params, self.checks, self.version = command, params, checks, version

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

    def to_json(self) -> str:
        """The report in the ``json_text`` layout, laid out one check at a
        time: version, command, params, the checks, then the summary."""
        checks = ",\n".join(
            f'    {{\n      "name": {_q(c.name)},\n'
            f'      "params": {_json_map(c.params, "      ")},\n      "status": {_q(c.status)},\n'
            f'      "lhs": {_q(c.lhs)},\n      "rhs": {_q(c.rhs)}\n    }}'
            for c in self.checks)
        checks = f"[\n{checks}\n  ]" if self.checks else "[]"
        return (f'{{\n  "version": {_q(self.version)},\n  "command": {_q(self.command)},\n'
                f'  "params": {_json_map(self.params, "  ")},\n  "checks": {checks},\n'
                f'  "summary": {{\n    "total": {self.total},\n    "passed": {self.passed},\n'
                f'    "failed": {self.failed}\n  }}\n}}\n')

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
