"""Deterministic run reports.

The body (config echo plus ordered checks) is byte-stable for a fixed
configuration and tool version: it holds no wall-clock time.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field as dc_field

from . import __version__


@dataclass
class Check:
    name: str
    status: str  # "pass" | "fail"
    expected: str = None
    actual: str = None
    location: str = None

    def to_json(self) -> dict:
        out = {"name": self.name, "status": self.status}
        for key in ("expected", "actual", "location"):
            v = getattr(self, key)
            if v is not None:
                out[key] = v
        return out


@dataclass
class Report:
    command: str
    config: dict
    checks: list = dc_field(default_factory=list)
    results: list = dc_field(default_factory=list)

    def add(self, name, ok, expected=None, actual=None, location=None):
        self.checks.append(
            Check(
                name,
                "pass" if ok else "fail",
                None if expected is None else str(expected),
                None if actual is None else str(actual),
                location,
            )
        )
        return ok

    @property
    def passed(self) -> bool:
        return all(c.status == "pass" for c in self.checks)

    def to_json(self) -> dict:
        body = {
            "schema": "tautrel/report/1",
            "version": __version__,
            "command": self.command,
            "config": self.config,
            "status": "pass" if self.passed else "fail",
            "checks": [c.to_json() for c in self.checks],
        }
        if self.results:
            body["results"] = self.results
        return body

    def render_text(self) -> str:
        lines = [f"tautrel {__version__} :: {self.command}"]
        for key, val in self.config.items():
            lines.append(f"  {key} = {val}")
        for row in self.results:
            if isinstance(row, dict) and "verdict" in row:
                head = (
                    f"d={row['d']} chi1={row['chi1']} chi2={row['chi2']}: "
                    f"{row['verdict']}"
                )
                if "agrees" in row:
                    head += f" (agrees: {row['agrees']})"
                lines.append(head)
                if row.get("witness"):
                    w = row["witness"]
                    lines.append(f"  witness [{w['candidate']}]:")
                    for name in ("S", "A", "B", "U", "V"):
                        lines.append(f"    {name} = {w[name]}")
                for cert in row.get("certificates", []):
                    lines.append(f"  certificate: {cert}")
            elif isinstance(row, dict) and "P1" in row:
                lines.append(f"P1 = {row['P1']}")
        for c in self.checks:
            line = f"[{c.status.upper():4s}] {c.name}"
            if c.status == "fail" and c.expected is not None:
                line += f"  expected {c.expected}, got {c.actual}"
            if c.location:
                line += f"  ({c.location})"
            lines.append(line)
        lines.append(f"overall: {'pass' if self.passed else 'FAIL'}")
        return "\n".join(lines)

    def render(self, format: str) -> str:
        if format == "json":
            return json.dumps(self.to_json(), indent=2) + "\n"
        return self.render_text() + "\n"
