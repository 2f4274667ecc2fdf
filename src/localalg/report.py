"""Line-oriented check reports shared by the verification suites and the CLI.

Human-readable lines come first, one per check:

    CHECK <name> PASS|FAIL detail=<value>

and a machine block of KEY=VALUE lines is appended after a ``---``
separator. All numbers render with 17 significant digits so reports are
byte-reproducible.
"""

from __future__ import annotations

from dataclasses import dataclass, field


def fmt(value) -> str:
    if isinstance(value, bool):
        return "1" if value else "0"
    if isinstance(value, float):
        return f"{value:.17g}"
    return str(value)


@dataclass
class Check:
    name: str
    passed: bool
    detail: object

    def line(self) -> str:
        status = "PASS" if self.passed else "FAIL"
        return f"CHECK {self.name} {status} detail={fmt(self.detail)}"


@dataclass
class Report:
    checks: list[Check] = field(default_factory=list)
    data: dict[str, object] = field(default_factory=dict)

    def add(self, name: str, passed: bool, detail) -> None:
        self.checks.append(Check(name, bool(passed), detail))

    def put(self, key: str, value) -> None:
        self.data[key] = value

    def merge(self, other: "Report") -> None:
        self.checks.extend(other.checks)
        self.data.update(other.data)

    @property
    def passed(self) -> bool:
        return all(c.passed for c in self.checks)

    def render(self) -> str:
        lines = [c.line() for c in self.checks] + ["---"]
        lines += [f"{key}={fmt(value)}" for key, value in self.data.items()]
        return "\n".join(lines) + "\n"
