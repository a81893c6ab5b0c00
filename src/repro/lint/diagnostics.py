"""Diagnostics: the structured findings the static analyzer emits.

A :class:`Diagnostic` pins one finding to a rule id (``DM101``), a severity,
and a location -- a plan step index and/or the subject matrix instance or
operator output -- plus a fix hint, so reports are actionable and machine
readable.  A :class:`LintReport` aggregates the findings of one analysis
run, supports per-rule suppression, and renders either a human-readable
listing or a JSON document (``--format json``).
"""

from __future__ import annotations

import dataclasses
import enum
import json
from typing import Iterable, Iterator

from repro.config import ClusterConfig


class Severity(enum.Enum):
    """How bad a finding is.

    ``ERROR`` findings are invariant violations: executing the plan would
    compute the wrong answer, violate a paper guarantee, or exceed a
    declared resource bound.  ``WARNING`` findings are inefficiencies: the
    plan is correct but wasteful under the dependency-oriented cost model.
    """

    ERROR = "error"
    WARNING = "warning"

    def __str__(self) -> str:
        return self.value


@dataclasses.dataclass(frozen=True)
class Diagnostic:
    """One finding of the static analyzer."""

    rule: str  # rule id, e.g. "DM101"
    severity: Severity
    message: str  # what is wrong, with concrete values
    hint: str = ""  # how to fix it
    step: int | None = None  # plan step index the finding anchors to
    subject: str | None = None  # matrix instance / operator output involved

    def location(self) -> str:
        parts = []
        if self.step is not None:
            parts.append(f"step {self.step}")
        if self.subject is not None:
            parts.append(str(self.subject))
        return ", ".join(parts) if parts else "plan"

    def to_json(self) -> dict:
        return {
            "rule": self.rule,
            "severity": self.severity.value,
            "message": self.message,
            "hint": self.hint,
            "step": self.step,
            "subject": self.subject,
        }


@dataclasses.dataclass(frozen=True)
class LintContext:
    """Cluster-level facts the plan rules check resource bounds against.

    ``num_workers`` and ``estimation_mode`` must match what the plan was
    generated with; the cost-model agreement rule (DM104) recomputes
    predicted bytes from them.  ``block_size``/``memory_limit_bytes`` are
    optional -- the Eq-3 and broadcast-budget rules only fire when the
    corresponding knob is set.
    """

    num_workers: int = 4
    threads_per_worker: int = 8
    block_size: int | None = None
    memory_limit_bytes: int | None = None
    estimation_mode: str = "worst"

    @classmethod
    def from_config(
        cls, config: ClusterConfig, estimation_mode: str = "worst"
    ) -> "LintContext":
        """Build a context from a :class:`repro.config.ClusterConfig`."""
        return cls(
            num_workers=config.num_workers,
            threads_per_worker=config.threads_per_worker,
            block_size=config.block_size,
            memory_limit_bytes=config.memory_limit_bytes,
            estimation_mode=estimation_mode,
        )


@dataclasses.dataclass
class LintReport:
    """The outcome of linting one program (and optionally its plan)."""

    diagnostics: list[Diagnostic] = dataclasses.field(default_factory=list)
    suppressed: tuple[str, ...] = ()  # rule ids removed from the findings

    def __iter__(self) -> Iterator[Diagnostic]:
        return iter(self.diagnostics)

    def __len__(self) -> int:
        return len(self.diagnostics)

    @property
    def errors(self) -> list[Diagnostic]:
        return [d for d in self.diagnostics if d.severity is Severity.ERROR]

    @property
    def warnings(self) -> list[Diagnostic]:
        return [d for d in self.diagnostics if d.severity is Severity.WARNING]

    @property
    def has_errors(self) -> bool:
        return any(d.severity is Severity.ERROR for d in self.diagnostics)

    def rule_ids(self) -> set[str]:
        return {d.rule for d in self.diagnostics}

    def extend(self, findings: Iterable[Diagnostic]) -> None:
        self.diagnostics.extend(findings)

    def sorted(self) -> list[Diagnostic]:
        """Errors first, then by plan location, then by rule id."""
        order = {Severity.ERROR: 0, Severity.WARNING: 1}
        return sorted(
            self.diagnostics,
            key=lambda d: (
                order[d.severity],
                d.step if d.step is not None else -1,
                d.rule,
            ),
        )

    def to_json(self) -> dict:
        return {
            "errors": len(self.errors),
            "warnings": len(self.warnings),
            "suppressed": list(self.suppressed),
            "diagnostics": [d.to_json() for d in self.sorted()],
        }

    def to_json_string(self, indent: int = 2) -> str:
        return json.dumps(self.to_json(), indent=indent)

    def format_human(self) -> str:
        """Compiler-style listing, one line per finding plus a summary."""
        lines = []
        for diagnostic in self.sorted():
            lines.append(
                f"{diagnostic.severity}: {diagnostic.rule} [{diagnostic.location()}] "
                f"{diagnostic.message}"
            )
            if diagnostic.hint:
                lines.append(f"    hint: {diagnostic.hint}")
        summary = f"{len(self.errors)} error(s), {len(self.warnings)} warning(s)"
        if self.suppressed:
            summary += f" (suppressed: {', '.join(self.suppressed)})"
        lines.append(summary)
        return "\n".join(lines)
