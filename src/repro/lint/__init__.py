"""repro.lint -- static analysis of matrix programs and DMac plans.

The analyzer sits between the planner and the executor: it abstract-
interprets a plan DAG (shapes, worst-case sizes, partition schemes,
stages) and applies a registry of rules that either *prove an invariant
was violated* (DM1xx, error severity) or *prove bytes are being wasted*
(DM2xx, warning severity) -- all without executing anything.

Entry points::

    from repro.lint import lint_plan, lint_program, LintContext

    report = lint_plan(plan, LintContext.from_config(config))
    if report.has_errors:
        print(report.format_human())
"""

from repro.lint.diagnostics import (
    Diagnostic,
    LintContext,
    LintReport,
    Severity,
)
from repro.lint.rules import RULES, LintInput, Rule
from repro.lint.runner import (
    capture_plans,
    lint_dml_source,
    lint_path,
    lint_plan,
    lint_program,
    lint_python_file,
    plan_for,
)
from repro.lint.selftest import format_selftest, run_selftest

__all__ = [
    "Diagnostic",
    "LintContext",
    "LintReport",
    "Severity",
    "RULES",
    "LintInput",
    "Rule",
    "capture_plans",
    "lint_dml_source",
    "lint_path",
    "lint_plan",
    "lint_program",
    "lint_python_file",
    "plan_for",
    "format_selftest",
    "run_selftest",
]
