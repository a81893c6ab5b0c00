"""repro.lint -- static analysis of matrix programs and DMac plans.

The analyzer sits between the planner and the executor: it abstract-
interprets a plan DAG (shapes, worst-case sizes, partition schemes,
stages) and applies a registry of rules that either *prove an invariant
was violated* (DM1xx, error severity) or *prove bytes are being wasted*
(DM2xx, warning severity) -- all without executing anything.

Entry points::

    from repro.lint import lint_plan, LintContext

    report = lint_plan(plan, LintContext.from_config(config))
    if report.has_errors:
        print(report.format_human())
"""

from repro._exports import export_table

_EXPORTS = {
    "Diagnostic": "repro.lint.diagnostics",
    "LintContext": "repro.lint.diagnostics",
    "LintReport": "repro.lint.diagnostics",
    "Severity": "repro.lint.diagnostics",
    "RULES": "repro.lint.rules",
    "LintInput": "repro.lint.rules",
    "lint_plan": "repro.lint.runner",
    "lint_python_file": "repro.lint.runner",
    "plan_for": "repro.lint.runner",
    "format_selftest": "repro.lint.selftest",
    "run_selftest": "repro.lint.selftest",
}

__all__ = sorted(_EXPORTS)
__getattr__, __dir__ = export_table(__name__, _EXPORTS)
