"""Shared helpers for the paper-reproduction benchmarks.

Every benchmark regenerates one table or figure of the paper at a reduced
scale (see DESIGN.md, Substitutions).  Results are printed and also written
to ``benchmarks/results/<name>.txt`` so the series survive pytest's output
capture; EXPERIMENTS.md records the paper-vs-measured comparison.
"""

from __future__ import annotations

import json
import pathlib
from typing import Sequence

RESULTS_DIR = pathlib.Path(__file__).resolve().parent / "results"


def bench_clock():
    """Simulated-hardware constants for the benchmarks.

    The datasets are scaled down ~1000x from the paper's (DESIGN.md,
    Substitutions); scaling the clock's bandwidth/flop constants by a
    similar factor puts the benchmarks back in the paper's regime, where
    communication -- not per-stage scheduling latency -- dominates the
    runtime of the dependency-blind plans.  Ratios between systems depend
    on measured bytes and flops either way; this only affects how visible
    they are in the time series.
    """
    from repro.config import ClockConfig

    return ClockConfig(
        network_bytes_per_sec=2e6,
        dense_flops_per_sec=5e7,
        sparse_flops_per_sec=1.5e7,
        disk_bytes_per_sec=2e6,
        latency_per_stage_sec=0.01,
    )


def fmt_bytes(nbytes: float) -> str:
    """Human-readable byte count."""
    value = float(nbytes)
    for unit in ("B", "KB", "MB", "GB"):
        if abs(value) < 1024 or unit == "GB":
            return f"{value:.2f} {unit}"
        value /= 1024
    return f"{value:.2f} GB"  # pragma: no cover


def fmt_secs(seconds: float) -> str:
    return f"{seconds:.3f} s"


def report(
    name: str,
    title: str,
    headers: Sequence[str],
    rows: Sequence[Sequence[object]],
    notes: str = "",
    seed: int | None = None,
) -> str:
    """Render an aligned table, print it, and persist it under results/.

    Besides the human-readable ``results/<name>.txt``, the same table is
    written structured to ``results/<name>.json`` so ``run_all.py`` can
    consolidate every experiment's (simulated and measured) metrics into
    ``BENCH_summary.json``.  ``seed`` stamps the RNG seed the benchmark's
    datasets derive from, when it has a single one.
    """
    table = [list(map(str, headers))] + [[str(cell) for cell in row] for row in rows]
    widths = [max(len(row[col]) for row in table) for col in range(len(headers))]
    lines = [title, "=" * len(title)]
    for index, row in enumerate(table):
        lines.append("  ".join(cell.ljust(width) for cell, width in zip(row, widths)))
        if index == 0:
            lines.append("  ".join("-" * width for width in widths))
    if notes:
        lines.append("")
        lines.append(notes)
    text = "\n".join(lines)
    RESULTS_DIR.mkdir(exist_ok=True)
    (RESULTS_DIR / f"{name}.txt").write_text(text + "\n")
    structured = {
        "name": name,
        "title": title,
        "headers": list(map(str, headers)),
        "rows": [[str(cell) for cell in row] for row in rows],
        "notes": notes,
        "seed": seed,
    }
    (RESULTS_DIR / f"{name}.json").write_text(
        json.dumps(structured, indent=2) + "\n"
    )
    print("\n" + text)
    return text


def density(array) -> float:
    """Non-zero fraction of a numpy array or a coordinate matrix (whose
    ``np.count_nonzero`` is its ``nnz``, read without densifying)."""
    import numpy as np

    return float(np.count_nonzero(array)) / array.size


def registry_workload(app: str, **overrides):
    """Program + inputs for a registered app (see repro.programs.registry).

    ``overrides`` patch individual :class:`WorkloadParams` fields
    (``scale``, ``iterations``, ``rows``, ...); everything else keeps the
    CLI defaults, so a benchmark measures exactly what ``repro run <app>``
    executes.
    """
    from repro.programs.registry import WorkloadParams, build_workload

    return build_workload(app, WorkloadParams(**overrides))


def assert_plan_clean(plan, config=None, estimation_mode: str = "worst") -> None:
    """Fail the benchmark if its plan has error-severity lint findings.

    Every benchmarked DMac plan must uphold the paper's static invariants
    (scheme constraints, stage purity, ledger agreement, memory bounds) --
    a benchmark of an invalid plan measures nothing.
    """
    from repro.lint import LintContext, lint_plan

    context = (
        LintContext.from_config(config, estimation_mode)
        if config is not None
        else LintContext()
    )
    report = lint_plan(plan, context)
    if report.has_errors:
        raise AssertionError(
            "benchmark plan failed static analysis:\n" + report.format_human()
        )
