"""Standalone benchmark runner: regenerate every table and figure without
pytest and print a combined report.

Usage::

    python benchmarks/run_all.py            # run everything
    python benchmarks/run_all.py fig6 table4  # run a subset
    python benchmarks/run_all.py --list     # enumerate experiments
    python benchmarks/run_all.py --only planopt --only fig6

Equivalent to ``pytest benchmarks/ --benchmark-only`` but with plain
console output; each experiment's table is also written to
``benchmarks/results/``, and a consolidated machine-readable summary --
per-experiment wall-clock plus every (simulated and measured) metric
table, seed stamps included -- to ``benchmarks/results/BENCH_summary.json``.
"""

from __future__ import annotations

import argparse
import json
import pathlib
import subprocess
import sys
import time

BENCH_DIR = pathlib.Path(__file__).resolve().parent
RESULTS_DIR = BENCH_DIR / "results"
SUMMARY_PATH = RESULTS_DIR / "BENCH_summary.json"

#: Experiment name -> benchmark file.
EXPERIMENTS = {
    "fig6": "bench_fig6_gnmf.py",
    "fig7": "bench_fig7_memory.py",
    "fig8": "bench_fig8_blocksize.py",
    "fig9a": "bench_fig9a_pagerank.py",
    "fig9b": "bench_fig9b_apps.py",
    "fig10data": "bench_fig10_scale_data.py",
    "fig10workers": "bench_fig10_scale_workers.py",
    "table4": "bench_table4_systems.py",
    "heuristics": "bench_ablation_heuristics.py",
    "greedygap": "bench_greedy_gap.py",
    "estimator": "bench_estimator_modes.py",
    "ranksweep": "bench_rank_sweep.py",
    "runtimesmoke": "bench_runtime_smoke.py",
    "recovery": "bench_recovery_overhead.py",
    "planopt": "bench_planopt.py",
    "elastic": "bench_elastic.py",
    "fusedkernels": "bench_fused_kernels.py",
}


def _table_stamps() -> dict[str, float]:
    """Modification times of the structured per-table results."""
    if not RESULTS_DIR.is_dir():
        return {}
    return {path.name: path.stat().st_mtime for path in RESULTS_DIR.glob("*.json")}


def _refreshed_tables(before: dict[str, float]) -> list[dict]:
    """The structured tables written or rewritten since ``before``."""
    tables = []
    for name, mtime in sorted(_table_stamps().items()):
        if name == SUMMARY_PATH.name or before.get(name) == mtime:
            continue
        try:
            tables.append(json.loads((RESULTS_DIR / name).read_text()))
        except (OSError, json.JSONDecodeError):  # pragma: no cover
            continue
    return tables


def write_summary(entries: list[dict]) -> None:
    """Persist the consolidated run summary to ``BENCH_summary.json``."""
    RESULTS_DIR.mkdir(exist_ok=True)
    summary = {
        "suite": "dmac-paper-reproduction",
        "python": sys.version.split()[0],
        "experiments": entries,
    }
    SUMMARY_PATH.write_text(json.dumps(summary, indent=2) + "\n")


def main(argv: list[str]) -> int:
    parser = argparse.ArgumentParser(
        prog="run_all.py",
        description="run the paper-reproduction benchmark suite",
    )
    parser.add_argument("experiments", nargs="*", metavar="NAME",
                        help="experiments to run (default: all)")
    parser.add_argument("--list", action="store_true",
                        help="list registered experiments and exit")
    parser.add_argument("--only", action="append", default=[], metavar="NAME",
                        help="run only this experiment (repeatable; "
                             "combines with positional names)")
    args = parser.parse_args(argv)
    if args.list:
        width = max(len(name) for name in EXPERIMENTS)
        for name, bench in EXPERIMENTS.items():
            print(f"{name.ljust(width)}  {bench}")
        return 0
    requested = args.experiments + args.only or list(EXPERIMENTS)
    unknown = [name for name in requested if name not in EXPERIMENTS]
    if unknown:
        print(
            f"error: unknown experiments: {', '.join(unknown)}\n"
            f"valid names: {', '.join(sorted(EXPERIMENTS))}",
            file=sys.stderr,
        )
        return 2
    failures = []
    entries = []
    for name in requested:
        bench = BENCH_DIR / EXPERIMENTS[name]
        print(f"\n=== {name}: {bench.name} ===")
        stamps = _table_stamps()
        started = time.perf_counter()
        proc = subprocess.run(
            [sys.executable, "-m", "pytest", str(bench), "--benchmark-only",
             "-q", "--no-header"],
            cwd=BENCH_DIR.parent,
        )
        wall_clock = time.perf_counter() - started
        if proc.returncode != 0:
            failures.append(name)
        entries.append(
            {
                "experiment": name,
                "file": bench.name,
                "wall_clock_seconds": round(wall_clock, 3),
                "returncode": proc.returncode,
                "tables": _refreshed_tables(stamps),
            }
        )
    write_summary(entries)
    results = sorted(RESULTS_DIR.glob("*.txt"))
    print("\n" + "=" * 72)
    print("Combined report (also under benchmarks/results/):")
    for path in results:
        print("\n" + path.read_text())
    print(f"summary written to {SUMMARY_PATH}")
    if failures:
        print(f"FAILED experiments: {failures}")
        return 1
    print(f"all {len(requested)} experiments completed")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
