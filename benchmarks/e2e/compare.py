#!/usr/bin/env python3
"""Compare two result directories written by ``run.py --out``.

    python3 benchmarks/e2e/compare.py BASE_DIR NEW_DIR

Prints one row per (workload, metric): each side's median over the runs
in its directory and their inter-quartile distance as a share of it, the
ratio with its base, and a verdict against the bound fixed in
``BENCHMARK.json``:

``ok``          the new median is no worse than the base's by more than the bound
``regressed``   it is worse by more than the bound (or an exact number changed,
                or ``failed_share`` rose)
``unresolved``  the run-to-run spread (inter-quartile distance over the median,
                on either side) is wider than the bound, and not every new run
                beats every base run

Per-layer metrics (``BENCH_layers.json``, when both directories have one)
carry no bound: the exact ones must repeat, the rest are shown for the
ratio.  Exits non-zero on any ``regressed`` row.
"""

from __future__ import annotations

import json
import pathlib
import statistics
import sys

ROOT = pathlib.Path(__file__).resolve().parents[2]
#: Simulated books and counts made by the program: they repeat exactly for a
#: seed, so any difference is a correctness event, not a performance one.
EXACT = (
    "comm_bytes",
    "sim_s",
    "datasets.input_mb",
    "core.plan_steps",
    "planopt.rewrites",
    "planopt.steps_after",
    "runtime.stages",
    "runtime.predicted_peak_bytes",
    "rdd.transfers",
    "localexec.flops",
    "kernels.batched_pairs",
    "kernels.fused_steps",
    "serve.rejected",
    "serve.failed",
)


def load(directory: str, filename: str) -> dict[tuple[str, str], list[float]]:
    """(workload, metric) -> one value per run."""
    path = pathlib.Path(directory) / filename
    if not path.exists():
        return {}
    samples: dict[tuple[str, str], list[float]] = {}
    for run in json.loads(path.read_text())["runs"]:
        for metric, cell in run["metrics"].items():
            samples.setdefault((run["workload"], metric), []).append(cell["value"])
    return samples


def spread(values: list[float]) -> float:
    """Inter-quartile distance as a share of the median."""
    if len(values) < 2:
        return 0.0
    q1, median, q3 = statistics.quantiles(values, n=4)
    return (q3 - q1) / abs(median) if median else 0.0


def verdict(metric: str, spec: dict | None, base: list[float], new: list[float]) -> str:
    base_median, new_median = statistics.median(base), statistics.median(new)
    if metric in EXACT:
        return "ok" if sorted(set(base)) == sorted(set(new)) else "regressed"
    if metric == "failed_share":
        return "ok" if new_median <= base_median else "regressed"
    if spec is None or "bound" not in spec:
        return "-"
    sign = 1.0 if spec["better"] == "lower" else -1.0
    if sign * (new_median - base_median) > spec["bound"] * abs(base_median):
        return "regressed"
    all_better = (
        max(new) < min(base) if spec["better"] == "lower" else min(new) > max(base)
    )
    if max(spread(base), spread(new)) > spec["bound"] and not all_better:
        return "unresolved"
    return "ok"


def main(argv: list[str]) -> int:
    if len(argv) != 2:
        sys.exit(__doc__)
    benchmark = json.loads((ROOT / "BENCHMARK.json").read_text())
    specs = {m["name"]: m for m in benchmark["end_to_end"] + benchmark["per_layer"]}
    regressed = 0
    print(
        f"{'workload':16s} {'metric':30s} {'base median':>14s} {'iqr':>6s} "
        f"{'new median':>14s} {'iqr':>6s} {'new/base':>9s}  verdict"
    )
    for filename in ("BENCH_e2e.json", "BENCH_layers.json"):
        base, new = load(argv[0], filename), load(argv[1], filename)
        if filename == "BENCH_e2e.json" and not (base and new):
            sys.exit(f"error: both directories need a {filename}")
        for key in base:
            if key not in new:
                continue
            workload, metric = key
            if filename == "BENCH_layers.json" and "bound" in specs[metric]:
                continue  # end-to-end metrics are judged on the untraced runs only
            base_median, new_median = statistics.median(base[key]), statistics.median(new[key])
            ratio = f"{new_median / base_median:9.3f}" if base_median else f"{'-':>9s}"
            outcome = verdict(metric, specs.get(metric), base[key], new[key])
            regressed += outcome == "regressed"
            print(
                f"{workload:16s} {metric:30s} {base_median:14.6g} {spread(base[key]):6.1%} "
                f"{new_median:14.6g} {spread(new[key]):6.1%} {ratio}"
                f"  {outcome} (n={len(base[key])}/{len(new[key])}, {specs[metric]['unit']})"
            )
    return 1 if regressed else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
