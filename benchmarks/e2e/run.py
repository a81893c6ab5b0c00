#!/usr/bin/env python3
"""Host wall-clock benchmark: four workloads, one command.

    python3 benchmarks/e2e/run.py [--workload NAME]... [--seed N]
        [--seconds S] [--trace 0|1] [--smoke] [--out DIR]

Runs each named workload (default: all four) in a process of its own,
prints every metric by name with its unit, checks every output against
an independent oracle, and ends with one JSON line
``{"correct", "attempted", "failed", "metrics"}`` per workload.
``--trace 0`` (default) measures the end-to-end metrics with tracing
off; ``--trace 1`` alternates untraced and step-wise traced jobs and
reports the per-layer metrics.  Every time is in reference-host seconds:
the wall time scaled by how fast a fixed probe loop ran next to it.
``--out DIR`` appends the run to ``DIR/BENCH_e2e.json`` or
``DIR/BENCH_layers.json`` (and writes the raw spans).  Workloads,
metrics and bounds are fixed in ``BENCHMARK.json`` at the repository
root; README.md explains them.
"""

from __future__ import annotations

import argparse
import json
import os
import pathlib
import platform
import resource
import statistics
import subprocess
import sys
import time
from typing import NamedTuple

from workloads import WORKLOADS

HERE = pathlib.Path(__file__).resolve().parent
ROOT = HERE.parents[1]
#: Pinned before numpy is first imported.  One BLAS thread: the program's
#: own pools are the only parallelism.  No huge-page advice: with it, the
#: cost of a large array's first touch depends on whether the guest has a
#: free 2 MiB page at that moment, which swung set-up by 3x run to run.
ENV_PINS = {
    "OPENBLAS_NUM_THREADS": "1",
    "OMP_NUM_THREADS": "1",
    "MKL_NUM_THREADS": "1",
    "NUMPY_MADVISE_HUGEPAGE": "0",
}
#: Set-up is repeated in the process and the median reported.
SETUP_REPEATS = 5
#: What :func:`probe` takes on a quiet host of the kind the baseline was
#: measured on.  Every reported time is the wall time multiplied by
#: ``PROBE_REFERENCE_S / (the probes measured around it)``: this shared
#: host runs everything ~1.5x slower for seconds to minutes at a time, and
#: raw seconds of identical code spread by 30-60% from run to run.
PROBE_REFERENCE_S = 0.020
PROBE_ITERATIONS = 200_000
#: Jobs are timed in windows of at least this long between two probes.
PROBE_EVERY_S = 0.25
#: Fewest jobs a percentile is taken over, however short ``--seconds``.
MIN_JOBS = 3
#: Traced jobs must attribute this share of their wall time to a layer.
MAX_UNATTRIBUTED_SHARE = 0.05
PAGE = 4096


def probe() -> float:
    """Seconds a fixed pure-Python loop takes right now: the yardstick
    for the host's speed.  It shares no code with :mod:`repro`, so no
    change to the program can move it."""
    started = time.perf_counter()
    table: dict[int, int] = {}
    for i in range(PROBE_ITERATIONS):
        key = i & 1023
        table[key] = table.get(key, 0) + i
    return time.perf_counter() - started


class Job(NamedTuple):
    """One timed job; ``wall`` and ``cycle`` are raw seconds x ``scale``."""

    traced: bool
    #: ``run.job``'s own timing: session construction + run, results in hand.
    wall: float
    #: Start of the job to its return, so teardown, GC and the determinism
    #: check count.
    cycle: float
    #: ``PROBE_REFERENCE_S`` / mean of the probes before and after the window.
    scale: float


def pretouch(mib: int) -> float:
    """Write one byte per page of a ``mib`` MiB buffer, then free it.

    The first touch of fresh guest memory costs ~20 us a page in this
    sandbox (README.md, "Memory pre-touch"); paying it here keeps it out
    of whichever layer would have allocated first.
    """
    started = time.perf_counter()
    size = mib << 20
    buffer = bytearray(size)
    buffer[::PAGE] = b"\x01" * len(range(0, size, PAGE))
    del buffer
    return time.perf_counter() - started


def reset_peak_rss() -> None:
    """Make ``ru_maxrss`` forget the pre-touch buffer (Linux: writing 5
    to clear_refs resets the resident-set high-water mark)."""
    try:
        pathlib.Path("/proc/self/clear_refs").write_text("5")
    except OSError as error:
        print(f"warning: peak_rss_mb includes the pre-touch buffer ({error})", file=sys.stderr)


def environment() -> dict:
    import numpy

    try:
        sha = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True, check=True
        ).stdout.strip()
    except (OSError, subprocess.CalledProcessError):
        sha = None
    blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "nproc": os.cpu_count(),
        "platform": platform.platform(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "env_pins": ENV_PINS,
        "git_sha": sha,
    }


def run_workload(args: argparse.Namespace, name: str, spec: dict) -> int:
    """Measure one workload in this process; returns the exit code."""
    os.environ.update(ENV_PINS)
    # One vCPU for every thread of the program and for the probe, so the
    # probe sees the same neighbours as the job it scales; with two, a
    # job's wall time depends on which of them is being throttled.
    os.sched_setaffinity(0, {max(os.sched_getaffinity(0))})
    workload = WORKLOADS[name]
    pretouch_s = pretouch(workload.pretouch_mb // (10 if args.smoke else 1))
    reset_peak_rss()

    probes = [probe()]

    def scale() -> float:
        """Probe again; the factor for what ran since the last probe."""
        probes.append(probe())
        return 2 * PROBE_REFERENCE_S / (probes[-2] + probes[-1])

    started = time.perf_counter()
    sys.path.insert(0, str(ROOT / "src"))
    import jobs  # imports repro

    import_s = time.perf_counter() - started
    import_s *= scale()
    run = jobs.make_run(workload, args.seed, args.smoke, args.corrupt)
    setups = []
    for _ in range(SETUP_REPEATS):
        started = time.perf_counter()
        run.set_up()
        setup_s = time.perf_counter() - started
        setup_scale = scale()
        setups.append(setup_s * setup_scale)
    started = time.perf_counter()
    run.oracle()
    oracle_s = time.perf_counter() - started

    # The timed section: closed loop, one client, one job in flight, in
    # windows of jobs between two probes.
    done: list[Job] = []
    usage = resource.getrusage(resource.RUSAGE_SELF)
    probes.append(probe())
    loop_started = time.perf_counter()
    while True:
        window = []  # (traced, wall, cycle) in raw seconds
        opened = time.perf_counter()
        while not window or time.perf_counter() - opened < PROBE_EVERY_S:
            traced = bool(args.trace) and (len(done) + len(window)) % 2 == 1
            started = time.perf_counter()
            wall = run.job(traced)
            window.append((traced, wall, time.perf_counter() - started))
        factor = scale()
        for traced, wall, cycle in window:
            done.append(Job(traced, wall * factor, cycle * factor, factor))
        enough = len(done) >= MIN_JOBS * (1 + args.trace)
        if enough and time.perf_counter() - loop_started >= args.seconds:
            break
    spent = resource.getrusage(resource.RUSAGE_SELF)

    untraced = sorted(job.wall for job in done if not job.traced)
    attempted = len(done) + 1  # the oracle pass counts as one
    values = {
        "setup_s": import_s + statistics.median(setups),
        "job_wall_s_p50": statistics.median(untraced),
        "jobs_per_s": len(done) / sum(job.cycle for job in done),
        "peak_rss_mb": spent.ru_maxrss / 1024,
        "job_wall_s_p95": untraced[min(len(untraced) - 1, int(0.95 * len(untraced)))],
        "comm_bytes": run.comm_bytes,
        "sim_s": run.sim_s,
        "host.probe_s_p50": statistics.median(probes),
        "host.probe_s_p90": statistics.quantiles(probes, n=10)[-1],
    }
    if args.trace:
        # A layer this workload does not go through (serve.* on the batch
        # workloads, the engine split on serve_mix) reads 0.
        values = dict.fromkeys((m["name"] for m in spec["per_layer"]), 0.0) | values
        values.update(run.layer_metrics(done, setup_scale))
        values.update(
            {
                "runtime.peak_model_bytes_min": min(run.peaks),
                "runtime.peak_model_bytes_max": max(run.peaks),
                "proc.utime_s": spent.ru_utime - usage.ru_utime,
                "proc.stime_s": spent.ru_stime - usage.ru_stime,
                "proc.minor_faults": spent.ru_minflt - usage.ru_minflt,
                "bench.pretouch_s": pretouch_s,
                "bench.oracle_s": oracle_s,
                "bench.import_s": import_s,
                "bench.setup_first_s": import_s + setups[0],
            }
        )
        if values["trace.job_self_share"] > MAX_UNATTRIBUTED_SHARE:
            run.failures.append("traced spans leave more than 5% of the job unattributed")
    failed = min(attempted, len(run.failures))
    values["failed_share"] = failed / attempted

    units = {m["name"]: m["unit"] for m in spec["end_to_end"] + spec["per_layer"]}
    reported = spec["per_layer"] if args.trace else spec["end_to_end"]
    print(f"== {name}  seed={args.seed}  seconds={args.seconds}  trace={args.trace}"
          f"  jobs={len(done)}  ({workload.why})")
    for metric in units:  # BENCHMARK.json order, whatever order they were measured in
        if metric in values:
            print(f"{metric:34s} {values[metric]:>18.6f} {units[metric]}")
    for failure in run.failures[:10]:
        print(f"FAILED: {failure}")
    result = {"correct": failed == 0, "attempted": attempted, "failed": failed}
    if args.out:
        record = {
            "workload": name,
            "seed": args.seed,
            "seconds": args.seconds,
            "smoke": args.smoke,
            "environment": environment(),
            **result,
            "metrics": {m: {"value": v, "unit": units[m]} for m, v in values.items()},
        }
        write_out(pathlib.Path(args.out), record, run.tracer.spans if args.trace else None)
    result["metrics"] = {
        m["name"]: {"value": values[m["name"]], "unit": m["unit"]} for m in reported
    }
    print(json.dumps(result))
    return 0 if failed == 0 else 1


def write_out(out: pathlib.Path, record: dict, spans: list | None) -> None:
    """Append this run to the directory's result file and refresh its
    per-(workload, metric) summary: median, quartiles, sample count."""
    out.mkdir(parents=True, exist_ok=True)
    path = out / ("BENCH_e2e.json" if spans is None else "BENCH_layers.json")
    runs = json.loads(path.read_text())["runs"] if path.exists() else []
    runs.append(record)
    path.write_text(json.dumps({"summary": summarise(runs), "runs": runs}, indent=1) + "\n")
    if spans is not None:
        (out / f"spans_{record['workload']}.json").write_text(json.dumps(spans) + "\n")


def summarise(runs: list[dict]) -> dict:
    samples: dict[str, dict[str, list[float]]] = {}
    units: dict[str, str] = {}
    for run in runs:
        for metric, cell in run["metrics"].items():
            samples.setdefault(run["workload"], {}).setdefault(metric, []).append(cell["value"])
            units[metric] = cell["unit"]
    summary: dict[str, dict[str, dict]] = {}
    for workload, metrics in samples.items():
        for metric, values in metrics.items():
            q1, median, q3 = (
                statistics.quantiles(values, n=4) if len(values) > 1 else values * 3
            )
            summary.setdefault(workload, {})[metric] = {
                "unit": units[metric], "median": median, "q1": q1, "q3": q3, "n": len(values),
            }
    return summary


def main(argv: list[str] | None = None) -> int:
    if not (ROOT / "src" / "repro").is_dir():
        sys.exit(f"error: {ROOT / 'src' / 'repro'} not found; run from a full checkout")
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", action="append", choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=spec["run_seconds"])
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true", help="~10x smaller, 3 jobs")
    parser.add_argument("--out", help="directory to append BENCH_*.json results to")
    parser.add_argument(
        "--corrupt", action="store_true", help="self-test: perturb results after the first job"
    )
    args = parser.parse_args(argv)
    if args.smoke:
        args.seconds = 0.0
    names = args.workload or [w["name"] for w in spec["workloads"]]
    if len(names) == 1:
        return run_workload(args, names[0], spec)
    # Several workloads: one fresh process each (own RSS, own imports).
    flags = ["--seed", str(args.seed), "--seconds", str(args.seconds), "--trace", str(args.trace)]
    flags += ["--smoke"] * args.smoke + ["--corrupt"] * args.corrupt
    flags += ["--out", args.out] if args.out else []
    codes = [
        subprocess.run([sys.executable, __file__, "--workload", name, *flags]).returncode
        for name in names
    ]
    return max(codes)

if __name__ == "__main__":
    sys.exit(main())
