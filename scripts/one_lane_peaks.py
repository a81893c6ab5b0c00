#!/usr/bin/env python3
"""One lane books one peak, at the end-to-end benchmark's sizes.

    taskset -c 0 python scripts/one_lane_peaks.py

On a one-CPU host the lane pool is one thread, so every block task and
every stage node runs inline in index order and stage concurrency is a
bound of the model only.  For the three batch workloads of
``benchmarks/e2e/workloads.py`` (their params and session flags, seed 0)
each app runs ten times on 4 workers x 2 threads with up to four stages in
flight, then once one stage at a time; all eleven runs must book one
``peak_memory_bytes``.  ``tests/runtime/test_metering.py`` gates the same
at registry defaults; this is the size the benchmark measures.  Exit 1 on
a second peak, or when more than one CPU is visible.
"""

import os
import pathlib
import sys

ROOT = pathlib.Path(__file__).resolve().parent.parent
sys.path[:0] = [str(ROOT / "src"), str(ROOT / "benchmarks" / "e2e")]

from workloads import WORKLOADS  # noqa: E402

from repro import ClusterConfig, DMacSession  # noqa: E402

APPS = ("gnmf_kernels", "pagerank_sparse", "svd_optimize")
RUNS = 10


def main() -> int:
    if len(os.sched_getaffinity(0)) != 1:
        print("run under one CPU: taskset -c 0 python scripts/one_lane_peaks.py")
        return 1
    failed = False
    for name in APPS:
        workload = WORKLOADS[name]
        built = workload.build(seed=0, smoke=False)

        def peak(stages: int) -> int:
            config = ClusterConfig(
                num_workers=4, threads_per_worker=2, max_concurrent_stages=stages
            )
            with DMacSession(config, **workload.flags) as session:
                return session.run(built.program, built.inputs).peak_memory_bytes

        peaks = {peak(4) for _ in range(RUNS)}
        serial = peak(1)
        same = peaks == {serial}
        failed |= not same
        print(f"{'ok' if same else 'DIFFERENT'} {workload.app}: {RUNS} runs at 4 stages "
              f"booked {sorted(peaks)}, the serial run {serial} B")
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
