"""Recovery-overhead benchmark — clean vs faulted runs (no paper figure).

DMac-on-Spark inherits fault tolerance from RDD lineage; the paper never
prices it.  This benchmark does, on the simulated cluster: GNMF and
PageRank each run clean, then under an injected mid-run block loss (with
and without periodic checkpointing), and the extra simulated time and
recomputed bytes are reported.  Two properties are asserted, not just
reported:

* **recovered results match** -- every output of a faulted run equals the
  clean run's to 1e-9;
* **lineage beats restart** -- recomputing the lost block's upstream cone
  moves strictly fewer bytes than the clean run moved in total (the
  full-restart price).
"""

from __future__ import annotations

import numpy as np
from harness import bench_clock, density, fmt_bytes, fmt_secs, report

from repro import ClusterConfig, DMacSession
from repro.config import RecoveryConfig
from repro.datasets import graph_edges, netflix_like, row_normalize
from repro.faults import ChaosEngine
from repro.programs import build_gnmf_program, build_pagerank_program

SEED = 7


def _workloads():
    gnmf_data = netflix_like(scale=1e-3, seed=7)
    gnmf = build_gnmf_program(
        gnmf_data.shape, density(gnmf_data), factors=4, iterations=3
    )
    link = row_normalize(graph_edges("soc-pokec", scale=1e-3, seed=8))
    pagerank = build_pagerank_program(link.shape[0], density(link), iterations=4)
    return [
        ("GNMF", gnmf, {"V": gnmf_data}, "lostblock:instance=H,iteration=3"),
        ("PageRank", pagerank, {"link": link}, "lostblock:instance=rank,iteration=3"),
    ]


def _run(program, inputs, faults=None, checkpoint_every=0):
    config = ClusterConfig(
        num_workers=4,
        threads_per_worker=1,
        block_size=16,
        clock=bench_clock(),
        recovery=RecoveryConfig(checkpoint_every=checkpoint_every),
    )
    chaos = ChaosEngine(SEED, faults) if faults else None
    return DMacSession(config).run(program, inputs, chaos=chaos)


def test_recovery_overhead(benchmark):
    loads = _workloads()
    benchmark.pedantic(
        _run, args=(loads[1][1], loads[1][2]), rounds=1, iterations=1
    )
    rows = []
    for app, program, inputs, faults in loads:
        clean = _run(program, inputs)
        faulted = _run(program, inputs, faults=faults)
        checked = _run(program, inputs, faults=faults, checkpoint_every=2)
        for label, run in (("lineage", faulted), ("ckpt k=2", checked)):
            recovery = run.recovery
            assert recovery["blocks_recovered"] == recovery["blocks_lost"] == 1, (
                f"{app} [{label}]: the injected block loss must be recovered"
            )
            assert recovery["bytes_recomputed"] < clean.comm_bytes, (
                f"{app} [{label}]: lineage recovery must beat a full restart"
            )
            for name, array in clean.matrices.items():
                np.testing.assert_allclose(
                    run.matrices[name], array, atol=1e-9,
                    err_msg=f"{app} [{label}]: output {name} diverged",
                )
            rows.append(
                [
                    app,
                    label,
                    fmt_secs(clean.simulated_seconds),
                    fmt_secs(run.simulated_seconds - clean.simulated_seconds),
                    str(recovery["steps_recomputed"]),
                    fmt_bytes(recovery["bytes_recomputed"]),
                    fmt_bytes(clean.comm_bytes),
                ]
            )
    report(
        "bench_recovery_overhead",
        "Recovery overhead: injected block loss, lineage vs checkpoints",
        ["app", "mode", "clean time", "+overhead", "steps redone",
         "bytes recomputed", "restart price"],
        rows,
        notes="One mid-run block loss per app (seeded, deterministic).  "
        "'bytes recomputed' is the recovery cone's traffic, asserted "
        "strictly below the clean run's total ('restart price'); "
        "checkpointing every 2 iterations shrinks the cone further but "
        "pays simulated disk I/O in '+overhead'.  All faulted outputs are "
        "asserted equal to the clean run's.",
    )
