"""Golden books: the one cluster reproduces the two it replaced, exactly.

``golden_books.json`` was captured on the commit *before* the static and
elastic contexts/backends were folded into one (PR 14's parent), where a
run without a timeline used ``ClusterContext``/``SimulatedBackend`` and a
run with one used the elastic subclasses.  It pins every deterministic
book of the seven paper apps on both sides of that fork -- no timeline, a
join/leave timeline, and the same timeline under seeded faults -- so "a
static cluster is the empty membership timeline" is checked against what
the separate static path actually produced, not against itself.  The
no-timeline entries carry the membership summary the parent's elastic
path reported for an empty timeline (its other books were asserted equal
to the static path's at capture time).

Never regenerate the file to make a change pass.  Array digests are
BLAS-build dependent and deliberately not pinned: outputs are checked
against the single-machine numpy baseline by tolerance instead.
"""

import json
import pathlib

import numpy as np
import pytest

from repro import ClusterConfig, DMacSession
from repro.baselines.rlocal import run_local
from repro.faults import ChaosEngine, parse_fault_spec
from repro.programs.registry import PAPER_APPS, WorkloadParams, build_workload

GOLDEN = pathlib.Path(__file__).with_name("golden_books.json")

PARAMS = {"scale": 2e-3, "iterations": 3, "rows": 400, "features": 30}
TIMELINE = "join@2:count=2; leave@5:worker=0"
FAULTS = "crash:stage=3; flaky:p=0.4,times=1; straggler:stage=2,factor=3"
FAULT_SEED = 11

#: case -> (membership timeline, fault spec)
CASES = {
    "static": (None, None),
    "churn": (TIMELINE, None),
    "churn-faults": (TIMELINE, FAULTS),
}

RECOVERY_COUNTERS = (
    "injected",
    "retries",
    "speculations",
    "blocks_lost",
    "blocks_recovered",
    "steps_recomputed",
    "bytes_recomputed",
    "checkpoints",
    "checkpoint_bytes",
)


def cluster_config(elastic, **overrides) -> ClusterConfig:
    settings = dict(num_workers=4, threads_per_worker=2, elastic=elastic)
    settings.update(overrides)
    return ClusterConfig(**settings)


def summary_books(summary: dict) -> dict:
    """The membership summary with its floats as exact hex strings."""
    return {
        key: value.hex() if isinstance(value, float) else value
        for key, value in summary.items()
    }


def books(app: str, case: str):
    """(deterministic books, ExecutionResult, workload) of one app and case."""
    timeline, faults = CASES[case]
    load = build_workload(app, WorkloadParams(**PARAMS))
    session = DMacSession(cluster_config(timeline))
    chaos = None
    if faults is not None:
        chaos = ChaosEngine(FAULT_SEED, parse_fault_spec(faults))
    result = session.run(load.program, load.inputs, chaos=chaos)
    ledger = session.context.ledger
    record = {
        "comm_bytes": result.comm_bytes,
        "bytes_by_kind": ledger.bytes_by_kind(),
        "bytes_by_link": {
            f"{src}->{dst}": nbytes
            for (src, dst), nbytes in sorted(ledger.bytes_by_link().items())
        },
        "simulated_seconds": result.simulated_seconds.hex(),
        "num_stages": result.num_stages,
        "elastic": summary_books(result.elastic),
        "recovery": (
            {key: result.recovery[key] for key in RECOVERY_COUNTERS}
            if result.recovery
            else None
        ),
    }
    if timeline is None:
        # Per-worker peaks are only deterministic without host concurrency.
        serial = DMacSession(
            cluster_config(None, threads_per_worker=1, max_concurrent_stages=1)
        )
        serial.run(load.program, load.inputs)
        record["peak_memory_by_worker"] = serial.context.peak_memory_by_worker()
    return record, result, load


@pytest.fixture(scope="module")
def golden() -> dict:
    return json.loads(GOLDEN.read_text())


def test_every_case_has_a_golden_entry(golden):
    assert sorted(golden) == sorted(
        f"{app}/{case}" for app in PAPER_APPS for case in CASES
    )


@pytest.mark.parametrize("case", CASES)
@pytest.mark.parametrize("app", PAPER_APPS)
def test_unified_cluster_reproduces_the_parent_books(golden, app, case):
    record, result, load = books(app, case)
    assert record == golden[f"{app}/{case}"]
    reference = run_local(load.program, load.inputs)
    assert set(result.matrices) == set(reference.matrices)
    for name, array in reference.matrices.items():
        np.testing.assert_allclose(result.matrices[name], array, atol=1e-8)
