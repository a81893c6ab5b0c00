"""Golden runs: one run path reproduces the two it replaced, exactly.

``golden_runs.json`` was captured on the commit *before* ``DMacSession.run``
became a fold over plan executions (PR 15's parent), where a straight-line
program went through ``PlanExecutor.execute`` directly and a ``while`` loop
through a second driver with its own result class.  It pins every
deterministic book of every registry app on both sides of that fork -- no
timeline, a join/leave timeline, and the same timeline under seeded faults
-- so "a straight-line program is the one-execution case" is checked
against what the separate paths actually produced, not against itself.

The one deliberate difference: ``recovery.injected`` was captured as the
number of ``inject`` events, which is what the counter means; the parent
summed a cumulative engine counter over segments and over-reported it for
a program with a loop.

Never regenerate the file to make a change pass.  Array digests are
BLAS-build dependent and deliberately not pinned: outputs are checked
against the single-machine numpy baseline (the eigen-residual for the
loop program, which the local interpreter cannot run) by tolerance.
"""

import json
import pathlib

import numpy as np
import pytest

from repro import ClusterConfig, DMacSession
from repro.baselines.rlocal import run_local
from repro.faults import ChaosEngine, parse_fault_spec
from repro.frontend.staged import StagedProgram
from repro.programs.registry import ALL_APPS, WorkloadParams, build_workload
from tests.elastic.test_golden_books import (
    CASES,
    FAULT_SEED,
    RECOVERY_COUNTERS,
    summary_books,
)

GOLDEN = pathlib.Path(__file__).with_name("golden_runs.json")

PARAMS = {"scale": 2e-3, "iterations": 3, "rows": 300, "features": 30, "eps": 1e-4}


def books(app: str, case: str):
    """(deterministic books, run result, workload) of one app and case."""
    timeline, faults = CASES[case]
    load = build_workload(app, WorkloadParams(**PARAMS))
    # Serial host execution: per-worker peaks are only deterministic
    # without host concurrency.
    session = DMacSession(
        ClusterConfig(
            num_workers=4,
            threads_per_worker=1,
            max_concurrent_stages=1,
            elastic=timeline,
        )
    )
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
        record["peak_memory_by_worker"] = session.context.peak_memory_by_worker()
    if isinstance(load.program, StagedProgram):
        record["num_segments"] = result.num_segments
        record["segments"] = [
            [
                segment.label,
                segment.result.comm_bytes,
                segment.result.num_stages,
                segment.continued,
            ]
            for segment in result.segments
        ]
    return record, result, load


def inject_events(result) -> int:
    return sum(
        1 for event in (result.recovery or {}).get("events", ())
        if event["event"] == "inject"
    )


@pytest.fixture(scope="module")
def golden() -> dict:
    return json.loads(GOLDEN.read_text())


def test_every_case_has_a_golden_entry(golden):
    assert sorted(golden) == sorted(
        f"{app}/{case}" for app in ALL_APPS for case in CASES
    )


@pytest.mark.parametrize("case", CASES)
@pytest.mark.parametrize("app", ALL_APPS)
def test_one_run_path_reproduces_the_parent_books(golden, app, case):
    record, result, load = books(app, case)
    assert record == golden[f"{app}/{case}"]
    if result.recovery:
        assert result.recovery["injected"] == inject_events(result)
    if isinstance(load.program, StagedProgram):
        (matrix,) = load.inputs.values()
        vector, value = result.matrices["x"], result.scalars["lam"]
        residual = float(np.linalg.norm(matrix @ vector - value * vector))
        assert residual <= 10 * load.program.condition.rhs
        return
    reference = run_local(load.program, load.inputs)
    assert set(result.matrices) == set(reference.matrices)
    for name, array in reference.matrices.items():
        np.testing.assert_allclose(result.matrices[name], array, atol=1e-8)
