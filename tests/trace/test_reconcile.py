"""The cross-check pass: trace-summed bytes/seconds must reconcile
*exactly* with the CommunicationLedger and the SimulatedClock, for every
application of the equivalence suite, clean and under injected faults."""

import pytest

from repro import ClusterConfig, DMacSession
from repro.errors import TraceReconciliationError
from repro.faults import ChaosEngine, parse_fault_spec
from repro.programs.registry import WorkloadParams, build_workload
from repro.trace import assert_reconciled, reconcile
from tests.elastic.test_golden_books import FAULT_SEED, FAULTS, PARAMS, TIMELINE

from .conftest import seven_apps


def _checks(report):
    return {check["name"]: check for check in report["checks"]}


@pytest.mark.parametrize(
    "app,program,inputs", seven_apps(),
    ids=lambda value: value if isinstance(value, str) else "",
)
def test_every_app_reconciles_exactly(app, program, inputs, traced_session):
    result = traced_session.run(program, inputs)
    tracer = result.tracing
    report = assert_reconciled(tracer)

    checks = _checks(report)
    # Bytes: integer equality against the ledger, per kind/link/scope.
    assert checks["bytes.total"]["expected"] == checks["bytes.total"]["actual"]
    assert checks["bytes.total"]["actual"] == result.comm_bytes
    assert checks["bytes.by_link"]["ok"] and checks["bytes.by_scope"]["ok"]
    # Stage attribution: no transfer recorded under a scope that disagrees
    # with the recording thread's stage context.
    assert checks["bytes.stage_attribution"]["actual"] == []
    # Seconds: float *equality* (same components, same addition order as
    # the scheduler's critical-path sum), not a tolerance.
    network, compute, overhead = checks["seconds.critical_path"]["actual"]
    assert (network, compute, overhead) == checks["seconds.critical_path"]["expected"]
    assert network + compute + overhead == result.simulated_seconds
    assert checks["seconds.clock_delta"]["ok"]


@pytest.mark.parametrize(
    "app,program,inputs", seven_apps(),
    ids=lambda value: value if isinstance(value, str) else "",
)
def test_tracing_changes_no_result(app, program, inputs):
    """A ``trace=True`` session observes the run; it never perturbs it."""
    config = ClusterConfig(num_workers=4, threads_per_worker=2, block_size=8)
    results = []
    for trace in (False, True):
        with DMacSession(config, trace=trace) as session:
            results.append(session.run(program, inputs))
    plain, traced = results
    assert plain.tracing is None and traced.tracing is not None
    assert traced.comm_bytes == plain.comm_bytes
    assert traced.simulated_seconds.hex() == plain.simulated_seconds.hex()
    assert traced.num_stages == plain.num_stages
    assert traced.matrices.keys() == plain.matrices.keys()
    for name, matrix in plain.matrices.items():
        assert traced.matrices[name].tobytes() == matrix.tobytes(), name
    assert {k: v.hex() for k, v in traced.scalars.items()} == {
        k: v.hex() for k, v in plain.scalars.items()
    }


def test_reconciles_under_injected_faults(traced_session):
    __, program, inputs = seven_apps()[1]  # pagerank
    engine = ChaosEngine(11, "crash:p=0.3;flaky:p=0.2;straggler:p=0.3,factor=4")
    result = traced_session.run(program, inputs, chaos=engine)
    tracer = result.tracing
    assert result.recovery["injected"], "seed 11 must actually fire faults"
    report = assert_reconciled(tracer)
    assert _checks(report)["bytes.stage_attribution"]["actual"] == []
    assert tracer.events("fault")


def test_reconciles_with_concurrent_stages_and_optimizer():
    app, program, inputs = seven_apps()[0]  # gnmf: widest stage graph
    session = DMacSession(
        ClusterConfig(num_workers=4, threads_per_worker=2, block_size=8),
        optimize=True,
        trace=True,
    )
    assert_reconciled(session.run(program, inputs).tracing)


@pytest.mark.parametrize("faults", [None, FAULTS], ids=["clean", "faults"])
@pytest.mark.parametrize("app", ["gnmf", "pagerank"])
def test_reconciles_under_a_membership_timeline(app, faults):
    """A join ships live blocks to the joiners from inside a stage: the
    rebalance records must carry that stage's ledger scope (they carried
    none, so ``--elastic`` x ``--trace`` failed ``bytes.stage_attribution``
    on every app)."""
    load = build_workload(app, WorkloadParams(**PARAMS))
    session = DMacSession(
        ClusterConfig(num_workers=4, threads_per_worker=2, elastic=TIMELINE), trace=True
    )
    chaos = ChaosEngine(FAULT_SEED, parse_fault_spec(faults)) if faults else None
    result = session.run(load.program, load.inputs, chaos=chaos)
    tracer = result.tracing
    rebalanced = [e for e in tracer.events("transfer") if e.name == "rebalance"]
    assert rebalanced and result.elastic["rebalance_bytes"] > 0
    assert all(e.attrs["scope"] == f"stage-{e.stage[1]}" for e in rebalanced)
    report = assert_reconciled(tracer)
    assert _checks(report)["bytes.stage_attribution"]["actual"] == []
    assert _checks(report)["bytes.total"]["actual"] == result.comm_bytes


def test_tampered_trace_fails_reconciliation(traced_session):
    __, program, inputs = seven_apps()[2]  # linreg: smallest
    tracer = traced_session.run(program, inputs).tracing
    # Forge one transfer event the ledger never saw.
    tracer.event("transfer", "shuffle", stage=(0, 1),
                 nbytes=1, link=(0, 1), scope="stage-1/forged")
    report = reconcile(tracer)
    assert not report["ok"]
    failed = {c["name"] for c in report["checks"] if not c["ok"]}
    assert "bytes.total" in failed
    with pytest.raises(TraceReconciliationError, match="bytes.total"):
        assert_reconciled(tracer)


def test_misattributed_scope_is_caught(traced_session):
    __, program, inputs = seven_apps()[2]
    tracer = traced_session.run(program, inputs).tracing
    # A record whose ledger scope says stage 2 but whose recording context
    # said stage 1 -- the shape of the old threading.local bug.
    record = tracer.meta["ledger_records"][0]
    tracer.meta["ledger_records"].append(
        type(record)("shuffle", 8, "stage-2/forged", (0, 1))
    )
    tracer.event("transfer", "shuffle", stage=(0, 1),
                 nbytes=8, link=(0, 1), scope="stage-2/forged")
    report = reconcile(tracer)
    failed = {c["name"] for c in report["checks"] if not c["ok"]}
    assert "bytes.stage_attribution" in failed
