"""Replicated products: a moved product of two replicas becomes one
``bmm`` -- no bytes move, the product is bit for bit the one RMM1 made, and
under membership churn and faults its books still reconcile and a lost
replica is rebuilt through its lineage."""

import pytest

from repro import ClusterConfig, DMacSession
from repro.core.plan import ExtendedStep, MatMulStep
from repro.faults import ChaosEngine, parse_fault_spec
from repro.faults.lineage import LineageTracker
from repro.planopt import DEFAULT_PASSES, ReplicatePass, optimize_plan
from repro.programs.registry import ALL_APPS, WorkloadParams, build_workload
from repro.trace import assert_reconciled
from tests.elastic.test_golden_books import FAULT_SEED, FAULTS, TIMELINE

#: GNMF small enough for the elastic cases, big enough that ``W (H H^T)``
#: is kept: ``_t8`` and ``_t18`` are the two ``H H^T`` replicas.
GNMF = WorkloadParams(scale=3e-3, factors=10, iterations=2)


def bmm_steps(plan):
    return [s for s in plan.steps if isinstance(s, MatMulStep) and s.strategy == "bmm"]


def test_gnmf_multiplies_h_ht_from_its_replicas():
    load = build_workload("gnmf", GNMF)
    (plan,) = DMacSession(ClusterConfig(num_workers=4), optimize=True).plans(load.program)
    assert [str(s) for s in bmm_steps(plan)] == [
        "_t8(b) <- bmm(H@2(b), H@2^T(b))",
        "_t18(b) <- bmm(H@3(b), H@3^T(b))",
    ]
    # The replicas are not moved any more.
    assert not any(
        isinstance(s, ExtendedStep) and s.source.name in ("_t8", "_t18")
        for s in plan.steps
    )


def test_it_fires_where_a_product_of_replicas_is_moved():
    """Registry sizes: GNMF (after association) and CF, whose ``R R^T``
    was partitioned -- that partition becomes a free extract."""
    fired = {}
    for app in ALL_APPS:
        session = DMacSession(ClusterConfig(num_workers=4), optimize=True)
        plans = session.plans(build_workload(app).program)
        fired[app] = sum(len(bmm_steps(plan)) for plan in plans)
    assert {app for app, count in fired.items() if count} == {"cf", "gnmf"}
    (cf,) = DMacSession(ClusterConfig(num_workers=4), optimize=True).plans(
        build_workload("cf").program
    )
    assert "_t1(r) <- extract(_t1(b))" in map(str, cf.steps)


@pytest.mark.parametrize("app", ["cf", "gnmf"])
def test_a_replicated_product_is_the_moved_product_bit_for_bit(app):
    """The same program planned with and without the rewrite: outputs equal
    to the bit, and the rewrite's plan ships less."""
    load = build_workload(app, GNMF if app == "gnmf" else WorkloadParams())
    config = ClusterConfig(num_workers=4)
    (replicated,) = DMacSession(config, optimize=True).plans(load.program)
    passes = tuple(p for p in DEFAULT_PASSES if not isinstance(p, ReplicatePass))
    moved = optimize_plan(
        DMacSession(config).plan(replicated.program),
        num_workers=4,
        passes=passes,
    )
    assert bmm_steps(replicated) and not bmm_steps(moved)
    runs = [
        DMacSession(config).run(replicated.program, load.inputs, plan=plan)
        for plan in (replicated, moved)
    ]
    for name, array in runs[0].matrices.items():
        assert array.tobytes() == runs[1].matrices[name].tobytes()
    assert runs[0].comm_bytes < runs[1].comm_bytes


def run_gnmf(faults=None, trace=False):
    load = build_workload("gnmf", GNMF)
    session = DMacSession(
        ClusterConfig(num_workers=4, threads_per_worker=2, elastic=TIMELINE),
        optimize=True,
        trace=trace,
    )
    chaos = ChaosEngine(FAULT_SEED, parse_fault_spec(faults)) if faults else None
    return session.run(load.program, load.inputs, chaos=chaos)


@pytest.mark.parametrize("faults", [None, FAULTS], ids=["churn", "churn-faults"])
def test_bmm_books_reconcile_under_churn(faults):
    """trace == ledger == clock with ``bmm`` steps in the plan."""
    result = run_gnmf(faults, trace=True)
    tracer = result.tracing
    assert tracer.spans and assert_reconciled(tracer)["ok"]
    assert result.elastic["events"]


@pytest.mark.parametrize("faults", [None, FAULTS], ids=["churn", "churn-faults"])
def test_a_lost_replica_is_rebuilt_through_its_bmm(monkeypatch, faults):
    """Losing ``_t8`` when it is published sends its first reader to
    ``ResourceManager._rebuild``, whose cone re-runs the ``bmm``; the run
    ends with the outputs of the run that lost nothing."""
    cones = []
    cone = LineageTracker.recovery_cone

    def recorded(self, instance, available):
        steps = cone(self, instance, available)
        cones.append([str(self.plan.steps[index]) for index in steps])
        return steps

    monkeypatch.setattr(LineageTracker, "recovery_cone", recorded)
    clean = run_gnmf(faults)
    spec = "lostblock:instance=_t8" + (f";{faults}" if faults else "")
    lost = run_gnmf(spec)
    assert lost.recovery["blocks_recovered"] >= 1
    assert any("_t8(b) <- bmm(H@2(b), H@2^T(b))" in steps for steps in cones)
    for name, array in clean.matrices.items():
        assert array.tobytes() == lost.matrices[name].tobytes()
