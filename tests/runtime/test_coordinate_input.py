"""Run identity: the form an input arrives in moves host time, never a book.

PageRank's link matrix bound as a :class:`~repro.blocks.CoordinateMatrix`
and as the dense array it stands for must produce the same output bytes and
the same deterministic books along every configuration axis, recovery and
rebalancing included (both re-materialise the source from the run's
inputs), and under the service as well as directly.
"""

import pytest

from repro import ClusterConfig, DMacSession, ProgramBuilder
from repro.baselines.rlocal import run_local
from repro.blocks import CoordinateMatrix
from repro.datasets import graph_edges, row_normalize
from repro.errors import ExecutionError
from repro.faults import ChaosEngine, parse_fault_spec
from repro.programs.power_iteration import build_power_iteration_program
from repro.programs.registry import WorkloadParams, build_workload
from repro.serve import JobSpec, MatrixService, ServiceConfig, TenantSpec
from tests.elastic.test_golden_books import FAULT_SEED, FAULTS, TIMELINE

#: (DMacSession flags, ClusterConfig overrides, fault spec) per axis.
AXES = {
    "default": ({}, {}, None),
    "optimize": ({"optimize": True}, {}, None),
    "one-thread": ({}, {"threads_per_worker": 1}, None),
    "serial-stages": ({}, {"max_concurrent_stages": 1}, None),
    "small-blocks": ({}, {"block_size": 37}, None),
    "churn": ({}, {"elastic": TIMELINE}, None),
    "churn-faults": ({}, {"elastic": TIMELINE}, FAULTS),
}


@pytest.fixture(scope="module")
def pagerank():
    """(program, coordinate inputs, dense inputs) of the registry workload."""
    load = build_workload("pagerank", WorkloadParams(scale=1e-3, iterations=3, seed=3))
    (name, link), = load.inputs.items()
    assert isinstance(link, CoordinateMatrix)
    return load.program, {name: link}, {name: link.to_numpy()}


def cluster(**overrides) -> ClusterConfig:
    return ClusterConfig(**{"num_workers": 4, "threads_per_worker": 2, **overrides})


def books(session, result) -> dict:
    return {
        "matrices": {name: array.tobytes() for name, array in result.matrices.items()},
        "scalars": {name: float(value).hex() for name, value in result.scalars.items()},
        "comm_bytes": result.comm_bytes,
        "bytes_by_kind": session.context.ledger.bytes_by_kind(),
        "simulated_seconds": result.simulated_seconds.hex(),
        "num_stages": result.num_stages,
        "recovery": {
            key: value for key, value in (result.recovery or {}).items() if isinstance(value, int)
        },
    }


@pytest.mark.parametrize("axis", AXES)
def test_books_do_not_depend_on_the_input_form(pagerank, axis):
    program, coordinate, dense = pagerank
    flags, overrides, faults = AXES[axis]
    seen = []
    for inputs in (coordinate, dense):
        chaos = ChaosEngine(FAULT_SEED, parse_fault_spec(faults)) if faults else None
        with DMacSession(cluster(**overrides), **flags) as session:
            seen.append(books(session, session.run(program, inputs, chaos=chaos)))
    assert seen[0] == seen[1]
    if faults:
        assert seen[0]["recovery"]["injected"] > 0


def test_the_service_keeps_the_same_books(pagerank):
    program, coordinate, dense = pagerank
    with DMacSession(cluster()) as session:
        direct = session.run(program, coordinate)
    seen = []
    for inputs in (coordinate, dense):
        service = MatrixService(ServiceConfig(tenants=(TenantSpec("ana"),), cluster=cluster()))
        try:
            service.submit(JobSpec(tenant="ana", program=program, inputs=inputs))
            (record,) = service.drain()
            ledger = service.sessions["ana"].context.ledger
            assert record.state == "done", record.error
            seen.append(
                (record.comm_bytes, record.simulated_seconds.hex(), record.num_stages,
                 record.flops, ledger.bytes_by_kind())
            )
        finally:
            service.close()
    assert seen[0] == seen[1]
    assert seen[0][:3] == (
        direct.comm_bytes, direct.simulated_seconds.hex(), direct.num_stages
    )


def test_the_comparators_take_either_form(pagerank):
    """SystemML-S cuts the coordinate form too; R densifies by definition."""
    program, coordinate, dense = pagerank
    seen = []
    for inputs in (coordinate, dense):
        with DMacSession(cluster()) as session:
            seen.append(books(session, session.run_systemml(program, inputs)))
    assert seen[0] == seen[1]
    local = [run_local(program, inputs) for inputs in (coordinate, dense)]
    for name, array in local[1].matrices.items():
        assert local[0].matrices[name].tobytes() == array.tobytes()


def test_a_misshapen_coordinate_input_is_refused():
    pb = ProgramBuilder()
    pb.output(pb.assign("B", pb.load("A", (4, 4), sparsity=0.1) @ pb.random("x", (4, 1))))
    with pytest.raises(ExecutionError, match="declared"):
        DMacSession(cluster()).run(pb.build(), {"A": CoordinateMatrix([0], [0], [1.0], (4, 5))})


def test_a_while_loop_never_densifies_its_invariant_input(monkeypatch):
    """Power iteration re-binds its loop-invariant ``A`` for every segment:
    the binding is passed through as given, not turned into an ndarray."""
    link = row_normalize(graph_edges("soc-pokec", scale=1e-4, seed=2))
    walk = CoordinateMatrix(link.cols, link.rows, link.values, link.shape)  # link.T
    staged = build_power_iteration_program(walk.shape[0], eps=1e-3)
    with DMacSession(cluster(block_size=16)) as session:
        expected = session.run(staged, {"A": walk.to_numpy()})

    calls = []
    monkeypatch.setattr(CoordinateMatrix, "to_numpy", lambda self: calls.append(self))
    with DMacSession(cluster(block_size=16)) as session:
        result = session.run(staged, {"A": walk})

    assert calls == []
    assert result.num_segments == expected.num_segments > 3
    assert result.matrices["x"].tobytes() == expected.matrices["x"].tobytes()
    assert result.scalars["lam"].hex() == expected.scalars["lam"].hex()
    assert result.comm_bytes == expected.comm_bytes
    assert result.simulated_seconds.hex() == expected.simulated_seconds.hex()
