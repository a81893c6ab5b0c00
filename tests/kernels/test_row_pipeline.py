"""The row pipeline (``LocalEngine.matmul_chain_grids``): a row-local
product chain run block row by block row gives every result block, flop
and task that consecutive ``matmul_grids`` calls give, byte for byte, and
holds an intermediate one block row at a time."""

import pytest

from repro import ClusterConfig, DMacSession
from repro.blocks import split
from repro.core.plan import ProductChainStep
from repro.core.strategies import choose_local_matmul
from repro.localexec.engine import LocalEngine
from repro.programs.registry import WorkloadParams, build_workload
from repro.runtime.metering import StageMeter, metered
from tests.conftest import random_sparse
from tests.localexec.test_engine import LoggingTracker

#: name -> (left shape, right widths, block size, left density, Strassen
#: crossover or None).  Every right operand is dense, as a broadcast
#: factor is.
CASES = {
    # Full grids of blocks no wider than 64: each grid product is batched.
    "batched": ((128, 64), (96, 32), 32, 1.0, None),
    # Ragged edge blocks on every axis, two and three inner blocks.
    "ragged": ((70, 20), (45, 9), 16, 1.0, None),
    "sparse-left": ((90, 40), (30, 12), 16, 0.05, None),
    "three-links": ((66, 24), (40, 18, 7), 16, 1.0, None),
    "strassen": ((160, 80), (160, 80), 80, 1.0, 32),
}


def grids(rng, case):
    (rows, cols), widths, block, density, __ = CASES[case]
    left = random_sparse(rng, rows, cols, density) if density < 1 else rng.random((rows, cols))
    a_grid = split(left, block, storage="sparse" if density < 1 else "dense")
    b_grids, inner = [], cols
    for width in widths:
        b_grids.append(split(rng.standard_normal((inner, width)), block, storage="dense"))
        inner = width
    return a_grid, b_grids


def engine(case, inplace, **kwargs):
    crossover = CASES[case][4]
    strassen = dict(strassen=True, strassen_min_size=crossover) if crossover else {}
    return LocalEngine(threads=2, inplace=inplace, **strassen, **kwargs)


def link_flops(meter, links):
    return [
        [(dense, sparse) for __, dense, sparse in meter.take_step_flops(link)]
        for link in range(links)
    ]


@pytest.mark.parametrize("inplace", [True, False], ids=["inplace", "buffer"])
@pytest.mark.parametrize("case", CASES)
def test_the_chain_equals_consecutive_products(rng, case, inplace):
    a_grid, b_grids = grids(rng, case)
    reference, pipeline = engine(case, inplace), engine(case, inplace)
    expected, meter = a_grid, StageMeter()
    per_link = []
    with metered(meter):
        for b_grid in b_grids:
            expected = reference.matmul_grids(expected, b_grid)
            per_link += link_flops(meter, 1)
    with metered(meter):
        result = pipeline.matmul_chain_grids(a_grid, b_grids)
    assert result.keys() == expected.keys()
    for key, block in expected.items():
        assert result[key].data.tobytes() == block.data.tobytes(), key
    assert link_flops(meter, len(b_grids)) == per_link
    assert (pipeline.stats.flops, pipeline.stats.tasks) == (
        reference.stats.flops,
        reference.stats.tasks,
    )
    if case == "batched" and inplace:
        assert reference.stats.batched_pairs > 0
    if case == "strassen":
        assert choose_local_matmul(80, 80, 80, strassen=True, crossover=32).name == "strassen"


@pytest.mark.parametrize("inplace", [True, False], ids=["inplace", "buffer"])
def test_an_intermediate_lives_inside_its_row(rng, inplace):
    """The tracker log is, row after row, the first link's product of the
    row, the second link's product of that, then the release of the
    row's intermediate -- before the next row allocates anything."""
    a_grid, b_grids = grids(rng, "ragged")
    pipeline = LocalEngine(threads=1, inplace=inplace, batched_matmul=False)
    pipeline.tracker = LoggingTracker()
    result = pipeline.matmul_chain_grids(a_grid, b_grids)

    reference = LocalEngine(threads=1, inplace=inplace, batched_matmul=False)
    reference.tracker = LoggingTracker()
    rows = sorted({i for i, __ in a_grid})
    for i in rows:
        row = {key: block for key, block in a_grid.items() if key[0] == i}
        intermediate = reference.matmul_grids(row, b_grids[0])
        reference.matmul_grids(intermediate, b_grids[1])
        reference.release_grid(intermediate)
    assert pipeline.tracker.log == reference.tracker.log
    assert pipeline.tracker.current_bytes == sum(b.model_nbytes for b in result.values())


@pytest.mark.parametrize("threads", [1, 2, 8])
@pytest.mark.parametrize("inplace", [True, False], ids=["inplace", "buffer"])
def test_the_serial_bound_holds_on_optimized_gnmf(threads, inplace):
    """The tracker never exceeds the serial bound on optimized GNMF, which
    at 10 factors multiplies ``W (H H^T)`` with ``H H^T`` a ``bmm`` -- and
    whose load ``V`` holds a few non-zeros more on one worker than the
    uniform share (``MemoryPrediction.bound_as_cut``)."""
    load = build_workload("gnmf", WorkloadParams(scale=3e-3, factors=10, iterations=2))
    config = ClusterConfig(
        num_workers=4,
        threads_per_worker=threads,
        inplace=inplace,
        max_concurrent_stages=1,
    )
    result = DMacSession(config, optimize=True).run(load.program, load.inputs)
    assert result.peak_memory_bytes <= result.predicted_peak_memory_bytes


@pytest.mark.parametrize("threads", [1, 2, 8])
@pytest.mark.parametrize("inplace", [True, False], ids=["inplace", "buffer"])
def test_the_serial_bound_holds_on_gnmf_chains(threads, inplace):
    """``repro.verify.memory`` prices a chain as its operands, its result,
    one block row per lane of each intermediate and the partials of one
    block row per lane; the tracker never exceeds it.  With 32 factors the
    optimizer keeps GNMF's ``(W H) H^T`` order (``W (H H^T)`` would ship
    more), so each iteration runs one chain."""
    load = build_workload("gnmf", WorkloadParams(scale=3e-3, factors=32, iterations=2))
    config = ClusterConfig(
        num_workers=4,
        threads_per_worker=threads,
        inplace=inplace,
        max_concurrent_stages=1,
    )
    session = DMacSession(config, optimize=True)
    (plan,) = session.plans(load.program)
    assert sum(isinstance(step, ProductChainStep) for step in plan.steps) == 2
    result = session.run(load.program, load.inputs, plan=plan)
    assert result.peak_memory_bytes <= result.predicted_peak_memory_bytes
