"""The kernels' backend is a seam: ``PlanExecutor(context, backend=...)``
takes any object with the backend's kernel methods.  A wrapper that
delegates every attribute sees each physical call of a run and changes
none of its books, also under a membership timeline, where the context
(not the backend) applies joins and leaves."""

from __future__ import annotations

import collections

import numpy as np
import pytest

from repro.config import ClusterConfig
from repro.programs.pagerank import build_pagerank_program
from repro.programs.registry import WorkloadParams, build_workload
from repro.runtime.executor import PlanExecutor
from repro.session import DMacSession

TIMELINE = "join@2;leave@4"


class Recording:
    """Delegates every attribute to ``inner`` and counts the calls."""

    def __init__(self, inner) -> None:
        self._inner = inner
        self.calls: collections.Counter[str] = collections.Counter()

    def __getattr__(self, name: str):
        attr = getattr(self._inner, name)
        if not callable(attr):
            return attr

        def call(*args, **kwargs):
            self.calls[name] += 1
            return attr(*args, **kwargs)

        return call


def _gnmf():
    workload = build_workload("gnmf", WorkloadParams(scale=1e-3, iterations=2, factors=4))
    config = ClusterConfig(num_workers=4, threads_per_worker=2)
    return workload.program, workload.inputs, config, True


def _pagerank_normalized():
    """The registry's PageRank inputs, with the program row-normalising
    the link itself: the one registry program family with a row aggregate."""
    link = build_workload("pagerank", WorkloadParams(scale=1e-3, iterations=2)).inputs["link"]
    program = build_pagerank_program(
        link.shape[0], np.count_nonzero(link) / np.prod(link.shape), iterations=2, normalize=True
    )
    config = ClusterConfig(num_workers=4, threads_per_worker=2, elastic=TIMELINE)
    return program, {"link": link}, config, False


def _svd():
    workload = build_workload("svd", WorkloadParams(scale=1e-3, rank=3))
    config = ClusterConfig(num_workers=4, threads_per_worker=2, elastic=TIMELINE)
    return workload.program, workload.inputs, config, False


CASES = {
    "gnmf-optimized": _gnmf,
    "pagerank-normalize-elastic": _pagerank_normalized,
    "svd-elastic": _svd,
}


def _run(case, wrap: bool):
    program, inputs, config, optimize = case()
    with DMacSession(config, optimize=optimize) as session:
        (plan,) = session.plans(program)
        backend = Recording(session.context.make_backend()) if wrap else None
        executor = PlanExecutor(session.context, config.block_size, backend=backend)
        return executor.execute(plan, inputs), backend


@pytest.fixture(scope="module")
def runs():
    return {
        name: (_run(case, wrap=False)[0], *_run(case, wrap=True))
        for name, case in CASES.items()
    }


def test_the_wrapper_sees_every_kind_of_kernel_call(runs):
    seen = collections.Counter()
    for __, __, recording in runs.values():
        seen.update(recording.calls)
    for name in ("materialise_source", "extended", "matmul", "row_agg", "aggregate"):
        assert seen[name] > 0, name
    assert seen["fused_cellwise"] + seen["cellwise"] > 0
    assert runs["gnmf-optimized"][2].calls["fused_cellwise"] > 0


@pytest.mark.parametrize("name", CASES)
def test_a_wrapped_run_books_what_an_unwrapped_run_books(runs, name):
    plain, wrapped, __ = runs[name]
    assert wrapped.comm_bytes == plain.comm_bytes
    assert wrapped.simulated_seconds.hex() == plain.simulated_seconds.hex()
    assert wrapped.elastic == plain.elastic
    if name != "gnmf-optimized":
        assert plain.elastic["events"] and plain.elastic["rebalance_bytes"] > 0
    assert sorted(wrapped.matrices) == sorted(plain.matrices)
    for output, array in plain.matrices.items():
        assert wrapped.matrices[output].tobytes() == array.tobytes(), output
    assert {k: v.hex() for k, v in wrapped.scalars.items()} == {
        k: v.hex() for k, v in plain.scalars.items()
    }
