"""The program registry is the single source of truth for app workloads.

The CLI, the benchmark harness, and the verification test helpers all
read :mod:`repro.programs.registry`; these tests pin the table's shape
(names, order, tiers, staged flags), prove every registered workload
actually builds at small scale, and check the argparse bridge.
"""

from __future__ import annotations

import argparse

import numpy as np
import pytest

from repro.errors import ProgramError
from repro.frontend.staged import StagedProgram, segments_of
from repro.lang.program import LoadOp, MatrixProgram
from repro.programs.registry import (
    ALL_APPS,
    PAPER_APPS,
    SPECS,
    TIER_EXAMPLE,
    TIER_PAPER,
    WorkloadParams,
    build_workload,
    get_spec,
    registered_names,
)

SMALL = WorkloadParams(
    scale=2e-3, seed=3, factors=4, iterations=2, graph="LiveJournal",
    rows=40, features=8, sparsity=0.2, rank=3, eps=1e-2, ridge=1e-2,
)


def test_paper_apps_preserve_cli_order():
    # the historic CLI APPS tuple, now derived from the registry
    assert PAPER_APPS == ("gnmf", "pagerank", "linreg", "logreg", "jacobi",
                         "cf", "svd")


def test_all_apps_is_paper_then_examples():
    assert ALL_APPS[: len(PAPER_APPS)] == PAPER_APPS
    assert set(ALL_APPS) - set(PAPER_APPS) == {"powiter", "ridge"}


def test_names_unique_and_tiers_valid():
    assert len(set(ALL_APPS)) == len(ALL_APPS)
    assert {spec.tier for spec in SPECS} == {TIER_PAPER, TIER_EXAMPLE}


def test_registered_names_filters_by_tier():
    assert registered_names() == ALL_APPS
    assert registered_names(TIER_PAPER) == PAPER_APPS
    assert set(registered_names(TIER_EXAMPLE)) == {"powiter", "ridge"}


def test_get_spec_unknown_name_lists_registered():
    with pytest.raises(ProgramError, match="gnmf"):
        get_spec("nope")


@pytest.mark.parametrize("name", ALL_APPS)
def test_every_workload_builds_at_small_scale(name):
    workload = build_workload(name, SMALL)
    spec = get_spec(name)
    expected = StagedProgram if spec.staged else MatrixProgram
    assert isinstance(workload.program, expected)
    assert workload.inputs
    # Inputs are ndarrays or coordinate matrices: what a run needs of either
    # is the shape its load declares (the first segment's, under a loop).
    __, first = segments_of(workload.program).programs[0]
    declared = {
        op.output: (op.rows, op.cols) for op in first.ops if isinstance(op, LoadOp)
    }
    assert {name: array.shape for name, array in workload.inputs.items()} == declared
    if name == "svd":
        assert workload.extra is not None


def test_only_powiter_is_staged():
    assert [spec.name for spec in SPECS if spec.staged] == ["powiter"]


def test_workload_params_from_namespace_partial():
    ns = argparse.Namespace(rows=7, seed=99)
    params = WorkloadParams.from_namespace(ns)
    assert params.rows == 7
    assert params.seed == 99
    assert params.iterations == WorkloadParams().iterations


def test_workload_params_from_namespace_ignores_extras():
    ns = argparse.Namespace(rows=5, app="gnmf", verbosity=3)
    assert WorkloadParams.from_namespace(ns).rows == 5


def test_same_params_build_identical_datasets():
    a = build_workload("linreg", SMALL)
    b = build_workload("linreg", SMALL)
    assert a.program == b.program
    assert set(a.inputs) == set(b.inputs)
    for name in a.inputs:
        np.testing.assert_array_equal(a.inputs[name], b.inputs[name])


def test_cli_workload_goes_through_registry():
    from repro import cli

    args = argparse.Namespace(
        app="jacobi", scale=2e-3, seed=1, factors=4, iterations=2,
        graph="LiveJournal", rows=30, features=6, sparsity=0.3, rank=3,
        eps=1e-2, ridge=1e-2,
    )
    program, inputs, extra = cli._workload(args)
    direct = build_workload("jacobi", WorkloadParams.from_namespace(args))
    assert program == direct.program
    assert set(inputs) == set(direct.inputs)
    assert extra is None

    args.app = "nope"
    with pytest.raises(SystemExit):
        cli._workload(args)
