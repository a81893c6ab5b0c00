"""Declarative program registry: one table from app name to workload.

Previously the CLI owned a hardcoded ``APPS`` tuple plus an if/elif
``_workload`` chain, and the benchmarks and verification tests re-derived
the same app list from it.  This module is now the single source of
truth: each :class:`ProgramSpec` names a program, says which tier it
belongs to (``paper`` for the seven DMac applications, ``example`` for
frontend-only demos), whether it compiles to a staged convergence loop,
and how to build a runnable workload (program + input arrays) from one
shared :class:`WorkloadParams` record.

The CLI, ``benchmarks/harness.py`` and ``tests/verify/_workloads.py``
all consume this table; adding a program here makes it runnable
everywhere at once.
"""

from __future__ import annotations

import dataclasses
from typing import TYPE_CHECKING, Callable, Union

import numpy as np

from repro.errors import ProgramError
from repro.frontend.staged import StagedProgram
from repro.lang.program import MatrixProgram

if TYPE_CHECKING:
    from repro.blocks.coordinate import CoordinateMatrix

WorkloadProgram = Union[MatrixProgram, StagedProgram]

#: Registry tiers: the paper's seven applications vs. frontend demos.
TIER_PAPER = "paper"
TIER_EXAMPLE = "example"


@dataclasses.dataclass(frozen=True)
class WorkloadParams:
    """Scale knobs shared by every registered workload builder.

    Defaults mirror the CLI defaults; each builder reads only the fields
    that make sense for its program.
    """

    scale: float = 3e-3
    seed: int = 0
    factors: int = 16
    iterations: int = 5
    graph: str = "soc-pokec"
    rows: int = 2000
    features: int = 80
    sparsity: float = 0.1
    rank: int = 10
    eps: float = 1e-3
    ridge: float = 1e-3

    @classmethod
    def from_namespace(cls, args: object) -> "WorkloadParams":
        """Build params from any attribute bag (e.g. argparse.Namespace).

        Missing attributes keep their defaults, so callers only need to
        supply the knobs they expose.
        """
        kwargs = {
            field.name: getattr(args, field.name)
            for field in dataclasses.fields(cls)
            if hasattr(args, field.name)
        }
        return cls(**kwargs)


@dataclasses.dataclass(frozen=True)
class Workload:
    """A runnable parameterisation of a registered program."""

    program: WorkloadProgram
    #: Load name -> dense array, or CoordinateMatrix (PageRank's link matrix,
    #: the ratings of GNMF, SVD and CF).
    inputs: dict[str, object]
    #: Program-specific companion data (the SVD's Lanczos scalar names).
    extra: object = None


@dataclasses.dataclass(frozen=True)
class ProgramSpec:
    """One registry row."""

    name: str
    title: str
    tier: str
    staged: bool
    build: Callable[[WorkloadParams], Workload]


def _density(array: np.ndarray | CoordinateMatrix) -> float:
    """Non-zero fraction; a coordinate matrix's count is its ``nnz``."""
    return float(np.count_nonzero(array)) / array.size


# -- workload builders (datasets identical to the pre-registry CLI) ------


def _gnmf_workload(params: WorkloadParams) -> Workload:
    from repro.datasets import netflix_like
    from repro.programs.gnmf import build_gnmf_program

    data = netflix_like(scale=params.scale, seed=params.seed)
    program = build_gnmf_program(
        data.shape,
        _density(data),
        factors=params.factors,
        iterations=params.iterations,
    )
    return Workload(program, {"V": data})


def _pagerank_workload(params: WorkloadParams) -> Workload:
    from repro.datasets import graph_edges, row_normalize
    from repro.programs.pagerank import build_pagerank_program

    link = row_normalize(
        graph_edges(params.graph, scale=params.scale, seed=params.seed)
    )
    program = build_pagerank_program(
        link.shape[0], _density(link), iterations=params.iterations
    )
    return Workload(program, {"link": link})


def _regression_design(params: WorkloadParams) -> np.ndarray:
    from repro.datasets import sparse_random

    return sparse_random(
        params.rows, params.features, params.sparsity, seed=params.seed
    )


def _linreg_workload(params: WorkloadParams) -> Workload:
    from repro.datasets import sparse_random
    from repro.programs.linreg import build_linreg_program

    design = _regression_design(params)
    target = sparse_random(params.rows, 1, 1.0, seed=params.seed + 1)
    program = build_linreg_program(
        design.shape, _density(design), iterations=params.iterations
    )
    return Workload(program, {"V": design, "y": target})


def _logreg_workload(params: WorkloadParams) -> Workload:
    from repro.programs.logreg import build_logreg_program

    design = _regression_design(params)
    rng = np.random.default_rng(params.seed + 2)
    labels = (rng.random((params.rows, 1)) > 0.5).astype(float)
    program = build_logreg_program(
        design.shape, _density(design), iterations=params.iterations
    )
    return Workload(program, {"V": design, "y": labels})


def _jacobi_workload(params: WorkloadParams) -> Workload:
    from repro.programs.jacobi import build_jacobi_program, split_system

    rng = np.random.default_rng(params.seed)
    n = params.rows
    matrix = rng.random((n, n)) * (rng.random((n, n)) < params.sparsity)
    np.fill_diagonal(matrix, np.abs(matrix).sum(axis=1) + 1.0)
    remainder, dinv, rhs = split_system(matrix, rng.random((n, 1)))
    program = build_jacobi_program(
        n, _density(remainder), iterations=params.iterations
    )
    return Workload(program, {"R": remainder, "dinv": dinv, "b": rhs})


def _cf_workload(params: WorkloadParams) -> Workload:
    from repro.datasets import netflix_like
    from repro.programs.cf import build_cf_program

    ratings = netflix_like(scale=params.scale, seed=params.seed).T
    program = build_cf_program(ratings.shape, _density(ratings))
    return Workload(program, {"R": ratings})


def _svd_workload(params: WorkloadParams) -> Workload:
    from repro.datasets import netflix_like
    from repro.programs.svd import build_svd_program

    data = netflix_like(scale=params.scale, seed=params.seed)
    program, names = build_svd_program(
        data.shape, _density(data), rank=params.rank
    )
    return Workload(program, {"V": data}, extra=names)


def _powiter_workload(params: WorkloadParams) -> Workload:
    from repro.programs.power_iteration import (
        build_power_iteration_program,
        dominant_eigen_dataset,
    )

    n = params.rows
    staged = build_power_iteration_program(n, eps=params.eps)
    data = dominant_eigen_dataset(n, seed=params.seed)
    return Workload(staged, {"A": data})


def _ridge_workload(params: WorkloadParams) -> Workload:
    from repro.datasets import sparse_random
    from repro.programs.ridge import build_ridge_program

    design = _regression_design(params)
    target = sparse_random(params.rows, 1, 1.0, seed=params.seed + 1)
    program = build_ridge_program(
        design.shape,
        _density(design),
        iterations=params.iterations,
        lam=params.ridge,
    )
    return Workload(program, {"V": design, "y": target})


# -- the registry --------------------------------------------------------

SPECS: tuple[ProgramSpec, ...] = (
    ProgramSpec(
        "gnmf",
        "Gaussian non-negative matrix factorisation (paper Code 1)",
        TIER_PAPER,
        False,
        _gnmf_workload,
    ),
    ProgramSpec(
        "pagerank",
        "PageRank power iterations (paper Code 2)",
        TIER_PAPER,
        False,
        _pagerank_workload,
    ),
    ProgramSpec(
        "linreg",
        "Linear regression, conjugate gradient (paper Code 3)",
        TIER_PAPER,
        False,
        _linreg_workload,
    ),
    ProgramSpec(
        "logreg",
        "Logistic regression, gradient descent (paper Code 4)",
        TIER_PAPER,
        False,
        _logreg_workload,
    ),
    ProgramSpec(
        "jacobi",
        "Jacobi iteration for linear systems (paper Appendix A.2)",
        TIER_PAPER,
        False,
        _jacobi_workload,
    ),
    ProgramSpec(
        "cf",
        "Item-item collaborative filtering (paper Appendix A.3)",
        TIER_PAPER,
        False,
        _cf_workload,
    ),
    ProgramSpec(
        "svd",
        "Lanczos SVD (paper Code 5, Appendix A.4)",
        TIER_PAPER,
        False,
        _svd_workload,
    ),
    ProgramSpec(
        "powiter",
        "Power iteration with while-convergence loop (frontend demo)",
        TIER_EXAMPLE,
        True,
        _powiter_workload,
    ),
    ProgramSpec(
        "ridge",
        "Ridge regression, gradient descent (frontend demo)",
        TIER_EXAMPLE,
        False,
        _ridge_workload,
    ),
)

_BY_NAME = {spec.name: spec for spec in SPECS}

#: The paper's seven applications, in the paper's presentation order.
PAPER_APPS: tuple[str, ...] = tuple(
    spec.name for spec in SPECS if spec.tier == TIER_PAPER
)

#: Every registered program name, paper tier first.
ALL_APPS: tuple[str, ...] = tuple(spec.name for spec in SPECS)


def get_spec(name: str) -> ProgramSpec:
    """Look up a registry row, raising :class:`ProgramError` when absent."""
    try:
        return _BY_NAME[name]
    except KeyError:
        known = ", ".join(ALL_APPS)
        raise ProgramError(
            f"unknown application {name!r} (registered: {known})"
        ) from None


def registered_names(tier: str | None = None) -> tuple[str, ...]:
    """Registered program names, optionally restricted to one tier."""
    if tier is None:
        return ALL_APPS
    return tuple(spec.name for spec in SPECS if spec.tier == tier)


def build_workload(name: str, params: WorkloadParams | None = None) -> Workload:
    """Instantiate a registered program with its canonical dataset."""
    return get_spec(name).build(params if params is not None else WorkloadParams())
