"""Tests for the five application programs: structure and numerical
correctness against hand-written numpy references."""

import numpy as np
import pytest

from repro.baselines.rlocal import run_local
from repro.config import ClusterConfig
from repro.datasets import netflix_like, sparse_random
from repro.errors import ProgramError
from repro.lang.program import MatMulOp
from repro.programs import (
    build_cf_program,
    build_gnmf_program,
    build_linreg_program,
    build_pagerank_program,
    build_svd_program,
    singular_values,
)
from repro.programs.svd import tridiagonal_matrix
from repro.session import DMacSession


def session():
    return DMacSession(ClusterConfig(num_workers=4, threads_per_worker=1, block_size=16))


class TestGNMF:
    def test_matches_numpy_reference(self):
        data = sparse_random(60, 40, 0.2, seed=3, ensure_coverage=True)
        program = build_gnmf_program((60, 40), 0.2, factors=5, iterations=3, seed=9)
        result = session().run(program, {"V": data})
        w = np.random.default_rng(9).random((60, 5))
        h = np.random.default_rng(10).random((5, 40))
        for __ in range(3):
            h = h * (w.T @ data) / (w.T @ w @ h)
            w = w * (data @ h.T) / (w @ h @ h.T)
        np.testing.assert_allclose(result.matrices[program.bindings["H"]], h, atol=1e-8)
        np.testing.assert_allclose(result.matrices[program.bindings["W"]], w, atol=1e-8)

    def test_reconstruction_improves(self):
        data = netflix_like(scale=1.5e-3, seed=2)
        short = build_gnmf_program(data.shape, 0.012, factors=6, iterations=1)
        long = build_gnmf_program(data.shape, 0.012, factors=6, iterations=8)
        errors = {}
        for label, program in (("short", short), ("long", long)):
            out = run_local(program, {"V": data})
            w = out.matrices[program.bindings["W"]]
            h = out.matrices[program.bindings["H"]]
            errors[label] = np.linalg.norm(data - w @ h)
        assert errors["long"] < errors["short"]

    def test_operator_count_scales_with_iterations(self):
        one = build_gnmf_program((10, 10), 0.5, factors=2, iterations=1)
        two = build_gnmf_program((10, 10), 0.5, factors=2, iterations=2)
        matmuls = lambda p: sum(isinstance(op, MatMulOp) for op in p.ops)
        assert matmuls(two) == 2 * matmuls(one)
        assert matmuls(one) == 6  # paper: 6 multiplications per iteration

    def test_rejects_bad_params(self):
        with pytest.raises(ProgramError):
            build_gnmf_program((10, 10), 0.5, factors=0)
        with pytest.raises(ProgramError):
            build_gnmf_program((10, 10), 0.5, iterations=0)


class TestPageRank:
    def test_matches_numpy_reference(self):
        rng = np.random.default_rng(4)
        link = rng.random((40, 40))
        link[link < 0.8] = 0.0
        link /= np.maximum(link.sum(axis=1, keepdims=True), 1e-12)
        program = build_pagerank_program(40, 0.2, iterations=4, seed=7)
        result = session().run(program, {"link": link})
        rank = np.random.default_rng(7).random((1, 40))
        teleport = np.full((1, 40), 1.0 / 40)
        for __ in range(4):
            rank = (rank @ link) * 0.85 + teleport * 0.15
        np.testing.assert_allclose(
            result.matrices[program.bindings["rank"]], rank, atol=1e-9
        )

    def test_ranks_sum_near_one_on_stochastic_link(self):
        rng = np.random.default_rng(5)
        link = rng.random((30, 30)) + 0.01
        link /= link.sum(axis=1, keepdims=True)
        # The random initial rank washes out geometrically (0.85^k); after
        # enough iterations the total mass converges to the teleport fixpoint.
        program = build_pagerank_program(30, 1.0, iterations=50, seed=1)
        result = run_local(program, {"link": link})
        total = result.matrices[program.bindings["rank"]].sum()
        assert total == pytest.approx(1.0, abs=0.05)

    def test_rejects_bad_damping(self):
        with pytest.raises(ProgramError):
            build_pagerank_program(10, 0.1, damping=1.5)


class TestLinearRegression:
    def test_cg_converges_to_normal_equations(self):
        rng = np.random.default_rng(6)
        examples, features = 120, 12
        design = rng.random((examples, features))
        target = rng.random((examples, 1))
        program = build_linreg_program(
            (examples, features), 1.0, iterations=features + 5, ridge=1e-6
        )
        result = run_local(program, {"V": design, "y": target})
        w = result.matrices[program.bindings["w"]]
        exact = np.linalg.solve(
            design.T @ design + 1e-6 * np.eye(features), design.T @ target
        )
        np.testing.assert_allclose(w, exact, atol=1e-4)

    def test_residual_decreases(self):
        rng = np.random.default_rng(7)
        design, target = rng.random((80, 10)), rng.random((80, 1))
        short = build_linreg_program((80, 10), 1.0, iterations=1)
        long = build_linreg_program((80, 10), 1.0, iterations=10)
        inputs = {"V": design, "y": target}
        r_short = run_local(short, inputs).scalars["norm_r2@2"]
        r_long = run_local(long, inputs).scalars[long.scalar_outputs[0]]
        assert r_long < r_short

    def test_distributed_matches_local(self):
        rng = np.random.default_rng(8)
        design = sparse_random(100, 16, 0.3, seed=8)
        target = rng.random((100, 1))
        program = build_linreg_program((100, 16), 0.3, iterations=5)
        inputs = {"V": design, "y": target}
        dist = session().run(program, inputs)
        local = run_local(program, inputs)
        np.testing.assert_allclose(
            dist.matrices[program.bindings["w"]],
            local.matrices[program.bindings["w"]],
            atol=1e-7,
        )


class TestCollaborativeFiltering:
    def test_matches_numpy_reference(self):
        ratings = netflix_like(scale=1e-3, seed=9).T
        density = np.count_nonzero(ratings) / ratings.size
        program = build_cf_program(ratings.shape, density)
        result = session().run(program, {"R": ratings})
        dense = np.asarray(ratings)
        expected = dense @ dense.T @ dense
        expected = expected / np.sqrt((expected * expected).sum())
        np.testing.assert_allclose(
            result.matrices[program.bindings["predict"]], expected, atol=1e-8
        )

    def test_two_multiplications(self):
        program = build_cf_program((10, 20), 0.1)
        assert sum(isinstance(op, MatMulOp) for op in program.ops) == 2


class TestSVD:
    def test_recovers_dominant_singular_value(self):
        rng = np.random.default_rng(10)
        data = rng.random((80, 30))
        program, names = build_svd_program((80, 30), 1.0, rank=8, seed=3)
        result = run_local(program, {"V": data})
        estimated = singular_values(result.scalars, names)
        true = np.linalg.svd(data, compute_uv=False)
        assert estimated[0] == pytest.approx(true[0], rel=1e-3)

    def test_tridiagonal_is_symmetric(self):
        rng = np.random.default_rng(11)
        data = rng.random((40, 20))
        program, names = build_svd_program((40, 20), 1.0, rank=5)
        result = run_local(program, {"V": data})
        tri = tridiagonal_matrix(result.scalars, names)
        np.testing.assert_array_equal(tri, tri.T)
        # only the tridiagonal band is populated
        assert np.count_nonzero(np.triu(tri, 2)) == 0

    def test_distributed_matches_local(self):
        data = sparse_random(60, 24, 0.3, seed=12)
        program, names = build_svd_program((60, 24), 0.3, rank=4)
        dist = session().run(program, {"V": data})
        local = run_local(program, {"V": data})
        for alpha in names.alphas:
            assert dist.scalars[alpha] == pytest.approx(local.scalars[alpha], rel=1e-8)

    def test_rejects_bad_rank(self):
        with pytest.raises(ProgramError):
            build_svd_program((10, 10), 0.5, rank=0)


class TestPageRankNormalize:
    def test_in_program_normalisation_matches_external(self):
        rng = np.random.default_rng(21)
        adjacency = (rng.random((30, 30)) > 0.7).astype(float)
        adjacency[adjacency.sum(axis=1) == 0, 0] = 1.0  # no dangling rows
        density = np.count_nonzero(adjacency) / adjacency.size

        internal = build_pagerank_program(30, density, iterations=4, normalize=True)
        external = build_pagerank_program(30, density, iterations=4)
        link = adjacency / adjacency.sum(axis=1, keepdims=True)

        got = run_local(internal, {"link": adjacency})
        want = run_local(external, {"link": link})
        np.testing.assert_allclose(
            got.matrices[internal.bindings["rank"]],
            want.matrices[external.bindings["rank"]],
            atol=1e-10,
        )

    def test_distributed_normalised_run(self):
        rng = np.random.default_rng(22)
        adjacency = (rng.random((24, 24)) > 0.6).astype(float)
        adjacency[adjacency.sum(axis=1) == 0, 0] = 1.0
        density = np.count_nonzero(adjacency) / adjacency.size
        program = build_pagerank_program(24, density, iterations=3, normalize=True)
        result = session().run(program, {"link": adjacency})
        reference = run_local(program, {"link": adjacency})
        np.testing.assert_allclose(
            result.matrices[program.bindings["rank"]],
            reference.matrices[program.bindings["rank"]],
            atol=1e-9,
        )

    def test_normalisation_is_startup_only(self):
        """The normalisation must not add per-iteration communication."""
        from repro.core.planner import DMacPlanner

        builder = lambda n: build_pagerank_program(64, 0.1, iterations=n, normalize=True)
        p2 = DMacPlanner(builder(2), 4).plan().predicted_bytes
        p3 = DMacPlanner(builder(3), 4).plan().predicted_bytes
        plain = lambda n: build_pagerank_program(64, 0.1, iterations=n)
        q2 = DMacPlanner(plain(2), 4).plan().predicted_bytes
        q3 = DMacPlanner(plain(3), 4).plan().predicted_bytes
        assert (p3 - p2) == (q3 - q2)  # same per-iteration delta
