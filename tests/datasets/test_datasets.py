"""Tests for the dataset generators."""

import hashlib
import tracemalloc

import numpy as np
import pytest

from repro.blocks import CoordinateMatrix
from repro.datasets import (
    PAPER_GRAPHS,
    dense_random,
    graph_edges,
    graph_like,
    netflix_like,
    row_normalize,
    scaled_rows_series,
    sparse_random,
)
from repro.errors import ReproError


class TestSparseRandom:
    def test_target_sparsity(self):
        out = sparse_random(100, 100, 0.1, seed=1)
        assert np.count_nonzero(out) == 1000

    def test_values_strictly_positive(self):
        out = sparse_random(50, 50, 0.2, seed=2)
        assert (out[out != 0] > 0).all()

    def test_deterministic(self):
        np.testing.assert_array_equal(
            sparse_random(20, 20, 0.3, seed=5), sparse_random(20, 20, 0.3, seed=5)
        )

    def test_ensure_coverage(self):
        out = sparse_random(200, 10, 0.01, seed=3, ensure_coverage=True)
        assert (out.sum(axis=1) > 0).all()
        assert (out.sum(axis=0) > 0).all()

    def test_dense_random_is_full(self):
        assert np.count_nonzero(dense_random(20, 20, seed=1)) == 400

    def test_rejects_bad_sparsity(self):
        with pytest.raises(ReproError):
            sparse_random(10, 10, 2.0)

    def test_rejects_bad_dims(self):
        with pytest.raises(ReproError):
            sparse_random(0, 10, 0.5)

    def test_scaled_series_nnz_grows_linearly(self):
        series = scaled_rows_series(100, 50, 0.1, (1.0, 2.0, 4.0), seed=1)
        nnzs = [nnz for nnz, __ in series]
        assert nnzs[1] == pytest.approx(2 * nnzs[0], rel=0.15)
        assert nnzs[2] == pytest.approx(4 * nnzs[0], rel=0.15)
        # columns fixed, rows grow
        assert all(mat.shape[1] == 50 for __, mat in series)


class TestGraphLike:
    def test_all_paper_graphs_generate(self):
        for name in PAPER_GRAPHS:
            adjacency = graph_like(name, scale=2e-5, seed=1)
            assert adjacency.shape[0] == adjacency.shape[1]
            assert np.count_nonzero(adjacency) > 0

    def test_node_edge_ratio_preserved(self):
        spec = PAPER_GRAPHS["LiveJournal"]
        adjacency = graph_like("LiveJournal", scale=2e-4, seed=2)
        nodes = adjacency.shape[0]
        edges = np.count_nonzero(adjacency)
        assert edges / nodes == pytest.approx(spec.average_degree, rel=0.5)

    def test_no_self_loops(self):
        adjacency = graph_like("soc-pokec", scale=1e-4, seed=3)
        assert np.trace(adjacency) == 0

    def test_binary_entries(self):
        adjacency = graph_like("cit-Patents", scale=1e-4, seed=4)
        assert set(np.unique(adjacency)) <= {0.0, 1.0}

    def test_unknown_graph_rejected(self):
        with pytest.raises(ReproError):
            graph_like("friendster")

    def test_degree_distribution_is_skewed(self):
        adjacency = graph_like("LiveJournal", scale=5e-4, seed=5)
        degrees = adjacency.sum(axis=1)
        assert degrees.max() > 4 * max(degrees.mean(), 1.0)

    def test_row_normalize(self):
        adjacency = graph_like("soc-pokec", scale=1e-4, seed=6)
        link = row_normalize(adjacency)
        sums = link.sum(axis=1)
        nonzero = sums > 0
        np.testing.assert_allclose(sums[nonzero], 1.0)

    def test_row_normalize_keeps_dangling_rows_zero(self):
        adjacency = np.zeros((3, 3))
        adjacency[0, 1] = 1.0
        link = row_normalize(adjacency)
        assert link[1].sum() == 0.0


def dense_fill_reference(name: str, scale: float, seed: int) -> np.ndarray:
    """The generator as it was while it filled a dense array: the RNG call
    sequence (zipf, then one ``choice`` per node in node order) every
    seeded graph, golden book and benchmark number since depends on."""
    spec = PAPER_GRAPHS[name]
    nodes = max(4, int(spec.nodes * scale))
    edges = max(nodes, int(round(nodes * spec.average_degree)))
    rng = np.random.default_rng(seed)
    degrees = rng.zipf(2.1, size=nodes).astype(np.float64)
    degrees = np.minimum(degrees, nodes - 1)
    degrees *= edges / degrees.sum()
    degrees = np.maximum(1, np.round(degrees)).astype(np.int64)
    adjacency = np.zeros((nodes, nodes), dtype=np.float64)
    for source in range(nodes):
        out_degree = min(int(degrees[source]), nodes - 1)
        adjacency[source, rng.choice(nodes, size=out_degree, replace=False)] = 1.0
    np.fill_diagonal(adjacency, 0.0)
    return adjacency


class TestGraphEdges:
    @pytest.mark.parametrize("seed", [0, 5, 11])
    @pytest.mark.parametrize(
        "name, scale",
        [("soc-pokec", 2e-4), ("cit-Patents", 1e-4), ("LiveJournal", 8e-5), ("Wikipedia", 1.5e-5)],
    )
    def test_same_draws_as_the_dense_fill(self, name, scale, seed):
        reference = dense_fill_reference(name, scale, seed)
        edges = graph_edges(name, scale=scale, seed=seed)
        assert np.asarray(edges).tobytes() == reference.tobytes()
        assert graph_like(name, scale=scale, seed=seed).tobytes() == reference.tobytes()
        assert edges.nnz == np.count_nonzero(reference)
        link = row_normalize(edges)
        assert np.asarray(link).tobytes() == row_normalize(reference).tobytes()

    def test_memory_follows_the_edges(self):
        edges = graph_edges("soc-pokec", scale=1e-2, seed=1)  # 16 328 nodes: 2.1 GB dense
        assert edges.shape == (16_328, 16_328)
        assert edges.nbytes == 24 * edges.nnz < 10e6

    def test_row_normalize_keeps_the_form_and_dangling_rows(self):
        link = row_normalize(CoordinateMatrix([0, 0, 2], [1, 2, 0], [1.0, 3.0, 5.0], (4, 3)))
        assert isinstance(link, CoordinateMatrix)
        assert np.asarray(link).tolist() == [
            [0.0, 0.25, 0.75], [0.0, 0.0, 0.0], [1.0, 0.0, 0.0], [0.0, 0.0, 0.0]
        ]


#: ``sha256(np.asarray(netflix_like(...)).tobytes())`` and the number of
#: ratings drawn, as the dense generator this one replaced produced them:
#: ``(scale, seed, ensure_coverage) -> (sha256, ratings)``.
PINNED_RATINGS = {
    (1e-3, 1, True): ("a65848c7b7c91b0dbcef56f395d7fb4d2579ddb34990a38c424316f213df3def", 488),
    (1e-3, 2, True): ("8420ca3dbd0c185687430fe072dbf9ec032c4e05111e391e731fbcd352ffe016", 488),
    (1e-3, 3, True): ("80d628f2b39787654c35aa3a28c6dc88a3eb734005edb2ff74257383136d5b3c", 487),
    (1e-3, 4, True): ("fc5ff96dd45f0c0a080220f8f553841808524d3ba601b18dbc4a207294ccc2b8", 490),
    (1e-3, 5, True): ("d5c2a381f57a190d02be2995847623d4b528ccc3da548248c01c0cd51c9fac6a", 488),
    (1.5e-3, 2, True): ("ca9409def91e8d69c185f8e263f9cf3e69bca962da35edf9a93d8e8d49ac37d3", 746),
    (3e-3, 3, False): ("62ba4fbd05d40ba36195475f19fe440500ba5007ab84ec98c2263ede0e41cd75", 893),
    (2e-2, 1, True): ("2745a29c9ae827caccae3f8c2a3b7c8f44c6a5c765fbaa2c350106f61f795bb7", 40027),
}


class TestNetflixLike:
    def test_aspect_ratio(self):
        ratings = netflix_like(scale=1e-3, seed=1)
        rows, cols = ratings.shape
        assert rows / cols == pytest.approx(480189 / 17770, rel=0.5)

    def test_ratings_in_range(self):
        values = netflix_like(scale=1e-3, seed=2).values
        assert set(values.tolist()) <= {1.0, 2.0, 3.0, 4.0, 5.0}

    def test_sparsity_close_to_netflix(self):
        ratings = netflix_like(scale=3e-3, seed=3, ensure_coverage=False)
        assert ratings.size * 0.005 < ratings.nnz < ratings.size * 0.03

    def test_coverage_guarantee(self):
        ratings = netflix_like(scale=1e-3, seed=4)
        rows, cols = ratings.shape
        assert (np.bincount(ratings.rows, minlength=rows) > 0).all()
        assert (np.bincount(ratings.cols, minlength=cols) > 0).all()

    @pytest.mark.parametrize(
        "case", sorted(PINNED_RATINGS), ids=lambda case: "scale{:g}-seed{}-coverage{}".format(*case)
    )
    def test_the_ratings_stream_is_pinned(self, case):
        """Same generator calls in the same order as the dense generator
        made: the same matrix, so the same plans, books and outputs.  Every
        rating drawn is stored once (no cell is drawn twice, so the
        constructor coalesced nothing)."""
        scale, seed, ensure_coverage = case
        ratings = netflix_like(scale=scale, seed=seed, ensure_coverage=ensure_coverage)
        assert isinstance(ratings, CoordinateMatrix)
        digest, drawn = PINNED_RATINGS[case]
        assert hashlib.sha256(np.asarray(ratings).tobytes()).hexdigest() == digest
        assert ratings.nnz == drawn

    def test_counting_the_ratings_builds_no_dense_matrix(self):
        """``np.count_nonzero`` -- every density the registry and the
        benchmarks compute -- reads ``nnz``: at ``gnmf_kernels``' size the
        dense matrix would be 27 MB."""
        ratings = netflix_like(scale=2e-2, seed=1)
        tracemalloc.start()
        try:
            count = np.count_nonzero(ratings)
            __, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert count == ratings.nnz
        assert peak < ratings.size * 8 / 100

    def test_rejects_bad_scale(self):
        with pytest.raises(ReproError):
            netflix_like(scale=0.0)
