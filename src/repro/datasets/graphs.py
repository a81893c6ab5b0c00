"""Scaled surrogates for the paper's four real-world graphs (Table 3).

The originals (soc-pokec, cit-Patents, LiveJournal, Wikipedia) are not
bundled; what the experiments actually exercise is each graph's *shape
statistics* -- node count, average degree, and a heavy-tailed degree
distribution -- which drive block sparsity, memory, and communication.
:func:`graph_edges` generates a random adjacency matrix with the original
node/edge **ratio** at a configurable scale, with out-degrees drawn from a
Zipf-like tail (real graphs' degree skew is what makes the paper's
block-size estimate deviate slightly from Equation 3; see Section 6.3), as
an edge list; :func:`graph_like` is the same matrix as a dense array.
"""

from __future__ import annotations

import dataclasses

import numpy as np

from repro.blocks.coordinate import CoordinateMatrix
from repro.errors import ReproError


@dataclasses.dataclass(frozen=True)
class GraphSpec:
    """Shape statistics of one of the paper's graphs (Table 3)."""

    name: str
    nodes: int
    edges: int

    @property
    def average_degree(self) -> float:
        return self.edges / self.nodes


#: The paper's Table 3, verbatim.
PAPER_GRAPHS = {
    "soc-pokec": GraphSpec("soc-pokec", 1_632_803, 30_622_564),
    "cit-Patents": GraphSpec("cit-Patents", 3_774_768, 16_518_978),
    "LiveJournal": GraphSpec("LiveJournal", 4_847_571, 68_993_773),
    "Wikipedia": GraphSpec("Wikipedia", 25_942_254, 601_038_301),
}


def graph_edges(
    name: str,
    scale: float = 1e-3,
    seed: int = 0,
    zipf_exponent: float = 2.1,
) -> CoordinateMatrix:
    """A random adjacency matrix with ``name``'s node/edge ratio, as an
    edge list: entry ``(source, target)`` is 1.0 for every edge.  Memory and
    time follow the edge count, not the square of the node count.

    Args:
        name: one of the Table 3 graph names.
        scale: node-count scale factor relative to the real graph.
        seed: RNG seed.
        zipf_exponent: tail exponent of the out-degree distribution.
    """
    if name not in PAPER_GRAPHS:
        raise ReproError(
            f"unknown graph {name!r}; choose from {sorted(PAPER_GRAPHS)}"
        )
    spec = PAPER_GRAPHS[name]
    nodes = max(4, int(spec.nodes * scale))
    edges = max(nodes, int(round(nodes * spec.average_degree)))
    rng = np.random.default_rng(seed)

    # Heavy-tailed out-degrees, capped at the node count and rescaled to hit
    # the target edge total.
    degrees = rng.zipf(zipf_exponent, size=nodes).astype(np.float64)
    degrees = np.minimum(degrees, nodes - 1)
    degrees *= edges / degrees.sum()
    degrees = np.minimum(np.maximum(1, np.round(degrees)).astype(np.int64), nodes - 1)

    # One draw per node, in node order: the graph of a seed is pinned by
    # this call sequence.  Self-loops are dropped.
    targets = np.concatenate(
        [rng.choice(nodes, size=out, replace=False) for out in degrees.tolist()]
    )
    sources = np.repeat(np.arange(nodes), degrees)
    # Sources ascend, so a stable sort by target alone is column-major order
    # (a radix sort up to 65 536 nodes), and the constructor finds nothing
    # left to sort.
    order = np.argsort(targets.astype(np.min_scalar_type(nodes)), kind="stable")
    sources, targets = sources[order], targets[order]
    edge = sources != targets
    return CoordinateMatrix(
        sources[edge], targets[edge], np.ones(np.count_nonzero(edge)), (nodes, nodes)
    )


def graph_like(
    name: str,
    scale: float = 1e-3,
    seed: int = 0,
    zipf_exponent: float = 2.1,
) -> np.ndarray:
    """:func:`graph_edges` as a dense numpy array (entries in {0, 1}); split
    it into blocks with ``storage="sparse"`` to exercise the CSC machinery."""
    return graph_edges(name, scale, seed, zipf_exponent).to_numpy()


def row_normalize(adjacency: np.ndarray | CoordinateMatrix) -> np.ndarray | CoordinateMatrix:
    """Row-normalise an adjacency matrix (the PageRank ``link`` matrix;
    dangling nodes keep an all-zero row), in the form it was given.  The
    coordinate form adds up each row's stored entries in column order,
    which for a 0/1 adjacency is exactly the dense row sum."""
    if isinstance(adjacency, CoordinateMatrix):
        sums = np.bincount(adjacency.rows, weights=adjacency.values, minlength=adjacency.shape[0])
        scaled = adjacency.values / np.where(sums > 0, sums, 1.0)[adjacency.rows]
        return CoordinateMatrix(adjacency.rows, adjacency.cols, scaled, adjacency.shape)
    adjacency = np.asarray(adjacency, dtype=np.float64)
    sums = adjacency.sum(axis=1, keepdims=True)
    # One pass, one allocation: rows that sum to <= 0 are divided by 1.
    return adjacency / np.where(sums > 0, sums, 1.0)
