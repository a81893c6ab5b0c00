"""Dataset generators: synthetic sparse matrices, graph surrogates,
Netflix-like ratings (see DESIGN.md, Substitutions)."""

from repro.datasets.graphs import (
    PAPER_GRAPHS,
    GraphSpec,
    graph_edges,
    graph_like,
    row_normalize,
)
from repro.datasets.netflix import (
    NETFLIX_MOVIES,
    NETFLIX_SPARSITY,
    NETFLIX_USERS,
    netflix_like,
)
from repro.datasets.synthetic import dense_random, scaled_rows_series, sparse_random

__all__ = [
    "GraphSpec",
    "NETFLIX_MOVIES",
    "NETFLIX_SPARSITY",
    "NETFLIX_USERS",
    "PAPER_GRAPHS",
    "dense_random",
    "graph_edges",
    "graph_like",
    "netflix_like",
    "row_normalize",
    "scaled_rows_series",
    "sparse_random",
]
