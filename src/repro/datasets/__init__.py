"""Dataset generators: synthetic sparse matrices, graph surrogates,
Netflix-like ratings (see DESIGN.md, Substitutions)."""

from repro._exports import export_table

_EXPORTS = {
    "PAPER_GRAPHS": "repro.datasets.graphs",
    "graph_edges": "repro.datasets.graphs",
    "graph_like": "repro.datasets.graphs",
    "row_normalize": "repro.datasets.graphs",
    "netflix_like": "repro.datasets.netflix",
    "dense_random": "repro.datasets.synthetic",
    "sparse_random": "repro.datasets.synthetic",
}

__all__ = sorted(_EXPORTS)
__getattr__, __dir__ = export_table(__name__, _EXPORTS)
