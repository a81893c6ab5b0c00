"""PageRank over a scaled LiveJournal-like graph: the Figure 9(a) workload.

Shows why DMac wins on iterative graph programs: the link matrix is loaded
into Column scheme once and referenced for free every iteration; only the
small rank vector moves.

Run with:  python examples/pagerank_graph.py
"""

import numpy as np

from repro import ClusterConfig, DMacSession
from repro.datasets import graph_edges, row_normalize
from repro.programs import build_pagerank_program


def main() -> None:
    # An edge list (a CoordinateMatrix), never an N x N array: it is cut
    # straight into CSC blocks, so the graph can grow with its edges.
    adjacency = graph_edges("LiveJournal", scale=3e-4, seed=5)
    link = row_normalize(adjacency)
    nodes = link.shape[0]
    density = link.nnz / link.size
    print(f"graph: {nodes} nodes, {adjacency.nnz} edges")

    program = build_pagerank_program(nodes, density, iterations=15)
    session = DMacSession(ClusterConfig(num_workers=4, threads_per_worker=4))
    plan = session.plan(program)

    link_moves = sum(
        1
        for step in plan.communicating_steps()
        if getattr(step, "source", None) is not None and step.source.name == "link"
    )
    print(f"plan: {plan.num_stages} stages; the link matrix crosses the "
          f"network {link_moves} times (rank vector broadcasts do the rest)")

    result = session.run(program, {"link": link})
    session.close()  # or `with DMacSession(...) as session:`, as below
    ranks = result.matrices[program.bindings["rank"]].ravel()
    top = np.argsort(ranks)[::-1][:5]
    in_degrees = np.bincount(adjacency.cols, minlength=nodes)
    print("top-5 nodes by rank:")
    for node in top:
        in_degree = in_degrees[node]
        print(f"  node {node:>5}  rank {ranks[node]:.5f}  in-degree {in_degree}")

    with DMacSession(ClusterConfig(num_workers=4, threads_per_worker=4)) as baseline:
        systemml = baseline.run_systemml(program, {"link": link})
    print(f"\ncommunication: DMac {result.comm_bytes / 1e6:.2f} MB vs "
          f"SystemML-S {systemml.comm_bytes / 1e6:.2f} MB "
          f"({systemml.comm_bytes / max(result.comm_bytes, 1):.1f}x)")


if __name__ == "__main__":
    main()
