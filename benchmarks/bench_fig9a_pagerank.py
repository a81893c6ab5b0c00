"""Figure 9(a) — PageRank per-iteration execution time on the four graphs,
DMac vs SystemML-S.

Paper shape: DMac wins consistently on every graph (e.g. Wikipedia: ~8 s vs
~40 s per iteration) because the link matrix is cached in Column scheme
(Reference dependency) and only the small rank vector is broadcast per
iteration, while SystemML-S repartitions the link matrix every time.
"""

from __future__ import annotations


from harness import bench_clock, density, fmt_bytes, fmt_secs, report
from repro import ClusterConfig, DMacSession
from repro.core.plan import ExtendedStep
from repro.datasets import PAPER_GRAPHS, graph_edges, row_normalize
from repro.programs import build_pagerank_program

SCALES = {
    "soc-pokec": 6e-4,
    "cit-Patents": 2.6e-4,
    "LiveJournal": 2e-4,
    "Wikipedia": 4e-5,
}
ITERATIONS = 10
CONFIG = dict(num_workers=4, threads_per_worker=2, block_size=128, clock=bench_clock())


def run_pair(name: str):
    link = row_normalize(graph_edges(name, scale=SCALES[name], seed=5))
    program = build_pagerank_program(link.shape[0], density(link), iterations=ITERATIONS)
    dmac = DMacSession(ClusterConfig(**CONFIG)).run(program, {"link": link})
    systemml = DMacSession(ClusterConfig(**CONFIG)).run_systemml(program, {"link": link})
    return dmac, systemml


def test_fig9a_pagerank(benchmark):
    benchmark.pedantic(run_pair, args=("soc-pokec",), rounds=1, iterations=1)
    rows = []
    results = {}
    for name in PAPER_GRAPHS:
        dmac, systemml = run_pair(name)
        results[name] = (dmac, systemml)
        rows.append(
            [
                name,
                fmt_secs(dmac.simulated_seconds / ITERATIONS),
                fmt_secs(systemml.simulated_seconds / ITERATIONS),
                fmt_bytes(dmac.comm_bytes),
                fmt_bytes(systemml.comm_bytes),
                f"{systemml.simulated_seconds / dmac.simulated_seconds:.1f}x",
            ]
        )
    report(
        "fig9a_pagerank",
        "Figure 9(a) -- PageRank per-iteration time, DMac vs SystemML-S",
        ["graph", "DMac /iter", "SystemML-S /iter", "DMac comm", "SysML comm", "speedup"],
        rows,
        notes="paper: DMac wins on all four graphs (Wikipedia ~8s vs ~40s, ~5x)",
    )
    for name, (dmac, systemml) in results.items():
        assert dmac.simulated_seconds < systemml.simulated_seconds, name
        assert dmac.comm_bytes < systemml.comm_bytes, name


def test_fig9a_link_cached_in_one_scheme(benchmark):
    """The mechanism behind the win: the plan never moves the link matrix."""

    def plan_for_link():
        link = row_normalize(graph_edges("soc-pokec", scale=SCALES["soc-pokec"], seed=5))
        program = build_pagerank_program(
            link.shape[0], density(link), iterations=ITERATIONS
        )
        return DMacSession(ClusterConfig(**CONFIG)).plan(program)

    plan = benchmark.pedantic(plan_for_link, rounds=1, iterations=1)
    link_moves = [
        step
        for step in plan.steps
        if isinstance(step, ExtendedStep)
        and step.communicates
        and step.source.name == "link"
    ]
    assert link_moves == []
