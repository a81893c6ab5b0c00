"""The four benchmark workloads: what runs, at what size, and why.

Each workload stresses a different layer of the stack, so a change to
one layer has a workload that exercises it and one that bypasses it
(README.md carries the prediction table).  Sizes are fixed here and are
the same on every commit; ``--seed`` only feeds the dataset generators
and the service job-order draw.

Nothing here imports :mod:`repro` at module level: the runner pins BLAS
threads and pre-touches memory before numpy is first loaded.
"""

from __future__ import annotations

import dataclasses

#: ``--smoke`` multiplies every size knob by this (~10x fewer bytes).
SMOKE_FACTOR = 0.3
_SIZE_KNOBS = ("rows", "features", "scale")


def _params(params: dict, seed: int, smoke: bool):
    from repro.programs.registry import WorkloadParams

    if smoke:
        params = {
            key: type(value)(value * SMOKE_FACTOR) if key in _SIZE_KNOBS else value
            for key, value in params.items()
        }
    return WorkloadParams(seed=seed, **params)


@dataclasses.dataclass(frozen=True)
class BatchWorkload:
    """One registry program, run as a fresh ``DMacSession`` per job."""

    name: str
    why: str
    app: str
    params: dict
    #: ``DMacSession`` keyword flags (optimize / lint / verify).
    flags: dict
    #: MiB written and freed before set-up (about 1.25x the peak RSS).
    pretouch_mb: int

    def build(self, seed: int, smoke: bool):
        from repro.programs.registry import build_workload

        return build_workload(self.app, _params(self.params, seed, smoke))

    def compile(self, inputs: dict):
        """Only the frontend compile of :meth:`build` (same program, no
        dataset), so ``frontend.compile_s`` can be timed on its own."""
        import numpy as np

        from repro.programs.gnmf import build_gnmf_program
        from repro.programs.pagerank import build_pagerank_program
        from repro.programs.svd import build_svd_program

        (data,) = inputs.values()
        density = float(np.count_nonzero(data)) / data.size
        if self.app == "gnmf":
            return build_gnmf_program(
                data.shape,
                density,
                factors=self.params["factors"],
                iterations=self.params["iterations"],
            )
        if self.app == "pagerank":
            return build_pagerank_program(
                data.shape[0], density, iterations=self.params["iterations"]
            )
        return build_svd_program(data.shape, density, rank=self.params["rank"])


@dataclasses.dataclass(frozen=True)
class ServeWorkload:
    """Many short jobs on one long-lived ``MatrixService``."""

    name: str
    why: str
    pretouch_mb: int
    tenants: tuple[str, ...] = ("ana", "bob")
    #: Smaller than the hot set plus the cold tail, so the cache evicts.
    plan_cache_entries: int = 16
    #: The first ``hot_entries`` pool entries run every other job.
    hot_entries: int = 6

    def build(self, seed: int, smoke: bool) -> list[tuple[str, object, dict]]:
        """``(label, program, inputs)`` per pool entry, hot entries first."""
        from repro.programs.registry import build_workload

        entries = []
        for app, base, field, variants in SERVE_POOL:
            for variant in variants:
                built = build_workload(app, _params({**base, field: variant}, seed, smoke))
                entries.append((f"{app}[{field}={variant}]", built.program, built.inputs))
        hot = list(range(0, len(entries), len(SERVE_POOL[0][3])))[: self.hot_entries]
        cold = [index for index in range(len(entries)) if index not in hot]
        return [entries[index] for index in hot + cold]


#: serve_mix pool: 9 registry apps x 4 structural variants.  The variant
#: field changes the compiled program (loop count, rank, tolerance or
#: shape), so every entry has its own plan-cache fingerprint.  The hot
#: set is the first variant of the first six apps.
_SMALL = dict(rows=2000, features=80)
SERVE_POOL: tuple[tuple[str, dict, str, tuple], ...] = (
    ("linreg", _SMALL, "iterations", (2, 3, 4, 5)),
    ("logreg", _SMALL, "iterations", (2, 3, 4, 5)),
    ("ridge", _SMALL, "iterations", (2, 3, 4, 5)),
    ("jacobi", dict(rows=600), "iterations", (2, 3, 4, 5)),
    ("svd", dict(scale=3e-3), "rank", (2, 3, 4, 5)),
    ("gnmf", dict(scale=3e-3, factors=16), "iterations", (1, 2, 3, 4)),
    ("cf", {}, "scale", (3e-3, 2.5e-3, 2e-3, 1.5e-3)),
    ("powiter", dict(rows=600), "eps", (1e-3, 5e-4, 2.5e-4, 1.25e-4)),
    ("pagerank", dict(scale=1e-3), "iterations", (2, 4, 6, 8)),
)

WORKLOADS = {
    w.name: w
    for w in (
        BatchWorkload(
            name="gnmf_kernels",
            why=(
                "Compute-bound: sparse x dense and dense x dense block products plus "
                "fused cellwise chains; kernel changes show here, plan/load changes do not."
            ),
            app="gnmf",
            params=dict(scale=2e-2, factors=64, iterations=3),
            flags=dict(optimize=True),
            pretouch_mb=384,
        ),
        BatchWorkload(
            name="pagerank_sparse",
            why=(
                "System boundary: dense input generation and dense->CSC block cutting "
                "dwarf the sparse mat-vecs; the workload for a sparse-native boundary."
            ),
            app="pagerank",
            params=dict(graph="soc-pokec", scale=3e-3, iterations=10),
            flags=dict(optimize=False),
            pretouch_mb=656,
        ),
        BatchWorkload(
            name="svd_optimize",
            why=(
                "Control-plane-bound: tiny data, long plan, the full static stack "
                "(planner, validated planopt, lint, verify); kernels must not move it."
            ),
            app="svd",
            params=dict(scale=3e-3, rank=5),
            flags=dict(optimize=True, lint="error", verify="error"),
            pretouch_mb=64,
        ),
        ServeWorkload(
            name="serve_mix",
            why=(
                "Many ~20 ms jobs on long-lived sessions: per-stage runtime overhead and "
                "the service path (fingerprint, plan-cache hit vs miss, admission)."
            ),
            pretouch_mb=304,
        ),
    )
}
