"""Linear regression by conjugate gradient (the paper's Code 4), checked
against the closed-form normal-equations solution.

Also demonstrates driver-side scalars: the CG step sizes alpha/beta are
computed from distributed aggregates each iteration.

Run with:  python examples/linreg_cg.py
"""

import numpy as np

from repro import ClusterConfig, DMacSession
from repro.datasets import sparse_random
from repro.programs import build_linreg_program


def main() -> None:
    examples, features = 3000, 60
    design = sparse_random(examples, features, 0.1, seed=6)
    true_w = np.random.default_rng(0).normal(size=(features, 1))
    noise = np.random.default_rng(1).normal(scale=0.01, size=(examples, 1))
    target = design @ true_w + noise

    ridge = 1e-6
    program = build_linreg_program(
        (examples, features), 0.1, iterations=features + 10, ridge=ridge
    )
    with DMacSession(ClusterConfig(num_workers=4, threads_per_worker=4)) as session:
        result = session.run(program, {"V": design, "y": target})

    w_cg = result.matrices[program.bindings["w"]]
    w_exact = np.linalg.solve(
        design.T @ design + ridge * np.eye(features), design.T @ target
    )
    print(f"CG vs normal equations: max |diff| = {np.abs(w_cg - w_exact).max():.2e}")
    print(f"recovered vs true weights: corr = "
          f"{np.corrcoef(w_cg.ravel(), true_w.ravel())[0, 1]:.4f}")
    print(f"final squared residual (driver scalar): "
          f"{result.scalars[program.scalar_outputs[0]]:.3e}")
    print(f"communication for the whole solve: {result.comm_bytes / 1024:.1f} KB "
          f"-- V was partitioned once and never moved again")


if __name__ == "__main__":
    main()
