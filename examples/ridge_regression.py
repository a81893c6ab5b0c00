"""Ridge regression by gradient descent, written for the ast frontend.

A fixed-count ``for`` loop unrolls at compile time (the paper's loop
unrolling), so the optimizer sees every iteration's dependencies at once:
``V`` enters the cluster in one scheme and is referenced for free by both
``V @ w`` and ``V.T @ r`` in every unrolled step.

Run with:  python examples/ridge_regression.py
"""

import numpy as np

from repro import ClusterConfig, DMacSession
from repro.frontend import Matrix, Scalar, matrix_input, matrix_program
from repro.frontend.dsl import full, output, output_scalar, sum


@matrix_program
def ridge(V: Matrix, y: Matrix, iterations: int, lam: Scalar, step: Scalar):
    w = full(V.cols, 1, 0.0)
    rate = step / V.rows
    for _ in range(iterations):
        g = V.T @ (V @ w - y) + w * lam
        w = w - g * rate
    r = V @ w - y
    sq_err = sum(r * r)
    output(w)
    output_scalar(sq_err)


def main() -> None:
    rows, features = 900, 40
    rng = np.random.default_rng(23)
    design = rng.standard_normal((rows, features))
    truth = rng.standard_normal((features, 1))
    target = design @ truth + rng.standard_normal((rows, 1)) * 0.1

    lam = 1e-3
    program = ridge.compile(
        V=matrix_input((rows, features)),
        y=matrix_input((rows, 1)),
        iterations=60,
        lam=lam,
        step=0.5,
    )
    print(f"compiled {len(program.ops)} ops from a 9-line Python function")

    with DMacSession(ClusterConfig(num_workers=4, threads_per_worker=4)) as session:
        result = session.run(program, {"V": design, "y": target})

    w = result.matrices[program.bindings["w"]]
    closed_form = np.linalg.solve(
        design.T @ design + lam * np.eye(features), design.T @ target
    )
    gap = np.linalg.norm(w - closed_form) / np.linalg.norm(closed_form)
    print(f"squared error {result.scalars['sq_err']:.4f}; "
          f"{gap:.1%} from the closed-form ridge solution")
    print(f"communication {result.comm_bytes / 1e3:.1f} KB in "
          f"{result.num_stages} stages, "
          f"simulated {result.simulated_seconds * 1e3:.2f} ms")


if __name__ == "__main__":
    main()
