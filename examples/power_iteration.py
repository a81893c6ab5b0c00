"""Power iteration written as plain Python, compiled by the ast frontend.

The ``@matrix_program`` decorator lowers the typed function body into the
same ``MatrixProgram`` IR the hand-written builders produce -- but here the
``while`` loop survives compilation as a *staged* program: the loop body is
planned exactly once, and the session extends the run segment by segment
until the convergence scalar crosses ``eps``.

Run with:  python examples/power_iteration.py
"""

import numpy as np

from repro import ClusterConfig, DMacSession
from repro.frontend import Matrix, Scalar, matrix_input, matrix_program
from repro.frontend.dsl import full, norm2, output, output_scalar, value


@matrix_program(max_segments=500)
def power_iteration(A: Matrix, eps: Scalar):
    x = full(A.rows, 1, 1.0 / A.rows)
    y = A @ x
    lam = value(x.T @ y)
    while norm2(y - x * lam) > eps:
        nrm = norm2(y)
        x = y / nrm
        y = A @ x
        lam = value(x.T @ y)
    output(x)
    output_scalar(lam)


def main() -> None:
    n = 400
    rng = np.random.default_rng(17)
    direction = rng.standard_normal((n, 1))
    direction /= np.linalg.norm(direction)
    noise = rng.standard_normal((n, n)) * 0.05
    data = 3.0 * (direction @ direction.T) + (noise + noise.T) / 2.0

    # Compile once: the while loop becomes prologue + body segments.
    staged = power_iteration.compile(A=matrix_input((n, n)), eps=1e-9)
    print(f"compiled staged program: {staged.describe()}")

    with DMacSession(
        ClusterConfig(num_workers=4, threads_per_worker=4),
        lint="error", verify="error",
    ) as session:
        result = session.run(staged, {"A": data})

    lam = result.scalars["lam"]
    reference = np.linalg.eigvalsh(data)[-1]
    print(f"converged in {result.num_segments} segments")
    print(f"dominant eigenvalue {lam:.9f} (numpy says {reference:.9f})")
    print(f"residual |Ax - lam x| = "
          f"{np.linalg.norm(data @ result.matrices['x'] - lam * result.matrices['x']):.2e}")
    print(f"communication {result.comm_bytes / 1e3:.1f} KB over "
          f"{result.num_stages} stages; peak memory "
          f"{result.peak_memory_bytes / 1e3:.1f} KB "
          f"(static bound {result.predicted_peak_memory_bytes / 1e3:.1f} KB)")


if __name__ == "__main__":
    main()
