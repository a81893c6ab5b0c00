"""Power iteration with a data-dependent convergence loop (frontend demo).

The first program in the repo whose iteration count is decided *at run
time*: the ``while`` loop below compiles to a
:class:`~repro.frontend.staged.StagedProgram` -- prologue plus a loop body
compiled once -- and :meth:`repro.session.DMacSession.run` keeps
appending body segments, each one a fully planned/linted/verified plan,
until the residual ``||A x - lambda x||`` drops below ``eps``.

The carried matrices show both dependency kinds the staging machinery
supports: ``y`` is loop-carried (each segment reads the previous
segment's iterate) while ``A`` is loop-invariant (every segment re-reads
the runtime input).
"""

from __future__ import annotations

import numpy as np

from repro.errors import ProgramError
from repro.frontend import Matrix, Scalar, StagedProgram, matrix_input, matrix_program
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


def build_power_iteration_program(n: int, eps: float = 1e-4) -> StagedProgram:
    """Compile the convergence-loop power iteration for an ``n x n`` input.

    Args:
        n: matrix dimension.
        eps: stop once ``||A x - lambda x||_2 < eps``.
    """
    if n < 1:
        raise ProgramError(f"matrix dimension must be >= 1, got {n}")
    if eps <= 0:
        raise ProgramError(f"eps must be positive, got {eps}")
    staged = power_iteration.compile(A=matrix_input((n, n)), eps=eps)
    assert isinstance(staged, StagedProgram)
    return staged


def dominant_eigen_dataset(n: int, seed: int = 0, gap: float = 3.0) -> np.ndarray:
    """A symmetric ``n x n`` matrix with a planted dominant eigenpair.

    ``gap`` scales the planted eigenvalue against the ~0.05-magnitude
    symmetric noise floor, so power iteration converges in a handful of
    segments -- small enough for tests, large enough to need more than one.
    """
    rng = np.random.default_rng(seed)
    u = rng.standard_normal((n, 1))
    u /= np.linalg.norm(u)
    noise = rng.standard_normal((n, n)) * 0.05
    return gap * (u @ u.T) + (noise + noise.T) / 2.0
