"""GNMF on a Netflix-shaped ratings matrix: the paper's Figure 6 workload.

Factorises V ~= W @ H with multiplicative updates and compares DMac against
the SystemML-S baseline iteration by iteration.

Run with:  python examples/gnmf_netflix.py [scale]
"""

import sys

import numpy as np

from repro import ClusterConfig, DMacSession
from repro.datasets import netflix_like
from repro.programs import build_gnmf_program


def main(scale: float = 4e-3) -> None:
    # A CoordinateMatrix: the ratings as (user, movie, rating) triples.
    ratings = netflix_like(scale=scale, seed=1)
    density = np.count_nonzero(ratings) / ratings.size
    print(f"ratings matrix: {ratings.shape[0]} users x {ratings.shape[1]} movies, "
          f"{np.count_nonzero(ratings)} ratings (density {density:.4f})")

    config = ClusterConfig(num_workers=4, threads_per_worker=4)
    print(f"{'iters':>5}  {'DMac comm':>12}  {'SystemML-S comm':>16}  {'ratio':>6}")
    for iterations in (1, 2, 4, 8):
        program = build_gnmf_program(
            ratings.shape, density, factors=16, iterations=iterations
        )
        dmac = DMacSession(config).run(program, {"V": ratings})
        systemml = DMacSession(config).run_systemml(program, {"V": ratings})
        ratio = systemml.comm_bytes / max(dmac.comm_bytes, 1)
        print(f"{iterations:>5}  {dmac.comm_bytes / 1e6:>10.2f} MB  "
              f"{systemml.comm_bytes / 1e6:>14.2f} MB  {ratio:>5.1f}x")

    # Factorisation quality (both systems produce identical factors).
    program = build_gnmf_program(ratings.shape, density, factors=16, iterations=8)
    result = DMacSession(config).run(program, {"V": ratings})
    w = result.matrices[program.bindings["W"]]
    h = result.matrices[program.bindings["H"]]
    # GNMF fits the zero-filled matrix, so measure the overall reconstruction
    # against the dense V.
    dense = np.asarray(ratings)
    start = np.linalg.norm(dense)
    residual = np.linalg.norm(dense - w @ h)
    print(f"\nreconstruction ||V - WH|| / ||V|| after 8 iterations: "
          f"{residual / start:.3f}")


if __name__ == "__main__":
    main(float(sys.argv[1]) if len(sys.argv) > 1 else 4e-3)
