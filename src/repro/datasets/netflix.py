"""Netflix-like ratings matrix (the paper's GNMF / CF / SVD dataset).

The Netflix prize data -- 480,189 users x 17,770 movies, ~100M ratings in
{1..5}, i.e. sparsity ~0.012 -- is proprietary; the substitution generates
a ratings matrix with the same aspect ratio and sparsity at a configurable
scale.  Planner decisions (and therefore every communication result) depend
only on dimensions and sparsity, which are preserved.

The matrix is drawn as what it is, a list of ratings: a
:class:`~repro.blocks.coordinate.CoordinateMatrix`, whose memory and time
follow the ratings, not the cells (1.2 % of them).  It enters the system
through the coordinate cut and is never held as users x movies floats on
the way in; ``np.asarray`` gives the dense matrix where one is needed.
"""

from __future__ import annotations

import numpy as np

from repro.blocks.coordinate import CoordinateMatrix
from repro.errors import ReproError

#: Netflix prize dimensions.
NETFLIX_USERS = 480_189
NETFLIX_MOVIES = 17_770
NETFLIX_SPARSITY = 0.0117  # ~100.5M ratings / (480189 * 17770)


def netflix_like(
    scale: float = 1e-2,
    sparsity: float = NETFLIX_SPARSITY,
    seed: int = 0,
    ensure_coverage: bool = True,
) -> CoordinateMatrix:
    """A users x movies ratings matrix with Netflix's shape statistics.

    Ratings are integers in {1..5}; an absent entry means "not rated".
    With ``ensure_coverage`` every row and column gets at least one rating
    -- a property the real dataset has (every user rated and every movie
    was rated) and one GNMF's multiplicative updates rely on: an all-zero
    row or column drives a factor row to 0/0.

    The matrix of a seed is pinned by its call sequence on the generator:
    the rated cells (one draw without replacement over all cells), their
    ratings, then one (rating, column) pair per unrated user in user order,
    then one (rating, row) pair per still unrated movie in movie order.  A
    coverage rating lands in an empty row or column, so no cell is drawn
    twice.
    """
    if not 0 < scale <= 1:
        raise ReproError(f"scale must lie in (0, 1], got {scale}")
    rows = max(8, int(NETFLIX_USERS * scale))
    cols = max(8, int(NETFLIX_MOVIES * scale))
    rng = np.random.default_rng(seed)
    nnz = int(round(rows * cols * sparsity))
    user = movie = np.empty(0, dtype=np.int64)
    rating = np.empty(0, dtype=np.float64)
    if nnz:
        user, movie = np.divmod(rng.choice(rows * cols, size=nnz, replace=False), cols)
        rating = rng.integers(1, 6, size=nnz).astype(np.float64)
    if ensure_coverage:
        # A fill draws its rating before its cell: the order in which the
        # dense ``out[row, rng.integers(cols)] = float(rng.integers(1, 6))``
        # drew them (Python evaluates an assignment's right side first).
        draw = rng.integers
        fill_user, fill_movie, fill_rating = [], [], []
        for row in np.flatnonzero(np.bincount(user, minlength=rows) == 0).tolist():
            fill_rating.append(draw(1, 6))
            fill_user.append(row)
            fill_movie.append(draw(cols))
        rated = np.bincount(movie, minlength=cols)
        rated[fill_movie] += 1
        for col in np.flatnonzero(rated == 0).tolist():
            fill_rating.append(draw(1, 6))
            fill_user.append(draw(rows))
            fill_movie.append(col)
        user = np.concatenate([user, np.array(fill_user, dtype=np.int64)])
        movie = np.concatenate([movie, np.array(fill_movie, dtype=np.int64)])
        rating = np.concatenate([rating, np.array(fill_rating, dtype=np.float64)])
    # The cells are distinct, so an unstable sort already yields the
    # constructor's column-major order and it finds nothing left to sort.
    order = np.argsort(movie * rows + user)
    return CoordinateMatrix(user[order], movie[order], rating[order], (rows, cols))
