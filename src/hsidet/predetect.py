"""Classical statistical detectors used for pre-ranking and as baselines.

``cem_detect`` implements the constrained-energy-minimization filter
w = R^-1 d / (d^T R^-1 d) with R the (non-centered) sample correlation
matrix over all pixels; the score of a pixel spectrum x is w^T x, so the
target signature itself always scores exactly 1.  ``ace_detect`` is the
adaptive cosine estimator: the squared cosine between x - mu and d - 0 in
background-whitened coordinates.

Both statistics are global: one filter / one covariance for the whole
cube.  CEM's correlation matrix is one GEMM over every pixel; the
correlation (rather than centered covariance) form of CEM is the classical
convention.  ACE makes no cube-sized array: it works through the pixels in
blocks of ``_ACE_ROWS``, centring each block afresh, once to sum the
blocks' covariance products (the first block's product is the start) and
once to whiten and score them.  A cube of one block keeps the bytes of the
whole-cube covariance GEMM; at one BLAS thread the whitening has the bytes
of the whole-cube product whatever the block count.
"""

from __future__ import annotations

import numpy as np

from .cube import HsiCube, ScoreMap
from .sparse import _row_dots

RIDGE_EPSILON = 1e-6       # ridge loading eps * trace/m applied when ill-conditioned
_COND_LIMIT = 1e12
_ACE_ROWS = 4096           # pixels per ACE block; no centred or whitened cube exists


class SingularStatisticsError(np.linalg.LinAlgError):
    """Second-order statistics not invertible even after ridge loading."""


def _regularized(mat: np.ndarray, label: str, shape: tuple) -> np.ndarray:
    """Return ``mat`` with ridge loading added if it is ill-conditioned;
    ``label`` names the statistic and ``shape`` the (pixels, bands) it came
    from, for the error."""
    if np.linalg.cond(mat) <= _COND_LIMIT:
        return mat
    m = mat.shape[0]
    loaded = mat + (RIDGE_EPSILON * np.trace(mat) / m) * np.eye(m)
    cond = np.linalg.cond(loaded)
    if not cond <= 1e15:                        # NaN and inf fail too
        raise SingularStatisticsError(
            f"{label} of (pixels, bands) {shape} is singular even after ridge loading")
    return loaded


def _check_signature(cube: HsiCube, d: np.ndarray) -> np.ndarray:
    d = np.asarray(d, dtype=np.float64)
    if d.shape != (cube.bands,):
        raise ValueError(
            f"signature length {d.shape} does not match cube bands {cube.bands}"
        )
    if np.linalg.norm(d) == 0.0:
        raise ValueError("target signature has zero norm")
    return d


def cem_detect(cube: HsiCube, d: np.ndarray) -> ScoreMap:
    """Constrained energy minimization; score(d) = 1 by construction."""
    d = _check_signature(cube, d)
    X = cube.pixels()   # (N, bands)
    R = _regularized(X.T @ X / X.shape[0], "CEM correlation matrix", X.shape)
    rinv_d = np.linalg.solve(R, d)
    w = rinv_d / float(d @ rinv_d)
    scores = X @ w
    return ScoreMap(scores.reshape(cube.height, cube.width))


def ace_detect(cube: HsiCube, d: np.ndarray) -> ScoreMap:
    """Adaptive cosine estimator; scores lie in [0, 1].

    Pixels equal to the background mean get score 0 (the 0/0 limit is
    resolved as maximally background-like).
    """
    d = _check_signature(cube, d)
    X = cube.pixels()
    n = X.shape[0]
    mu = X.mean(axis=0)
    # _ACE_ROWS pixels a block, the remainder riding with the last block: a
    # block of a few rows (a one-row product is a GEMV) would round
    # differently from the rows of one whole-cube GEMM.  Each pass centres
    # its blocks afresh into one buffer, and the whitened blocks share
    # another, so no centred or whitened cube exists.
    starts = range(0, max(n - _ACE_ROWS + 1, 1), _ACE_ROWS)
    blocks = list(zip(starts, [*starts[1:], n]))
    centred, whitened = np.empty((2, n - starts[-1], X.shape[1]))  # the last block is the tallest
    sigma = None
    for start, stop in blocks:
        Xc = np.subtract(X[start:stop], mu, out=centred[:stop - start])
        if sigma is None:
            sigma = Xc.T @ Xc
        else:
            sigma += Xc.T @ Xc
    sigma = _regularized(sigma / n, "ACE covariance", X.shape)
    # Whiten once with Sigma = L L^T: x^T Sigma^-1 y = (L^-1 x) . (L^-1 y),
    # so every pixel costs one row of a GEMM instead of a solve.
    try:
        l_inv = np.linalg.inv(np.linalg.cholesky(sigma))
    except np.linalg.LinAlgError as exc:
        raise SingularStatisticsError(f"covariance not positive definite: {exc}") from exc
    dw = l_inv @ d
    dd = float(dw @ dw)
    scores = np.zeros(n)
    for start, stop in blocks:
        Xc = np.subtract(X[start:stop], mu, out=centred[:stop - start])
        Y = np.matmul(Xc, l_inv.T, out=whitened[:stop - start])
        num = (Y @ dw) ** 2
        den = dd * _row_dots(Y)                  # a sum of squares: never negative
        np.divide(num, den, out=scores[start:stop], where=den > 0)
    return ScoreMap(scores.reshape(cube.height, cube.width))


def select_training_sets(
    scores: ScoreMap,
    cube: HsiCube,
    n_target: int,
    bg_fraction: float,
) -> tuple[np.ndarray, np.ndarray]:
    """Split pixels into dictionary training sets by pre-detection score.

    Returns (target_samples, background_samples) as (count, bands) arrays:
    the ``n_target`` highest-scoring pixels and the floor(bg_fraction * N)
    lowest-scoring ones.  A single (score, row-major index) ordering is used
    for both picks, so the sets are deterministic and always disjoint even
    when every score is tied.
    """
    if scores.height != cube.height or scores.width != cube.width:
        raise ValueError("score map shape does not match cube")
    if n_target < 1:
        raise ValueError("n_target must be >= 1")
    if not 0.0 < bg_fraction < 1.0:
        raise ValueError("bg_fraction must be in (0, 1)")
    N = cube.n_pixels
    n_bg = int(np.floor(bg_fraction * N))
    if n_bg == 0:
        raise ValueError(f"bg_fraction {bg_fraction} selects no background pixels out of {N}")
    if n_target + n_bg > N:
        raise ValueError(
            f"requested {n_target} target + {n_bg} background samples from {N} pixels"
        )
    flat = scores.values.ravel()
    order = np.lexsort((np.arange(N), flat))    # ascending score, ties by index
    bg_idx = order[:n_bg]
    tgt_idx = order[-n_target:][::-1]           # highest score first
    X = cube.pixels()
    return X[tgt_idx], X[bg_idx]
