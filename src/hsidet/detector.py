"""Per-pixel scoring: residual maps, min-max score normalization, and
weighted fusion of target- and background-dictionary scores.

The residual of a pixel against the target dictionary and against its
per-pixel hierarchical background dictionary are min-max normalized over
the image and combined as S = (1 - gamma) * S_t + gamma * S_b.  The raw
min-max forms give LOW values to well-reconstructed pixels on both sides;
the default orientation flips the target-side score so that target pixels
receive high fused scores (see ``config.ORIENTATIONS``).
"""

from __future__ import annotations

from concurrent.futures import ThreadPoolExecutor
from typing import Callable

import numpy as np

from .config import DetectorConfig
from .cube import Dictionary, HsiCube, ScoreMap
from .dictlearn import learn_global_dictionaries, learn_target_dictionary
from .hierdict import build_hierarchical, local_background
from .sparse import SolverParams, residual_norm, sparse_code

BgProvider = Callable[[int, int], Dictionary]


def _pixel_residual(x: np.ndarray, D: Dictionary, params: SolverParams) -> float:
    return residual_norm(x, D, sparse_code(x, D, params))


def _score_pixels(
    cube: HsiCube,
    score: Callable[[np.ndarray, int, int], object],
    n_maps: int,
    threads: int,
) -> np.ndarray:
    """Maps of shape (n_maps, height, width) holding ``score(spec, x, y)``,
    which gives ``n_maps`` floats, for every pixel.

    ``threads`` distributes rows over a thread pool; each pixel writes its
    own cells, so the result does not depend on the worker count.
    """
    out = np.empty((n_maps, cube.height, cube.width))

    def do_row(y: int) -> None:
        for x in range(cube.width):
            out[:, y, x] = score(cube.data[:, y, x], x, y)

    if threads <= 1:
        for y in range(cube.height):
            do_row(y)
    else:
        with ThreadPoolExecutor(max_workers=threads) as pool:
            list(pool.map(do_row, range(cube.height)))
    return out


def residual_maps(
    cube: HsiCube,
    D_t: Dictionary,
    bg_provider: BgProvider,
    params: SolverParams,
    threads: int = 1,
) -> tuple[ScoreMap, ScoreMap]:
    """Residual of every pixel coded against the target dictionary alone and
    against its per-pixel hierarchical background dictionary.

    ``threads`` distributes rows over a thread pool without changing the
    result.
    """
    if D_t.bands != cube.bands:
        raise ValueError("target dictionary bands do not match cube")

    def score(spec: np.ndarray, x: int, y: int) -> tuple[float, float]:
        return (_pixel_residual(spec, D_t, params),
                _pixel_residual(spec, bg_provider(x, y), params))

    r_t, r_b = _score_pixels(cube, score, 2, threads)
    return ScoreMap(r_t), ScoreMap(r_b)


def _minmax(values: np.ndarray) -> np.ndarray:
    lo, hi = values.min(), values.max()
    if hi == lo:
        return np.full_like(values, 0.5)  # flat map: ranking-neutral constant
    return (values - lo) / (hi - lo)


def normalize_scores(r_t: ScoreMap, r_b: ScoreMap) -> tuple[ScoreMap, ScoreMap]:
    """Min-max normalization of the two residual maps.

    S_t = (r_t - min) / (max - min); S_b = (max - r_b) / (max - min).  Both
    are in [0, 1]; a degenerate flat map normalizes to constant 0.5.
    """
    if (r_t.height, r_t.width) != (r_b.height, r_b.width):
        raise ValueError("residual maps have mismatched shapes")
    s_t = _minmax(r_t.values)
    s_b = 1.0 - _minmax(r_b.values)  # degenerate 0.5 is preserved by the flip
    return ScoreMap(s_t), ScoreMap(s_b)


def orient_scores(
    S_t: ScoreMap, S_b: ScoreMap, orientation: str
) -> tuple[ScoreMap, ScoreMap]:
    """Apply the configured score orientation before fusion."""
    if orientation == "literal":
        return S_t, S_b
    if orientation == "flip_target":
        return ScoreMap(1.0 - S_t.values), S_b
    if orientation == "flip_both":
        return ScoreMap(1.0 - S_t.values), ScoreMap(1.0 - S_b.values)
    raise ValueError(f"unknown orientation {orientation!r}")


def fuse_scores(S_t: ScoreMap, S_b: ScoreMap, gamma: float) -> ScoreMap:
    """Pointwise convex combination (1 - gamma) * S_t + gamma * S_b."""
    if (S_t.height, S_t.width) != (S_b.height, S_b.width):
        raise ValueError("score maps have mismatched shapes")
    if not 0.0 <= gamma <= 1.0:
        raise ValueError("gamma must lie in [0, 1]")
    if gamma == 0.0:
        return ScoreMap(S_t.values.copy())
    if gamma == 1.0:
        return ScoreMap(S_b.values.copy())
    return ScoreMap((1.0 - gamma) * S_t.values + gamma * S_b.values)


def hierarchical_residuals(
    cube: HsiCube,
    d: np.ndarray,
    config: DetectorConfig,
) -> tuple[ScoreMap, ScoreMap]:
    """Run the pipeline up to the residual maps: pre-detection, global
    dictionary learning, and per-pixel hierarchical coding."""
    D_t, D_b_global = learn_global_dictionaries(cube, d, config)
    params = SolverParams(lam=config.lam, max_nonzeros=config.k)

    def bg_provider(x: int, y: int) -> Dictionary:
        local = local_background(cube, x, y, config.window)
        return build_hierarchical(D_b_global, local)

    return residual_maps(cube, D_t, bg_provider, params, threads=config.threads)


def _fused_detect(cube, d, config: DetectorConfig, gamma: float) -> ScoreMap:
    r_t, r_b = hierarchical_residuals(cube, d, config)
    S_t, S_b = normalize_scores(r_t, r_b)
    S_t, S_b = orient_scores(S_t, S_b, config.orientation)
    return fuse_scores(S_t, S_b, gamma)


def wshr_detect(cube: HsiCube, d: np.ndarray, config: DetectorConfig) -> ScoreMap:
    """Full weighted hierarchical sparse-representation detector."""
    return _fused_detect(cube, d, config, config.gamma)


def shr_detect(cube: HsiCube, d: np.ndarray, config: DetectorConfig) -> ScoreMap:
    """Unweighted ablation: identical pipeline fused with gamma = 0.5."""
    return _fused_detect(cube, d, config, 0.5)


def std_detect(cube: HsiCube, d: np.ndarray, config: DetectorConfig) -> ScoreMap:
    """Sparse-representation baseline: each pixel is coded jointly against
    [target atoms, local window atoms] and scored by the difference of
    class-wise residuals r_b - r_t of the joint code.  Only the target
    dictionary is learned: the joint dictionary has no global background
    part."""
    D_t = learn_target_dictionary(cube, d, config)
    params = SolverParams(lam=config.lam, max_nonzeros=config.k)
    n_t = D_t.n_atoms

    def score(spec: np.ndarray, x: int, y: int) -> float:
        local = local_background(cube, x, y, config.window)
        joint = Dictionary(np.hstack([D_t.columns, local.columns]))
        dense = sparse_code(spec, joint, params).dense()
        rec_t = D_t.columns @ dense[:n_t]
        rec_b = local.columns @ dense[n_t:]
        return float(np.linalg.norm(spec - rec_b) - np.linalg.norm(spec - rec_t))

    return ScoreMap(_score_pixels(cube, score, 1, config.threads)[0])
