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

from functools import cached_property
from typing import Callable

import numpy as np

from . import predetect
from .config import DetectorConfig
from .cube import Dictionary, HsiCube, ScoreMap
from .dictlearn import DictionaryFit, learn_global_dictionaries
from .hierdict import build_hierarchical, local_background
from .sparse import SolverParams, residual_norm, sparse_code

BgProvider = Callable[[int, int], Dictionary]


def _pixel_residual(x: np.ndarray, D: Dictionary, params: SolverParams) -> float:
    return residual_norm(x, D, sparse_code(x, D, params))


def _score_pixels(
    cube: HsiCube,
    score: Callable[[np.ndarray, int, int], object],
    n_maps: int,
) -> np.ndarray:
    """Maps of shape (n_maps, height, width) holding ``score(spec, x, y)``,
    which gives ``n_maps`` floats, for every pixel."""
    out = np.empty((n_maps, cube.height, cube.width))
    for y in range(cube.height):
        for x in range(cube.width):
            out[:, y, x] = score(cube.data[:, y, x], x, y)
    return out


def residual_maps(
    cube: HsiCube,
    D_t: Dictionary,
    bg_provider: BgProvider,
    params: SolverParams,
) -> tuple[ScoreMap, ScoreMap]:
    """Residual of every pixel coded against the target dictionary alone and
    against its per-pixel hierarchical background dictionary."""
    if D_t.bands != cube.bands:
        raise ValueError("target dictionary bands do not match cube")

    def score(spec: np.ndarray, x: int, y: int) -> tuple[float, float]:
        return (_pixel_residual(spec, D_t, params),
                _pixel_residual(spec, bg_provider(x, y), params))

    r_t, r_b = _score_pixels(cube, score, 2)
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


class Fit(DictionaryFit):
    """One cube's pipeline: the stages of ``DictionaryFit``, then the target
    and hierarchical-background residual maps, each computed at most once."""

    @cached_property
    def residuals(self) -> tuple[ScoreMap, ScoreMap]:
        cube, D_t, D_b_global, config = self.cube, self.D_t, self.D_b, self.config

        def bg_provider(x: int, y: int) -> Dictionary:
            local = local_background(cube, x, y, config.window)
            return build_hierarchical(D_b_global, local)

        params = SolverParams(lam=config.lam, max_nonzeros=config.k)
        return residual_maps(cube, D_t, bg_provider, params)


def hierarchical_residuals(
    cube: HsiCube,
    d: np.ndarray,
    config: DetectorConfig,
) -> tuple[ScoreMap, ScoreMap]:
    """Run the pipeline up to the residual maps: ``learn_global_dictionaries``
    (pre-detection, both dictionaries), then ``Fit.residuals``."""
    fit = Fit(cube, d, config)
    fit.D_t, fit.D_b = learn_global_dictionaries(cube, d, config)
    return fit.residuals


def _fuse(residuals, config: DetectorConfig, gamma: float) -> ScoreMap:
    S_t, S_b = normalize_scores(*residuals)
    S_t, S_b = orient_scores(S_t, S_b, config.orientation)
    return fuse_scores(S_t, S_b, gamma)


def wshr_detect(cube: HsiCube, d: np.ndarray, config: DetectorConfig) -> ScoreMap:
    """Full weighted hierarchical sparse-representation detector."""
    return _fuse(hierarchical_residuals(cube, d, config), config, config.gamma)


def shr_detect(cube: HsiCube, d: np.ndarray, config: DetectorConfig) -> ScoreMap:
    """Unweighted ablation: identical pipeline fused with gamma = 0.5."""
    return _fuse(hierarchical_residuals(cube, d, config), config, 0.5)


def _std(fit: Fit) -> ScoreMap:
    cube, D_t, config = fit.cube, fit.D_t, fit.config
    params = SolverParams(lam=config.lam, max_nonzeros=config.k)
    n_t = D_t.n_atoms

    def score(spec: np.ndarray, x: int, y: int) -> float:
        local = local_background(cube, x, y, config.window)
        joint = Dictionary(np.hstack([D_t.columns, local.columns]))
        dense = sparse_code(spec, joint, params).dense()
        rec_t = D_t.columns @ dense[:n_t]
        rec_b = local.columns @ dense[n_t:]
        return float(np.linalg.norm(spec - rec_b) - np.linalg.norm(spec - rec_t))

    return ScoreMap(_score_pixels(cube, score, 1)[0])


def std_detect(cube: HsiCube, d: np.ndarray, config: DetectorConfig) -> ScoreMap:
    """Sparse-representation baseline: each pixel is coded jointly against
    [target atoms, local window atoms] and scored by the difference of
    class-wise residuals r_b - r_t of the joint code.  Only the target
    dictionary is learned: the joint dictionary has no global background
    part."""
    return _std(Fit(cube, d, config))


METHODS: dict[str, Callable[[Fit], ScoreMap]] = {
    "cem": lambda fit: fit.cem,
    "ace": lambda fit: predetect.ace_detect(fit.cube, fit.d),
    "std": _std,
    "shr": lambda fit: _fuse(fit.residuals, fit.config, 0.5),
    "wshr": lambda fit: _fuse(fit.residuals, fit.config, fit.config.gamma),
}


def detect(cube: HsiCube, d: np.ndarray, config: DetectorConfig,
           methods: list[str]) -> dict[str, ScoreMap]:
    """Score maps of the named ``METHODS``, in the order given, all from one
    ``Fit``: CEM runs once and each dictionary is learned at most once."""
    fit = Fit(cube, d, config)
    return {m: METHODS[m](fit) for m in methods}
