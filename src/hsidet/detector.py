"""One cube's pipeline and its per-pixel scoring: CEM pre-detection, the
training sets it selects, the learned target and global background
dictionaries, residual maps, min-max score normalization, and weighted
fusion of target- and background-dictionary scores.

The residual of a pixel against the target dictionary and against its
per-pixel hierarchical background dictionary are min-max normalized over
the image and combined as S = (1 - gamma) * S_t + gamma * S_b.  The raw
min-max forms give LOW values to well-reconstructed pixels on both sides;
``DetectorConfig.orientation`` flips both before fusion so that target
pixels receive high fused scores.
"""

from __future__ import annotations

from functools import cached_property
from typing import Callable

import numpy as np

from . import dictlearn, predetect
from .config import DetectorConfig
from .cube import Dictionary, HsiCube, ScoreMap
from .hierdict import WindowSpec, check_rings, window_rings
from .sparse import SolverParams, _is_atom, _row_dots, block_residuals, code_block


_TILE = 16  # side of the square image tiles whose pixels share one pool


def _ring_codes(cube: HsiCube, shared: Dictionary, window: WindowSpec | None,
                params: SolverParams):
    """Code every pixel against its own dictionary: the ``shared`` atoms,
    then its unit-norm dual-window ring (``hierdict.window_rings``), or no
    ring when ``window`` is None.

    Yields blocks of pixels as (row-major pixel indices, spectra, pool
    array, the pixels' code block in pool columns from
    ``sparse.code_block``).  With no window every pixel is one block against
    the shared atoms.  Otherwise each ``_TILE`` x ``_TILE`` tile, cut short
    at the right and bottom edges, is a block whose pool is [shared | atoms
    of the tile's rectangle widened by ``outer // 2`` and clamped], in
    row-major order.  A ring that holds no atom raises ``ValueError`` naming
    the first such pixel in row-major order, before any pixel is coded.
    """
    if shared.n_atoms == 0 and window is None:
        raise ValueError("both background dictionaries are empty")
    if shared.n_atoms:
        if shared.bands != cube.bands:
            raise ValueError(f"band mismatch: shared {shared.bands} vs cube {cube.bands}")
        if np.max(np.abs(np.linalg.norm(shared.columns, axis=0) - 1.0)) > 1e-9:
            raise ValueError("shared dictionary is not unit-norm")
    pixels = cube.pixels()
    if window is None:
        yield slice(None), pixels, shared.columns, code_block(pixels, shared.columns, params)
        return
    index = np.arange(cube.n_pixels).reshape(cube.height, cube.width)
    check_rings(_is_atom(_row_dots(pixels)).reshape(index.shape), window)
    for y in range(0, cube.height, _TILE):
        for x in range(0, cube.width, _TILE):
            tile = index[y:y + _TILE, x:x + _TILE]
            unit, ring, kept = window_rings(cube, range(y, y + tile.shape[0]),
                                            range(x, x + tile.shape[1]), window)
            pool = np.hstack([shared.columns, unit])
            masks = np.hstack([np.ones((tile.size, shared.n_atoms), dtype=bool), ring[:, kept]])
            pixel = tile.ravel()
            X = pixels[pixel]  # the tile's spectra, gathered into a C-contiguous stack
            yield pixel, X, pool, code_block(X, pool, params, masks)


def residual_maps(cube: HsiCube, D_t: Dictionary, D_b_global: Dictionary,
                  window: WindowSpec | None, params: SolverParams) -> tuple[ScoreMap, ScoreMap]:
    """Residual of every pixel coded against the target dictionary alone and
    against its hierarchical background dictionary [D_b_global | its
    dual-window ring].  ``window=None`` codes against D_b_global alone, an
    empty D_b_global against the ring alone."""
    if D_t.bands != cube.bands:
        raise ValueError("target dictionary bands do not match cube")
    # Every pixel shares D_t, so its codes are stacked.
    pixels = cube.pixels()
    r_t = block_residuals(pixels, D_t.columns, *code_block(pixels, D_t.columns, params))
    r_b = np.empty_like(r_t)
    for pixel, X, pool, block in _ring_codes(cube, D_b_global, window, params):
        r_b[pixel] = block_residuals(X, pool, *block)
    shape = (cube.height, cube.width)
    return ScoreMap(r_t.reshape(shape)), ScoreMap(r_b.reshape(shape))


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
    """Flip both normalized scores before fusion: ``"flip_both"``, the one
    orientation (``DetectorConfig.orientation``)."""
    if orientation != "flip_both":
        raise ValueError(f"unknown orientation {orientation!r}")
    return ScoreMap(1.0 - S_t.values), ScoreMap(1.0 - S_b.values)


def fuse_scores(S_t: ScoreMap, S_b: ScoreMap, gamma: float) -> ScoreMap:
    """Pointwise convex combination (1 - gamma) * S_t + gamma * S_b, which
    is S_t at gamma = 0 and S_b at gamma = 1 exactly."""
    if (S_t.height, S_t.width) != (S_b.height, S_b.width):
        raise ValueError("score maps have mismatched shapes")
    if not 0.0 <= gamma <= 1.0:
        raise ValueError("gamma must lie in [0, 1]")
    return ScoreMap((1.0 - gamma) * S_t.values + gamma * S_b.values)


class Fit:
    """One cube's pipeline, each stage run on first use and kept: the CEM
    map, the training sets it selects, the target dictionary ``D_t``, the
    global background dictionary ``D_b`` (never learned if unread), and the
    target and hierarchical-background residual maps.

    Stages reach ``predetect`` and ``dictlearn`` through module attributes
    looked up at call time, so a patched or traced function sees every
    call."""

    def __init__(self, cube: HsiCube, d: np.ndarray, config: DetectorConfig):
        self.cube, self.d, self.config = cube, d, config
        self.params = SolverParams(lam=config.lam, max_nonzeros=config.k)

    @cached_property
    def cem(self) -> ScoreMap:
        return predetect.cem_detect(self.cube, self.d)

    @cached_property
    def training_sets(self) -> tuple[np.ndarray, np.ndarray]:
        c = self.config
        return predetect.select_training_sets(self.cem, self.cube, c.n_target_train,
                                              c.bg_fraction)

    @cached_property
    def D_t(self) -> Dictionary:
        return self._learn(self.training_sets[0], self.config.n_target_atoms, self.config.seed)

    @cached_property
    def D_b(self) -> Dictionary:
        return self._learn(self.training_sets[1], self.config.n_bg_atoms, self.config.seed + 1)

    def _learn(self, samples: np.ndarray, n_atoms: int, seed: int) -> Dictionary:
        c = self.config
        return dictlearn.odl_learn(samples, dictlearn.OdlParams(
            n_atoms=n_atoms, lam=c.lam, epochs=c.odl_epochs, sparsity=c.k, seed=seed))

    @cached_property
    def residuals(self) -> tuple[ScoreMap, ScoreMap]:
        return residual_maps(self.cube, self.D_t, self.D_b, self.config.window, self.params)


def hierarchical_residuals(cube: HsiCube, d: np.ndarray,
                           config: DetectorConfig) -> tuple[ScoreMap, ScoreMap]:
    """Run the pipeline up to the target and background residual maps."""
    return Fit(cube, d, config).residuals


def _fuse(residuals, config: DetectorConfig, gamma: float) -> ScoreMap:
    S_t, S_b = normalize_scores(*residuals)
    S_t, S_b = orient_scores(S_t, S_b, config.orientation)
    return fuse_scores(S_t, S_b, gamma)


def wshr_detect(cube: HsiCube, d: np.ndarray, config: DetectorConfig) -> ScoreMap:
    """Full weighted hierarchical sparse-representation detector."""
    return _fuse(hierarchical_residuals(cube, d, config), config, config.gamma)


def _std(fit: Fit) -> ScoreMap:
    n_t = fit.D_t.n_atoms
    scores = np.empty(fit.cube.height * fit.cube.width)
    for pixel, X, pool, (support, coef) in _ring_codes(fit.cube, fit.D_t, fit.config.window,
                                                        fit.params):
        # Class-wise residuals of the joint code: each keeps its own atoms'
        # coefficients and zeroes the other class's.
        target = support < n_t
        r_t = block_residuals(X, pool, support, np.where(target, coef, 0.0))
        r_b = block_residuals(X, pool, support, np.where(target, 0.0, coef))
        scores[pixel] = r_b - r_t
    return ScoreMap(scores.reshape(fit.cube.height, fit.cube.width))


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


def check_methods(methods: list[str]) -> None:
    """Reject an empty list, an unknown ``METHODS`` name or a repeated one
    by ``ValueError``."""
    if not methods:
        raise ValueError(f"no method given (choose from {','.join(METHODS)})")
    for i, m in enumerate(methods):
        if m not in METHODS:
            raise ValueError(f"unknown method {m!r} (choose from {','.join(METHODS)})")
        if m in methods[:i]:
            raise ValueError(f"method {m!r} is listed more than once")


def detect(cube: HsiCube, d: np.ndarray, config: DetectorConfig,
           methods: list[str]) -> dict[str, ScoreMap]:
    """Score maps of the named ``METHODS``, in the order given, all from one
    ``Fit``: CEM runs once and each dictionary is learned at most once.  The
    list is checked first (``check_methods``)."""
    check_methods(methods)
    fit = Fit(cube, d, config)
    return {m: METHODS[m](fit) for m in methods}
