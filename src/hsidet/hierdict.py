"""The local part of the per-pixel hierarchical background dictionaries.

Every pixel inside the outer window of a dual concentric sliding window but
outside its inner window contributes its spectrum as one atom.  Windows are
clamped at image borders (no padding), zero-norm pixels (x @ x == 0, an
underflowing one included) are dropped, and every atom is unit-norm.  One
rule (``window_rings``) gathers and normalizes the ring pool of one pixel or
of a whole image tile, that pool alone; one box-sum rule (``check_rings``)
names the first pixel whose ring is empty.  ``detector._ring_codes`` builds
from it the [global atoms | ring] pools, one per 16x16 tile.
"""

from __future__ import annotations

import numbers
from dataclasses import dataclass

import numpy as np

from .cube import Dictionary, HsiCube
from .sparse import _row_dots

NORM_TOLERANCE = 1e-9


@dataclass(frozen=True)
class WindowSpec:
    """Outer/inner window side lengths; both odd, outer > inner >= 1."""

    outer: int = 19
    inner: int = 9

    def __post_init__(self):
        for name in ("outer", "inner"):
            if not isinstance(getattr(self, name), numbers.Integral):
                raise ValueError(f"{name} must be an integer")
        if self.inner < 1:
            raise ValueError("inner window must be >= 1")
        if self.outer <= self.inner:
            raise ValueError("outer window must exceed inner window")
        if self.outer % 2 == 0 or self.inner % 2 == 0:
            raise ValueError("window sides must be odd")


def normalize_atoms(D: Dictionary) -> Dictionary:
    """Divide each column by its Euclidean norm (idempotent); a ``Dictionary``
    has no zero column to divide by."""
    return Dictionary(D.columns / np.linalg.norm(D.columns, axis=0))


def window_rings(pixels: np.ndarray, nonzero: np.ndarray, ys: range, xs: range,
                 w: WindowSpec) -> tuple[np.ndarray, np.ndarray]:
    """The dual-window rings of the pixels of one tile: the image rows ``ys``
    by the columns ``xs``, two ranges of step 1, of the (n_pixels, bands)
    ``pixels`` whose (height, width) nonzero-norm mask is ``nonzero``.

    Returns the pool, the nonzero-norm pixels of the tile's rectangle widened
    by ``outer // 2`` and clamped, in row-major order, gathered and divided
    in place by their own norms into the columns of a (bands, pool) array;
    and a (tile pixels, pool) mask whose row for (x, y), in row-major order,
    is True on its ring: its clamped outer window minus its clamped inner
    window.  A ring may be empty here; ``check_rings`` names such a pixel."""
    height, width = nonzero.shape
    half = w.outer // 2
    rows = np.arange(max(0, ys[0] - half), min(height, ys[-1] + half + 1))
    cols = np.arange(max(0, xs[0] - half), min(width, xs[-1] + half + 1))
    dy = np.abs(rows[None, :] - np.asarray(ys)[:, None])             # (tile row, pool row)
    dx = np.abs(cols[None, :] - np.asarray(xs)[:, None])             # (tile column, pool column)
    inner = (dy <= w.inner // 2)[:, None, :, None] & (dx <= w.inner // 2)[None, :, None, :]
    outer = (dy <= half)[:, None, :, None] & (dx <= half)[None, :, None, :]
    ring = (outer & ~inner).reshape(len(ys) * len(xs), rows.size * cols.size)
    kept = nonzero[rows[0]:rows[-1] + 1, cols[0]:cols[-1] + 1].ravel()
    unit = pixels[(rows[:, None] * width + cols[None, :]).ravel()[kept]]
    unit /= np.linalg.norm(unit, axis=1)[:, None]
    return unit.T, ring[:, kept]


def _window_counts(mask: np.ndarray, ys: range, xs: range, half: int) -> np.ndarray:
    """(len(ys), len(xs)) counts of the True pixels of ``mask`` in the
    clamped square window of side 2 * half + 1 around each pixel (x, y)."""
    height, width = mask.shape
    table = np.zeros((height + 1, width + 1), dtype=np.intp)
    table[1:, 1:] = mask.cumsum(axis=0).cumsum(axis=1)
    ys, xs = np.asarray(ys)[:, None], np.asarray(xs)
    y0, y1 = np.clip(ys - half, 0, height), np.clip(ys + half + 1, 0, height)
    x0, x1 = np.clip(xs - half, 0, width), np.clip(xs + half + 1, 0, width)
    return table[y1, x1] - table[y0, x1] - table[y1, x0] + table[y0, x0]


def check_rings(nonzero: np.ndarray, ys: range, xs: range, w: WindowSpec) -> None:
    """Raise ``ValueError`` naming the first pixel (x, y), y in ``ys`` and x
    in ``xs``, in row-major order, whose ring is empty or holds only
    zero-norm pixels.  A ring's count is its outer window's minus its inner
    window's, both box sums over ``nonzero``."""
    def ring_counts(mask):
        return (_window_counts(mask, ys, xs, w.outer // 2)
                - _window_counts(mask, ys, xs, w.inner // 2))

    bad = ring_counts(nonzero) == 0
    if bad.any():
        i, j = np.unravel_index(int(bad.argmax()), bad.shape)
        x, y = xs[j], ys[i]
        if ring_counts(np.ones_like(nonzero))[i, j] == 0:
            raise ValueError(f"empty local window ring at ({x}, {y})")
        raise ValueError(f"all local window pixels at ({x}, {y}) have zero norm")


def local_background(cube: HsiCube, x: int, y: int, w: WindowSpec) -> Dictionary:
    """Local background atoms for pixel (x, y), a 1x1 tile: the clamped
    outer-minus-inner ring in row-major order, zero-norm pixels dropped,
    columns unit-norm."""
    if not (0 <= x < cube.width and 0 <= y < cube.height):
        raise IndexError(f"pixel ({x}, {y}) outside {cube.width}x{cube.height} image")
    pixels = cube.pixels()
    nonzero = (_row_dots(pixels) > 0.0).reshape(cube.height, cube.width)
    ys, xs = range(y, y + 1), range(x, x + 1)
    check_rings(nonzero, ys, xs, w)
    unit, rings = window_rings(pixels, nonzero, ys, xs, w)
    return Dictionary(unit[:, rings[0]])

