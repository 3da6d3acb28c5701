"""The local part of the per-pixel hierarchical background dictionaries.

Every pixel inside the outer window of a dual concentric sliding window but
outside its inner window contributes its spectrum as one atom.  Windows are
clamped at image borders (no padding), zero-norm pixels are dropped, and
every atom is normalized to unit length.  The image is normalized once
(``unit_pixels``) and every ring, of one pixel or of a whole image row,
follows one rule (``window_rings``).  ``detector._ring_codes`` builds the
hierarchical dictionary [global atoms | ring], one pool per image row.
"""

from __future__ import annotations

import numbers
from dataclasses import dataclass

import numpy as np

from .cube import Dictionary, HsiCube

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


def unit_pixels(cube: HsiCube) -> tuple[np.ndarray, np.ndarray]:
    """Every pixel spectrum divided by its norm, as the columns of a (bands,
    N) array in row-major pixel order, and the (height, width) mask of
    nonzero-norm pixels (the zero-norm columns stay zero)."""
    flat = cube.pixels().T
    norms = np.linalg.norm(flat, axis=0)
    nonzero = norms > 0.0
    return flat / np.where(nonzero, norms, 1.0), nonzero.reshape(cube.height, cube.width)


def window_rings(nonzero: np.ndarray, y: int, xs, w: WindowSpec) -> tuple[np.ndarray, np.ndarray]:
    """The dual-window rings of the pixels (x, y), x in ``xs``, of one image row.

    ``nonzero`` is the (height, width) mask of nonzero-norm pixels.  Returns
    the row-major indices of the nonzero-norm pixels in the band of image
    rows the clamped outer windows span, and a (len(xs), band pixels) mask
    whose row i is True on the ring of (xs[i], y): its clamped outer window
    minus its clamped inner window, zero-norm pixels dropped.  Both run in
    row-major order.  Raises ``ValueError`` naming the first pixel whose
    ring is empty or holds only zero-norm pixels."""
    height, width = nonzero.shape
    oy0, oy1 = max(0, y - w.outer // 2), min(height - 1, y + w.outer // 2)
    xs = np.asarray(xs)
    dx = np.abs(np.arange(width)[None, :] - xs[:, None])              # (pixel, column)
    dy = np.abs(np.arange(oy0, oy1 + 1) - y)                          # (band row,)
    inner = (dy <= w.inner // 2)[None, :, None] & (dx <= w.inner // 2)[:, None, :]
    ring = ((dx <= w.outer // 2)[:, None, :] & ~inner).reshape(xs.size, -1)
    kept = nonzero[oy0:oy1 + 1].ravel()
    rings = ring[:, kept]
    bad = ~rings.any(axis=1)
    if bad.any():
        i = int(bad.argmax())
        x = int(xs[i])
        if not ring[i].any():
            raise ValueError(f"empty local window ring at ({x}, {y})")
        raise ValueError(f"all local window pixels at ({x}, {y}) have zero norm")
    return oy0 * width + np.flatnonzero(kept), rings


def local_background(cube: HsiCube, x: int, y: int, w: WindowSpec) -> Dictionary:
    """Local background atoms for pixel (x, y): the clamped outer-minus-inner
    ring in row-major order, zero-norm pixels dropped, columns unit-norm."""
    if not (0 <= x < cube.width and 0 <= y < cube.height):
        raise IndexError(f"pixel ({x}, {y}) outside {cube.width}x{cube.height} image")
    unit, nonzero = unit_pixels(cube)
    band, rings = window_rings(nonzero, y, [x], w)
    return Dictionary(unit[:, band[rings[0]]])

