"""Per-pixel hierarchical background dictionaries.

The local part comes from a dual concentric sliding window: every pixel
inside the outer window but outside the inner window contributes its
spectrum as one atom.  Windows are clamped at image borders (no padding),
zero-norm pixels are dropped, and every atom is normalized to unit length
before concatenation with the globally learned background dictionary.
"""

from __future__ import annotations

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
        if self.inner < 1:
            raise ValueError("inner window must be >= 1")
        if self.outer <= self.inner:
            raise ValueError("outer window must exceed inner window")
        if self.outer % 2 == 0 or self.inner % 2 == 0:
            raise ValueError("window sides must be odd")


def normalize_atoms(D: Dictionary) -> Dictionary:
    """Divide each column by its Euclidean norm (idempotent)."""
    norms = np.linalg.norm(D.columns, axis=0)
    if D.n_atoms and np.any(norms == 0.0):
        raise ValueError("cannot normalize a zero column")
    return Dictionary(D.columns / norms)


def _clamped(center: int, half: int, size: int) -> tuple[int, int]:
    return max(0, center - half), min(size - 1, center + half)


def local_background(cube: HsiCube, x: int, y: int, w: WindowSpec) -> Dictionary:
    """Local background atoms for pixel (x, y): the clamped outer-minus-inner
    ring in row-major order, zero-norm pixels dropped, columns unit-norm."""
    if not (0 <= x < cube.width and 0 <= y < cube.height):
        raise IndexError(f"pixel ({x}, {y}) outside {cube.width}x{cube.height} image")
    ox0, ox1 = _clamped(x, w.outer // 2, cube.width)
    oy0, oy1 = _clamped(y, w.outer // 2, cube.height)
    ix0, ix1 = _clamped(x, w.inner // 2, cube.width)
    iy0, iy1 = _clamped(y, w.inner // 2, cube.height)

    ring = np.ones((oy1 - oy0 + 1, ox1 - ox0 + 1), dtype=bool)
    ring[iy0 - oy0:iy1 - oy0 + 1, ix0 - ox0:ix1 - ox0 + 1] = False
    if not ring.any():
        raise ValueError(f"empty local window ring at ({x}, {y})")
    mat = cube.data[:, oy0:oy1 + 1, ox0:ox1 + 1][:, ring]
    norms = np.linalg.norm(mat, axis=0)
    mat = mat[:, norms > 0.0]
    if mat.shape[1] == 0:
        raise ValueError(f"all local window pixels at ({x}, {y}) have zero norm")
    return Dictionary(mat / np.linalg.norm(mat, axis=0))


def build_hierarchical(D_b_global: Dictionary, D_b_local: Dictionary) -> Dictionary:
    """Concatenate global and local background atoms, global columns first.

    If one side is empty the other is returned unchanged; both empty is an
    error.  Column norms of both inputs are re-verified.
    """
    if D_b_global.n_atoms == 0 and D_b_local.n_atoms == 0:
        raise ValueError("both background dictionaries are empty")
    if D_b_global.n_atoms and D_b_local.n_atoms and D_b_global.bands != D_b_local.bands:
        raise ValueError(
            f"band mismatch: global {D_b_global.bands} vs local {D_b_local.bands}"
        )
    for name, part in (("global", D_b_global), ("local", D_b_local)):
        if part.n_atoms:
            norms = np.linalg.norm(part.columns, axis=0)
            if np.max(np.abs(norms - 1.0)) > NORM_TOLERANCE:
                raise ValueError(f"{name} background dictionary is not unit-norm")
    if D_b_local.n_atoms == 0:
        return D_b_global
    if D_b_global.n_atoms == 0:
        return D_b_local
    return Dictionary(np.hstack([D_b_global.columns, D_b_local.columns]))
