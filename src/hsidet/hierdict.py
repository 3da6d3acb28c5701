"""The local part of the per-pixel hierarchical background dictionaries.

Every pixel inside the outer window of a dual concentric sliding window but
outside its inner window contributes its spectrum as one atom.  Windows are
clamped at image borders (no padding), and atoms are made by the one atom
rule of every dictionary (``sparse._unit_rows``), which drops zero pixels
and those whose squared norm is subnormal.  One rule (``window_rings``)
gathers the ring pool of one pixel or of a whole image tile from that pool's
window alone; one box-sum rule (``check_rings``) names the first pixel of an
image whose ring holds no atom.  ``detector._ring_codes`` builds from it the
[global atoms | ring] pools, one per 16x16 tile.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .cube import Dictionary, HsiCube, check_fields
from .sparse import _unit_rows


@dataclass(frozen=True)
class WindowSpec:
    """Outer/inner window side lengths; both odd, outer > inner >= 1."""

    outer: int = 19
    inner: int = 9

    def __post_init__(self):
        check_fields(self, {"outer": None, "inner": 1})
        if self.outer <= self.inner:
            raise ValueError("outer window must exceed inner window")
        if self.outer % 2 == 0 or self.inner % 2 == 0:
            raise ValueError("window sides must be odd")


def normalize_atoms(D: Dictionary) -> Dictionary:
    """The atoms (``sparse._unit_rows``) of D's columns, in order; raises
    ``ValueError`` naming the first column that is no atom."""
    keep, atoms = _unit_rows(np.ascontiguousarray(D.columns.T))
    if not keep.all():
        raise ValueError(f"dictionary column {int(np.argmin(keep))} is no atom")
    return Dictionary(atoms.T)


def window_rings(cube: HsiCube, ys: range, xs: range,
                 w: WindowSpec) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The dual-window rings of one tile of ``cube``, the image rows ``ys``
    by the columns ``xs`` (ranges of step 1), read from the tile's window
    alone: its rectangle widened by ``outer // 2`` and clamped.  Returns the
    pool, the atoms of the window's pixels in row-major order as the columns
    of a (bands, pool) array; the (tile pixels, window pixels) mask whose row
    for (x, y), in row-major order, is True on its ring, its clamped outer
    window minus its clamped inner window; and the window's mask ``kept`` of
    atoms, so that ``ring[:, kept]`` indexes the pool."""
    half = w.outer // 2
    rows = np.arange(max(0, ys[0] - half), min(cube.height, ys[-1] + half + 1))
    cols = np.arange(max(0, xs[0] - half), min(cube.width, xs[-1] + half + 1))
    dy = np.abs(rows[None, :] - np.asarray(ys)[:, None])             # (tile row, pool row)
    dx = np.abs(cols[None, :] - np.asarray(xs)[:, None])             # (tile column, pool column)
    inner = (dy <= w.inner // 2)[:, None, :, None] & (dx <= w.inner // 2)[None, :, None, :]
    outer = (dy <= half)[:, None, :, None] & (dx <= half)[None, :, None, :]
    ring = (outer & ~inner).reshape(len(ys) * len(xs), rows.size * cols.size)
    kept, unit = _unit_rows(cube.pixels()[(rows[:, None] * cube.width + cols[None, :]).ravel()])
    return unit.T, ring, kept


def _ring_error(x: int, y: int, empty: bool) -> ValueError:
    """The error naming pixel (x, y), whose ring is empty or holds no atom."""
    return ValueError(f"empty local window ring at ({x}, {y})" if empty
                      else f"all local window pixels at ({x}, {y}) have zero norm")


def check_rings(atoms: np.ndarray, w: WindowSpec) -> None:
    """Raise ``ValueError`` naming the first pixel (x, y), in row-major
    order, whose ring holds no atom, given the image's (height, width) mask
    of ``atoms``.  A ring's count is the box sum of its clamped outer window
    minus that of its clamped inner window, both from one summed-area table."""
    height, width = atoms.shape
    ys, xs = np.arange(height)[:, None], np.arange(width)

    def ring_counts(mask):
        table = np.pad(mask.cumsum(axis=0).cumsum(axis=1), ((1, 0), (1, 0)))
        counts = []
        for half in (w.outer // 2, w.inner // 2):
            y0, y1 = np.clip(ys - half, 0, height), np.clip(ys + half + 1, 0, height)
            x0, x1 = np.clip(xs - half, 0, width), np.clip(xs + half + 1, 0, width)
            counts.append(table[y1, x1] - table[y0, x1] - table[y1, x0] + table[y0, x0])
        return counts[0] - counts[1]

    bad = ring_counts(atoms) == 0
    if bad.any():
        y, x = np.unravel_index(int(bad.argmax()), bad.shape)
        raise _ring_error(x, y, ring_counts(np.ones_like(atoms))[y, x] == 0)


def local_background(cube: HsiCube, x: int, y: int, w: WindowSpec) -> Dictionary:
    """Local background atoms for pixel (x, y), a 1x1 tile read from its
    clamped outer window alone: the atoms of its ring in row-major order."""
    if not (0 <= x < cube.width and 0 <= y < cube.height):
        raise IndexError(f"pixel ({x}, {y}) outside {cube.width}x{cube.height} image")
    unit, ring, kept = window_rings(cube, range(y, y + 1), range(x, x + 1), w)
    if not ring[0, kept].any():
        raise _ring_error(x, y, not ring.any())
    return Dictionary(unit[:, ring[0, kept]])
