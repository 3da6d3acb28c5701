"""Dual-window geometry and hierarchical dictionary assembly."""

import tracemalloc

import numpy as np
import pytest

import hsidet as h


def cube_of(width, height, bands=4, seed=0):
    rng = np.random.default_rng(seed)
    return h.HsiCube(rng.random((bands, height, width)) + 0.1)


class TestWindowSpec:
    def test_defaults(self):
        w = h.WindowSpec()
        assert w.outer == 19 and w.inner == 9

    @pytest.mark.parametrize("outer,inner", [(8, 3), (9, 4), (5, 5), (3, 5), (3, 0)])
    def test_invalid_geometry_rejected(self, outer, inner):
        with pytest.raises(ValueError):
            h.WindowSpec(outer, inner)


class TestNormalizeAtoms:
    def test_unit_norms(self):
        rng = np.random.default_rng(1)
        dic = h.normalize_atoms(h.Dictionary(rng.normal(size=(6, 5)) * 3))
        assert np.allclose(np.linalg.norm(dic.columns, axis=0), 1.0, atol=1e-12)

    def test_idempotent(self):
        rng = np.random.default_rng(2)
        once = h.normalize_atoms(h.Dictionary(rng.normal(size=(6, 5))))
        twice = h.normalize_atoms(once)
        assert np.allclose(once.columns, twice.columns, rtol=0, atol=1e-15)

    def test_three_four_five(self):
        dic = h.normalize_atoms(h.Dictionary(np.array([[3.0], [4.0]])))
        assert np.allclose(dic.columns[:, 0], [0.6, 0.8], atol=1e-15)

    def test_column_that_is_no_atom_rejected(self):
        # 1e-160 squares to a subnormal: that column has no atom, and the
        # error names it rather than dropping it and shifting the columns.
        columns = np.ones((4, 3))
        columns[:, 1] = 1e-160
        with pytest.raises(ValueError, match="^dictionary column 1 is no atom$"):
            h.normalize_atoms(h.Dictionary(columns))


class TestLocalBackground:
    def test_interior_full_scale_atom_count(self):
        # 19x19 outer minus 9x9 inner = 361 - 81 = 280 atoms
        cube = cube_of(21, 21)
        local = h.local_background(cube, 10, 10, h.WindowSpec(19, 9))
        assert local.n_atoms == 280

    def test_corner_full_scale_atom_count(self):
        # at (0, 0) the outer window clamps to 10x10 and the inner to 5x5
        cube = cube_of(21, 21)
        local = h.local_background(cube, 0, 0, h.WindowSpec(19, 9))
        assert local.n_atoms == 10 * 10 - 5 * 5

    def test_smallest_window_is_eight_neighborhood(self):
        cube = cube_of(7, 7)
        local = h.local_background(cube, 3, 3, h.WindowSpec(3, 1))
        assert local.n_atoms == 8
        # row-major ring order: the 8 neighbours, each unit-normalized
        expected = [
            cube.pixel_at(xx, yy)
            for yy in (2, 3, 4)
            for xx in (2, 3, 4)
            if (xx, yy) != (3, 3)
        ]
        for j, spec in enumerate(expected):
            assert np.allclose(local.columns[:, j], spec / np.linalg.norm(spec), atol=1e-12)

    def test_center_pixel_never_included(self):
        cube = cube_of(9, 9, seed=3)
        for w in (h.WindowSpec(3, 1), h.WindowSpec(5, 3), h.WindowSpec(7, 1)):
            for (x, y) in [(0, 0), (4, 4), (8, 0), (3, 8)]:
                local = h.local_background(cube, x, y, w)
                center = cube.pixel_at(x, y)
                center = center / np.linalg.norm(center)
                assert not np.any(
                    np.all(np.isclose(local.columns, center[:, None], atol=1e-12), axis=0)
                )

    def test_entire_inner_region_excluded(self):
        cube = cube_of(11, 11, seed=4)
        local = h.local_background(cube, 5, 5, h.WindowSpec(7, 3))
        assert local.n_atoms == 49 - 9
        for yy in range(4, 7):
            for xx in range(4, 7):
                spec = cube.pixel_at(xx, yy)
                spec = spec / np.linalg.norm(spec)
                assert not np.any(
                    np.all(np.isclose(local.columns, spec[:, None], atol=1e-12), axis=0)
                )

    def test_unit_norm_output(self):
        cube = cube_of(9, 9, seed=5)
        local = h.local_background(cube, 4, 4, h.WindowSpec(5, 1))
        assert np.allclose(np.linalg.norm(local.columns, axis=0), 1.0, atol=1e-12)

    def test_zero_norm_pixels_dropped(self):
        data = np.random.default_rng(6).random((3, 5, 5)) + 0.1
        data[:, 1, 2] = 0.0  # a dead pixel inside the ring of (2, 2)
        cube = h.HsiCube(data)
        local = h.local_background(cube, 2, 2, h.WindowSpec(3, 1))
        assert local.n_atoms == 7

    def test_tiny_pixels_follow_the_nonzero_rule(self):
        # 1e-170 squares to 1e-340, below the smallest subnormal, and 1e-160
        # to a subnormal: neither pixel is an atom, and both are dropped
        # exactly as a zero pixel is.  1e-150 squares to a normal float64:
        # that pixel is kept, divided by its own norm, a unit column.
        data = np.random.default_rng(7).random((4, 5, 5)) + 0.1
        data[:, 1, 2], data[:, 3, 1], data[:, 2, 3] = 1e-170, 1e-160, 1e-150
        local = h.local_background(h.HsiCube(data), 2, 2, h.WindowSpec(3, 1))
        data[:, 1, 2] = data[:, 3, 1] = 0.0
        zeroed = h.local_background(h.HsiCube(data), 2, 2, h.WindowSpec(3, 1))
        assert local.n_atoms == 6
        assert local.columns.tobytes() == zeroed.columns.tobytes()
        small = data[:, 2, 3]  # ring position 3 in row-major order, (2, 1) dropped
        assert local.columns[:, 3].tobytes() == (small / np.sqrt(small @ small)).tobytes()
        assert abs(np.linalg.norm(local.columns[:, 3]) - 1.0) < 1e-12

    def test_out_of_bounds_pixel(self):
        cube = cube_of(5, 5)
        with pytest.raises(IndexError):
            h.local_background(cube, 5, 0, h.WindowSpec(3, 1))


def test_local_background_peak_does_not_grow_with_the_image():
    # Only the pixel's clamped outer window is read: its pixels are gathered
    # and made atoms, and nothing is made over the whole image.  So the peak
    # grows neither by a normalized copy of the pixels, a whole cube, nor
    # by an image-sized mask or box sum, a few words a pixel.
    for sides, bands, bound in (((24, 96), 200, None), ((24, 256), 8, 16 * 1024)):
        peaks, sizes = [], []
        for side in sides:
            cube = cube_of(side, side, bands=bands, seed=8)
            tracemalloc.start()
            try:
                local = h.local_background(cube, 10, 10, h.WindowSpec(19, 9))
                _, peak = tracemalloc.get_traced_memory()
            finally:
                tracemalloc.stop()
            assert local.n_atoms == 280
            peaks.append(peak)
            sizes.append(cube.data.nbytes)
        assert peaks[1] - peaks[0] < (bound or 0.05 * (sizes[1] - sizes[0]))
