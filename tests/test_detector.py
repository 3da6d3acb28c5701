"""Score normalization, fusion arithmetic, and residual-map verification."""

import itertools
import os
import subprocess
import sys
import tracemalloc
from pathlib import Path

import numpy as np
import pytest
from scipy.optimize import minimize

import hsidet as h
from hsidet import detector, dictlearn, hierdict, predetect


def tiny_config(**overrides):
    base = dict(
        window=h.WindowSpec(5, 1),
        n_target_atoms=3,
        n_bg_atoms=8,
        n_target_train=5,
        bg_fraction=0.6,
        odl_epochs=2,
        seed=0,
    )
    base.update(overrides)
    return h.DetectorConfig(**base)


def tiny_scene(seed=0, width=12, height=12, bands=8):
    spec = h.SceneSpec(
        width=width, height=height, bands=bands, n_endmembers=2,
        n_targets=4, target_fill=0.9, noise_sigma=0.01, seed=seed,
    )
    return h.generate(spec)


def oracle_residual(x, D, lam, k):
    """Residual norm at the exhaustive-support argmin, solved per support by
    bound-constrained L-BFGS on a sign split."""
    best_obj = 0.5 * float(x @ x)
    best_res = float(np.linalg.norm(x))
    cols = D.columns
    for size in range(1, k + 1):
        for support in itertools.combinations(range(cols.shape[1]), size):
            Ds = cols[:, support]

            def f(z, Ds=Ds, size=size):
                a = z[:size] - z[size:]
                r = x - Ds @ a
                return 0.5 * float(r @ r) + lam * float(z.sum())

            res = minimize(
                f, np.zeros(2 * size), method="L-BFGS-B",
                bounds=[(0, None)] * 2 * size,
                options={"ftol": 1e-15, "gtol": 1e-12, "maxiter": 500},
            )
            if res.fun < best_obj:
                best_obj = res.fun
                a = res.x[:size] - res.x[size:]
                best_res = float(np.linalg.norm(x - Ds @ a))
    return best_res


class TestNormalizeScores:
    def test_target_side_is_plain_minmax(self):
        r_t = h.ScoreMap(np.array([[1.0, 3.0], [2.0, 1.0]]))
        r_b = h.ScoreMap(np.array([[1.0, 2.0], [3.0, 1.0]]))
        s_t, s_b = h.normalize_scores(r_t, r_b)
        assert np.allclose(s_t.values, [[0.0, 1.0], [0.5, 0.0]], atol=1e-15)

    def test_background_side_is_flipped_minmax(self):
        r_t = h.ScoreMap(np.array([[0.0, 1.0]]))
        r_b = h.ScoreMap(np.array([[1.0, 3.0]]))
        _, s_b = h.normalize_scores(r_t, r_b)
        assert np.allclose(s_b.values, [[1.0, 0.0]], atol=1e-15)

    def test_outputs_in_unit_interval(self):
        rng = np.random.default_rng(0)
        r_t = h.ScoreMap(rng.random((6, 6)) * 10)
        r_b = h.ScoreMap(rng.random((6, 6)) * 10)
        s_t, s_b = h.normalize_scores(r_t, r_b)
        for s in (s_t, s_b):
            assert s.values.min() >= 0.0 and s.values.max() <= 1.0

    def test_flat_map_normalizes_to_half(self):
        r_t = h.ScoreMap(np.full((3, 3), 4.2))
        r_b = h.ScoreMap(np.full((3, 3), 4.2))
        s_t, s_b = h.normalize_scores(r_t, r_b)
        assert np.all(s_t.values == 0.5)
        assert np.all(s_b.values == 0.5)

    def test_shape_mismatch_rejected(self):
        with pytest.raises(ValueError):
            h.normalize_scores(h.ScoreMap(np.zeros((2, 2))), h.ScoreMap(np.zeros((3, 2))))


class TestFuseScores:
    def test_hand_arithmetic(self):
        s_t = h.ScoreMap(np.array([[0.5]]))
        s_b = h.ScoreMap(np.array([[0.9]]))
        fused = h.fuse_scores(s_t, s_b, 0.3)
        assert abs(fused.values[0, 0] - 0.62) < 1e-12

    def test_gamma_endpoints_bit_exact(self):
        rng = np.random.default_rng(1)
        s_t = h.ScoreMap(rng.random((4, 4)))
        s_b = h.ScoreMap(rng.random((4, 4)))
        assert h.fuse_scores(s_t, s_b, 0.0).values.tobytes() == s_t.values.tobytes()
        assert h.fuse_scores(s_t, s_b, 1.0).values.tobytes() == s_b.values.tobytes()

    def test_convex_combination_bounds(self):
        rng = np.random.default_rng(2)
        s_t = h.ScoreMap(rng.random((5, 5)))
        s_b = h.ScoreMap(rng.random((5, 5)))
        for gamma in (0.2, 0.5, 0.8):
            fused = h.fuse_scores(s_t, s_b, gamma).values
            lo = np.minimum(s_t.values, s_b.values)
            hi = np.maximum(s_t.values, s_b.values)
            assert np.all(fused >= lo - 1e-15) and np.all(fused <= hi + 1e-15)

    def test_monotone_in_gamma_where_background_larger(self):
        s_t = h.ScoreMap(np.array([[0.2]]))
        s_b = h.ScoreMap(np.array([[0.8]]))
        vals = [h.fuse_scores(s_t, s_b, g).values[0, 0] for g in (0.0, 0.25, 0.5, 0.75, 1.0)]
        assert np.all(np.diff(vals) > 0)

    def test_invalid_gamma(self):
        s = h.ScoreMap(np.zeros((2, 2)))
        with pytest.raises(ValueError):
            h.fuse_scores(s, s, 1.5)


class TestOrientScores:
    def test_flip_both(self):
        s_t = h.ScoreMap(np.array([[0.2]]))
        s_b = h.ScoreMap(np.array([[0.7]]))
        o_t, o_b = h.orient_scores(s_t, s_b, "flip_both")
        assert abs(o_t.values[0, 0] - 0.8) < 1e-15
        assert abs(o_b.values[0, 0] - 0.3) < 1e-15

    def test_unknown_orientation(self):
        s = h.ScoreMap(np.zeros((1, 1)))
        for orientation in ("sideways", "literal", "flip_target"):
            with pytest.raises(ValueError, match="unknown orientation"):
                h.orient_scores(s, s, orientation)


class TestResidualMaps:
    def test_target_atom_pixel_has_zero_target_residual(self):
        rng = np.random.default_rng(4)
        D_t = h.normalize_atoms(h.Dictionary(rng.normal(size=(5, 3))))
        D_b = h.normalize_atoms(h.Dictionary(rng.normal(size=(5, 4))))
        data = rng.random((5, 3, 3)) + 0.1
        data[:, 1, 1] = D_t.columns[:, 0]
        cube = h.HsiCube(data)
        params = h.SolverParams(lam=0.0, max_nonzeros=2)
        r_t, r_b = h.residual_maps(cube, D_t, D_b, None, params)
        assert r_t.values[1, 1] < 1e-9

    def test_matches_exhaustive_oracle_on_small_cube(self):
        rng = np.random.default_rng(5)
        cube = h.HsiCube(rng.random((4, 6, 6)) + 0.1)
        D_t = h.normalize_atoms(h.Dictionary(rng.normal(size=(4, 3))))
        D_g = h.normalize_atoms(h.Dictionary(rng.normal(size=(4, 4))))
        window = h.WindowSpec(3, 1)

        def bg_provider(x, y):
            local = h.local_background(cube, x, y, window)
            return h.Dictionary(np.hstack([D_g.columns, local.columns]))

        params = h.SolverParams(lam=0.1, max_nonzeros=2)
        r_t, r_b = h.residual_maps(cube, D_t, D_g, window, params)
        for y in range(cube.height):
            for x in range(cube.width):
                spec = cube.data[:, y, x]
                assert abs(r_t.values[y, x] - oracle_residual(spec, D_t, 0.1, 2)) < 1e-6
                assert abs(
                    r_b.values[y, x] - oracle_residual(spec, bg_provider(x, y), 0.1, 2)
                ) < 1e-6

    def test_band_mismatch_rejected(self):
        cube = h.HsiCube(np.ones((3, 2, 2)))
        D_t = h.Dictionary(np.eye(4))
        with pytest.raises(ValueError):
            h.residual_maps(cube, D_t, D_t, None, h.SolverParams())


def windowed_cube(rng, bands, height, width, dead=()):
    data = rng.random((bands, height, width)) + 0.05
    for x, y in dead:
        data[:, y, x] = 0.0
    return h.HsiCube(data)


def unit_atoms(rng, bands, n):
    return h.normalize_atoms(h.Dictionary(rng.normal(size=(bands, n))))


def per_pixel_background(cube, D_g, window, params):
    """r_b pixel by pixel, each against its own hierarchical dictionary."""
    out = np.empty((cube.height, cube.width))
    for y in range(cube.height):
        for x in range(cube.width):
            spec = cube.data[:, y, x]
            local = h.local_background(cube, x, y, window)
            D_b = h.Dictionary(np.hstack([D_g.columns, local.columns]))
            out[y, x] = h.residual_norm(spec, D_b, h.sparse_code(spec, D_b, params))
    return out


def per_pixel_std(cube, D_t, window, params):
    """STD pixel by pixel, each coded against [D_t | its own ring]."""
    out = np.empty((cube.height, cube.width))
    n_t = D_t.n_atoms
    for y in range(cube.height):
        for x in range(cube.width):
            spec = cube.data[:, y, x]
            local = h.local_background(cube, x, y, window)
            joint = h.Dictionary(np.hstack([D_t.columns, local.columns]))
            code = h.sparse_code(spec, joint, params)
            target = code.indices < n_t
            r_t, r_b = (h.residual_norm(spec, joint, h.SparseCode(
                code.indices, np.where(keep, code.coefficients, 0.0), joint.n_atoms))
                for keep in (target, ~target))
            out[y, x] = r_b - r_t
    return out


def dense_std(cube, D_t, window, params):
    """STD from each pixel's dense joint code: ||x - ring a_ring|| -
    ||x - D_t a_t||, an oracle for the split of the code into its classes."""
    out = np.empty((cube.height, cube.width))
    n_t = D_t.n_atoms
    for y in range(cube.height):
        for x in range(cube.width):
            spec = cube.data[:, y, x]
            local = h.local_background(cube, x, y, window)
            joint = h.Dictionary(np.hstack([D_t.columns, local.columns]))
            dense = h.sparse_code(spec, joint, params).dense()
            out[y, x] = (np.linalg.norm(spec - local.columns @ dense[n_t:])
                         - np.linalg.norm(spec - D_t.columns @ dense[:n_t]))
    return out


def std_map(cube, D_t, window, params):
    config = h.DetectorConfig(window=window, lam=params.lam, k=params.max_nonzeros)
    fit = h.Fit(cube, np.ones(cube.bands), config)
    fit.D_t = D_t
    return detector.METHODS["std"](fit).values


# (bands, height, width, dead pixels, window, shared atoms, k): zero-norm
# pixels, clamped borders on every side, an outer window wider than the
# image, and dictionaries small enough to be enumerated (corners of the
# first case, every pixel of the third) next to greedy-coded ones.  The
# 20x37 cases have short tiles on both axes, dead pixels at tile corners,
# and rings that cross tile edges.
TILED_DEAD = [(0, 19), (15, 15), (16, 16), (36, 0), (20, 5)]
WINDOWED_CASES = [
    (12, 7, 9, [(1, 1), (4, 3), (8, 6)], h.WindowSpec(5, 1), 6, 3),
    (10, 6, 5, [(2, 2)], h.WindowSpec(11, 3), 8, 3),
    (9, 5, 6, [(0, 0), (5, 4)], h.WindowSpec(3, 1), 4, 2),
    (8, 20, 37, TILED_DEAD, h.WindowSpec(3, 1), 10, 3),
    (8, 20, 37, TILED_DEAD, h.WindowSpec(5, 3), 6, 3),
    (8, 20, 37, TILED_DEAD, h.WindowSpec(19, 9), 6, 3),
]


class TestWindowedCoder:
    """Every pixel coded against [shared atoms | its own ring] in stacked
    greedy passes, against the pixel-by-pixel reference."""

    @pytest.mark.parametrize("case", range(len(WINDOWED_CASES)))
    @pytest.mark.parametrize("lam", [0.02, 0.1])
    def test_background_residuals_bit_equal_per_pixel(self, case, lam):
        bands, height, width, dead, window, n_g, k = WINDOWED_CASES[case]
        rng = np.random.default_rng(100 + case)
        cube = windowed_cube(rng, bands, height, width, dead)
        # r_t is enumerated against 5 atoms in cases 1 and 2, greedy against
        # 40 in the others.
        D_t = unit_atoms(rng, bands, 5 if case in (1, 2) else 40)
        D_g = unit_atoms(rng, bands, n_g)
        params = h.SolverParams(lam=lam, max_nonzeros=k)
        r_t, r_b = h.residual_maps(cube, D_t, D_g, window, params)
        assert r_b.values.tobytes() == per_pixel_background(cube, D_g, window, params).tobytes()
        want = [[h.residual_norm(spec, D_t, h.sparse_code(spec, D_t, params))
                 for spec in cube.data[:, y].T] for y in range(height)]
        assert r_t.values.tobytes() == np.array(want).tobytes()

    def test_target_residuals_bit_equal_per_pixel_at_every_support_size(self):
        # Pixels mix 0 to k atoms of a 40-atom D_t, so greedy codes of every
        # size meet in one stack.  Padding short supports with zero
        # coefficients would round some r_t differently.
        rng = np.random.default_rng(305)
        bands, height, width, k = 24, 6, 8, 4
        D_t = unit_atoms(rng, bands, 40)
        data = 0.01 * rng.normal(size=(bands, height, width))
        for y in range(height):
            for x in range(width):
                atoms = rng.choice(40, (x + y) % (k + 1), replace=False)
                data[:, y, x] += D_t.columns[:, atoms] @ rng.uniform(0.5, 2.0, atoms.size)
        cube = h.HsiCube(data)
        params = h.SolverParams(lam=0.02, max_nonzeros=k)
        r_t, _ = h.residual_maps(cube, D_t, D_t, None, params)
        codes = [[h.sparse_code(spec, D_t, params) for spec in cube.data[:, y].T]
                 for y in range(height)]
        assert {c.indices.size for row in codes for c in row} == set(range(k + 1))
        want = [[h.residual_norm(spec, D_t, c) for spec, c in zip(cube.data[:, y].T, row)]
                for y, row in enumerate(codes)]
        assert r_t.values.tobytes() == np.array(want).tobytes()

    @pytest.mark.parametrize("case", range(len(WINDOWED_CASES)))
    def test_std_scores_match_per_pixel_joint_coding(self, case):
        bands, height, width, dead, window, n_g, k = WINDOWED_CASES[case]
        rng = np.random.default_rng(200 + case)
        cube = windowed_cube(rng, bands, height, width, dead)
        D_t = unit_atoms(rng, bands, n_g)
        params = h.SolverParams(lam=0.05, max_nonzeros=k)
        got = std_map(cube, D_t, window, params)
        assert got.tobytes() == per_pixel_std(cube, D_t, window, params).tobytes()
        # The bit-exact reference shares residual_norm's class split with the
        # implementation; the dense formula checks the split on its own.
        assert np.allclose(got, dense_std(cube, D_t, window, params), rtol=0, atol=1e-12)

    def test_global_only_and_local_only(self):
        rng = np.random.default_rng(300)
        cube = windowed_cube(rng, 10, 5, 6, [(3, 2)])
        D_t, D_g = unit_atoms(rng, 10, 4), unit_atoms(rng, 10, 20)
        window = h.WindowSpec(5, 1)
        params = h.SolverParams(lam=0.05, max_nonzeros=3)
        empty = h.Dictionary(np.empty((10, 0)))
        _, global_only = h.residual_maps(cube, D_t, D_g, None, params)
        _, local_only = h.residual_maps(cube, D_t, empty, window, params)
        for y in range(cube.height):
            for x in range(cube.width):
                spec = cube.data[:, y, x]
                for got, D in ((global_only, D_g),
                               (local_only, h.local_background(cube, x, y, window))):
                    want = h.residual_norm(spec, D, h.sparse_code(spec, D, params))
                    assert got.values[y, x] == want
        with pytest.raises(ValueError, match="both background dictionaries are empty"):
            h.residual_maps(cube, D_t, empty, None, params)

    def test_empty_ring_names_the_first_pixel(self):
        # In a 3x3 image a 5/3 window leaves (1, 1) nothing; (1, 0) and
        # (0, 1) keep one row or column.
        rng = np.random.default_rng(301)
        cube = windowed_cube(rng, 4, 3, 3)
        D = unit_atoms(rng, 4, 3)
        window = h.WindowSpec(5, 3)
        message = r"empty local window ring at \(1, 1\)"
        with pytest.raises(ValueError, match=message):
            h.local_background(cube, 1, 1, window)
        with pytest.raises(ValueError, match=message):
            h.residual_maps(cube, D, D, window, h.SolverParams())
        with pytest.raises(ValueError, match=message):
            std_map(cube, D, window, h.SolverParams())

    def test_all_zero_ring_names_the_first_pixel(self):
        # Only column 0 is nonzero: the rings of columns 2 and 3 hold only
        # zero-norm pixels, first at (2, 0).
        data = np.zeros((4, 4, 4))
        data[:, :, 0] = np.random.default_rng(302).random((4, 4)) + 0.1
        cube = h.HsiCube(data)
        D = unit_atoms(np.random.default_rng(303), 4, 3)
        window = h.WindowSpec(3, 1)
        message = r"all local window pixels at \(2, 0\) have zero norm"
        with pytest.raises(ValueError, match=message):
            h.local_background(cube, 2, 0, window)
        with pytest.raises(ValueError, match=message):
            h.residual_maps(cube, D, D, window, h.SolverParams())
        with pytest.raises(ValueError, match=message):
            std_map(cube, D, window, h.SolverParams())

    def test_first_bad_pixel_in_a_later_tile_is_named(self):
        # (18, 0) lies in the second tile column and (2, 5) in the first;
        # the in-image neighbours of both are zero, so both rings hold only
        # zero-norm pixels, and (18, 0) comes first in row-major order.
        data = np.random.default_rng(307).random((4, 8, 20)) + 0.1
        for x0, y0 in ((18, 0), (2, 5)):
            for y in range(max(0, y0 - 1), y0 + 2):
                for x in range(x0 - 1, min(20, x0 + 2)):
                    if (x, y) != (x0, y0):
                        data[:, y, x] = 0.0
        cube = h.HsiCube(data)
        D = unit_atoms(np.random.default_rng(308), 4, 3)
        window = h.WindowSpec(3, 1)
        with pytest.raises(ValueError, match=r"all local window pixels at \(2, 5\) have zero"):
            h.local_background(cube, 2, 5, window)
        message = r"all local window pixels at \(18, 0\) have zero norm"
        with pytest.raises(ValueError, match=message):
            h.residual_maps(cube, D, D, window, h.SolverParams())
        with pytest.raises(ValueError, match=message):
            std_map(cube, D, window, h.SolverParams())

    def test_tiny_pixels_follow_the_nonzero_rule_in_a_ring_pool(self):
        # A pixel at 1e-170 in every band has a squared norm that underflows
        # to 0, and one at 1e-160 a subnormal squared norm: neither is an
        # atom, so the pool drops both as it drops a zero pixel.  One at
        # 1e-150 has a normal squared norm, so the pool keeps it, divided by
        # its own norm, a unit column.  The 7x5 image is one tile whose pool
        # is the whole image.
        rng = np.random.default_rng(311)
        data = rng.random((6, 5, 7)) + 0.05
        data[:, 1, 2], data[:, 3, 4], data[:, 2, 0] = 1e-170, 1e-160, 1e-150
        cube = h.HsiCube(data)
        D_g = unit_atoms(rng, 6, 3)
        window, params = h.WindowSpec(3, 1), h.SolverParams(lam=0.05, max_nonzeros=2)
        ((_, _, pool, _),) = detector._ring_codes(cube, D_g, window, params)
        assert pool.shape == (6, 3 + 5 * 7 - 2)
        small = data[:, 2, 0]  # pool column 3 + (2 * 7 + 0) - 1: (2, 1) is dropped
        assert pool[:, 16].tobytes() == (small / np.sqrt(small @ small)).tobytes()
        assert abs(np.linalg.norm(pool[:, 16]) - 1.0) < 1e-12
        data[:, 1, 2] = data[:, 3, 4] = 0.0
        ((_, _, zeroed, _),) = detector._ring_codes(h.HsiCube(data), D_g, window, params)
        assert pool.tobytes() == zeroed.tobytes()
        r_b = h.residual_maps(cube, D_g, D_g, window, params)[1]
        assert r_b.values.tobytes() == per_pixel_background(cube, D_g, window, params).tobytes()

    @pytest.mark.parametrize("preset", list(h.PRESETS))
    def test_a_drawn_target_atom_is_its_pixels_ring_column(self, preset):
        # At a preset config D_t is a draw of CEM-selected pixels, and each
        # such pixel is also a column of its tile's ring pool.  One atom rule
        # makes both, so the two are the same bytes; every atom of the ring
        # pools, of the drawn D_t and of the learned D_b is unit-norm to 1e-12.
        cube, _, signature = h.generate(h.PRESETS[preset])
        fit = h.Fit(cube, signature, h.preset_config(preset))
        pixels = cube.pixels()
        units = pixels / np.linalg.norm(pixels, axis=1, keepdims=True)
        drawn = {int(np.argmin(np.abs(units - atom).max(axis=1))): atom.tobytes()
                 for atom in fit.D_t.columns.T}
        assert len(drawn) == fit.D_t.n_atoms
        empty = h.Dictionary(np.empty((cube.bands, 0)))
        found = 0
        for pixel, _, pool, _ in detector._ring_codes(cube, empty, fit.config.window,
                                                      fit.params):
            assert np.max(np.abs(np.linalg.norm(pool, axis=0) - 1.0)) < 1e-12
            columns = {column.tobytes() for column in pool.T}
            for i in drawn.keys() & set(pixel.tolist()):
                assert drawn[i] in columns
                found += 1
        assert found == fit.D_t.n_atoms
        for D in (fit.D_t, fit.D_b):
            assert np.max(np.abs(np.linalg.norm(D.columns, axis=0) - 1.0)) < 1e-12

    def test_ring_pass_holds_no_cube_sized_array(self):
        # Each tile's pool is gathered and normalized on its own, so W-SHR's
        # and STD's peaks are the coder's stacks, bounded by
        # _STACK_ELEMENTS, plus a few words a pixel; a normalized copy of the
        # pixels alone would be one cube.
        rng = np.random.default_rng(310)
        cube = windowed_cube(rng, 200, 128, 128)
        D_t, D_g = unit_atoms(rng, 200, 3), unit_atoms(rng, 200, 4)
        window, params = h.WindowSpec(3, 1), h.SolverParams(lam=0.1, max_nonzeros=1)
        for run in (lambda: h.residual_maps(cube, D_t, D_g, window, params),
                    lambda: std_map(cube, D_t, window, params)):
            tracemalloc.start()
            try:
                run()
                _, peak = tracemalloc.get_traced_memory()
            finally:
                tracemalloc.stop()
            assert peak < 0.5 * cube.data.nbytes

    def test_one_background_code_block_per_tile(self, monkeypatch):
        # A 16x16 image is one tile; a 37x20 one is six, cut short on both
        # axes.  Each tile's pixels are coded in one call, after D_t's one.
        calls = []
        real = detector.code_block

        def counting(X, *args):
            calls.append(X.shape[0])
            return real(X, *args)

        monkeypatch.setattr(detector, "code_block", counting)
        rng = np.random.default_rng(309)
        D_t, D_g = unit_atoms(rng, 6, 4), unit_atoms(rng, 6, 8)
        params = h.SolverParams()
        h.residual_maps(windowed_cube(rng, 6, 16, 16), D_t, D_g, h.WindowSpec(), params)
        assert calls == [256, 256]
        calls.clear()
        h.residual_maps(windowed_cube(rng, 6, 20, 37), D_t, D_g, h.WindowSpec(), params)
        assert calls == [740, 256, 256, 80, 64, 64, 20]

    def test_shared_block_checked_once(self):
        rng = np.random.default_rng(304)
        cube = windowed_cube(rng, 5, 4, 4)
        D = unit_atoms(rng, 5, 3)
        with pytest.raises(ValueError, match="not unit-norm"):
            h.residual_maps(cube, D, h.Dictionary(2.0 * D.columns), h.WindowSpec(3, 1),
                            h.SolverParams())
        with pytest.raises(ValueError, match="band mismatch"):
            h.residual_maps(cube, D, unit_atoms(rng, 6, 3), h.WindowSpec(3, 1),
                            h.SolverParams())

    def test_no_per_pixel_dictionary_is_built(self, monkeypatch):
        calls = []
        real = hierdict.local_background

        def counting(*args):
            calls.append(args)
            return real(*args)

        monkeypatch.setattr(hierdict, "local_background", counting)
        monkeypatch.setattr(detector, "local_background", counting, raising=False)
        cube, mask, signature = tiny_scene(seed=5)
        fit = h.Fit(cube, signature, tiny_config())
        fit.residuals
        h.std_detect(cube, signature, tiny_config())
        assert calls == []


class TestOneFit:
    @pytest.mark.parametrize("entry", [
        "hierarchical_residuals", "wshr_detect", "std_detect"])
    def test_entry_point_builds_one_fit_that_runs_cem_once(self, monkeypatch, entry):
        fits, cem_calls = [], []
        cem = predetect.cem_detect

        class CountingFit(detector.Fit):
            def __init__(self, *args):
                fits.append(args)
                super().__init__(*args)

        def counting_cem(*args):
            cem_calls.append(args)
            return cem(*args)

        monkeypatch.setattr(detector, "Fit", CountingFit)
        monkeypatch.setattr(predetect, "cem_detect", counting_cem)
        cube, mask, signature = tiny_scene(seed=6)
        getattr(h, entry)(cube, signature, tiny_config())
        assert len(fits) == 1
        assert len(cem_calls) == 1

    @pytest.mark.parametrize("methods,message", [
        ([], "no method given \\(choose from cem,ace,std,shr,wshr\\)"),
        (["cem", "foo"], "unknown method 'foo' \\(choose from cem,ace,std,shr,wshr\\)"),
        (["cem", "ace", "cem"], "method 'cem' is listed more than once"),
    ])
    def test_detect_rejects_a_bad_method_list_before_any_work(self, monkeypatch, methods, message):
        def no_cem(*args):
            raise AssertionError("CEM ran")

        monkeypatch.setattr(predetect, "cem_detect", no_cem)
        cube, mask, signature = tiny_scene(seed=6)
        with pytest.raises(ValueError, match=f"^{message}$"):
            h.detect(cube, signature, tiny_config(), methods)

    def test_five_methods_build_only_the_learned_dictionaries(self, monkeypatch):
        # The result of each of the two ODL runs: the initial draw is a plain
        # array, and the coder takes plain matrices, so no pool or mini-batch
        # is wrapped either.
        calls = []
        post_init = h.Dictionary.__post_init__

        def counting(self):
            calls.append(self.columns.shape)
            post_init(self)

        monkeypatch.setattr(h.Dictionary, "__post_init__", counting)
        cube, mask, signature = h.generate(h.PRESETS["sparse-targets"])
        h.detect(cube, signature, h.preset_config("sparse-targets"), list(detector.METHODS))
        assert calls == [(30, 10), (30, 64)]


class TestOneLayout:
    def test_every_method_is_byte_identical_whatever_the_cube_origin(self, tmp_path):
        # On this scene STD, SHR and W-SHR round differently when the
        # spectra are coded from band-major memory.
        cube, mask, signature = tiny_scene(seed=2)
        values = cube.data.astype(np.float32).astype(np.float64)
        cubes = {
            "band-major": h.HsiCube(np.ascontiguousarray(values)),
            "pixel-major": h.HsiCube(
                np.ascontiguousarray(values.transpose(1, 2, 0)).transpose(2, 0, 1)),
        }
        for interleave in ("bsq", "bil"):
            path = str(tmp_path / f"{interleave}.hdr")
            h.save_cube(cubes["band-major"], path, interleave=interleave)
            cubes[interleave] = h.load_cube(path)
        maps = {origin: h.detect(c, signature, tiny_config(), list(detector.METHODS))
                for origin, c in cubes.items()}
        for origin, got in maps.items():
            for method, smap in got.items():
                assert smap.values.tobytes() == maps["band-major"][method].values.tobytes(), (
                    origin, method)


class TestPipeline:
    def test_wshr_deterministic_per_seed(self):
        cube, mask, signature = tiny_scene()
        config = tiny_config()
        a = h.wshr_detect(cube, signature, config)
        b = h.wshr_detect(cube, signature, config)
        assert np.array_equal(a.values, b.values)

    def test_shr_is_half_gamma_fusion(self):
        cube, mask, signature = tiny_scene(seed=1)
        config = tiny_config(gamma=0.5)
        maps = h.detect(cube, signature, config, ["shr", "wshr"])
        assert np.array_equal(maps["shr"].values, maps["wshr"].values)

    def test_residuals_are_nonnegative(self):
        cube, mask, signature = tiny_scene(seed=2)
        r_t, r_b = h.hierarchical_residuals(cube, signature, tiny_config())
        assert r_t.values.min() >= 0.0
        assert r_b.values.min() >= 0.0

    def test_wshr_separates_tiny_scene(self):
        cube, mask, signature = tiny_scene(seed=3)
        smap = h.wshr_detect(cube, signature, tiny_config())
        assert h.auc(h.roc(smap, mask)) > 0.9

    def test_std_detect_learns_only_the_target_dictionary(self, monkeypatch):
        calls = []
        learn = dictlearn.odl_learn

        def counting(samples, params, *args, **kwargs):
            calls.append(params.n_atoms)
            return learn(samples, params, *args, **kwargs)

        monkeypatch.setattr(dictlearn, "odl_learn", counting)
        cube, mask, signature = tiny_scene(seed=4)
        config = tiny_config()
        h.std_detect(cube, signature, config)
        assert calls == [config.n_target_atoms]

    def test_std_detect_runs_and_scores_targets_higher(self):
        cube, mask, signature = tiny_scene(seed=4)
        smap = h.std_detect(cube, signature, tiny_config())
        t = smap.values[mask.labels == 1]
        b = smap.values[mask.labels == 0]
        assert t.mean() > b.mean()


# Prints one digest per map of a five-method-style detect on a 100-band
# scene.  CEM and ACE are left out: at 100 bands and more their Gram,
# factorizations and whitening round differently at one and two BLAS
# threads (ROADMAP item 4).
_THREADED_DETECT = """
import hashlib
import hsidet as h
cube, _, signature = h.generate(h.SceneSpec(width=24, height=24, bands=100, n_endmembers=4,
                                             n_targets=8, noise_sigma=0.03, seed=7))
maps = h.detect(cube, signature, h.preset_config("sparse-targets"), ["std", "shr", "wshr"])
for name, smap in maps.items():
    print(name, hashlib.sha256(smap.values.tobytes()).hexdigest())
"""


def test_sparse_maps_identical_at_one_and_two_blas_threads_at_100_bands():
    # The thread count must be set before NumPy loads, so each run is its
    # own interpreter.
    src = str(Path(h.__file__).resolve().parents[1])
    digests = []
    for threads in ("1", "2"):
        env = {**os.environ, "OPENBLAS_NUM_THREADS": threads,
               "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))}
        run = subprocess.run([sys.executable, "-c", _THREADED_DETECT], env=env,
                             capture_output=True, text=True, timeout=300, check=True)
        digests.append(run.stdout)
    assert digests[0].split()[::2] == ["std", "shr", "wshr"]
    assert digests[0] == digests[1]
