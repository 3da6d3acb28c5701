"""Score normalization, fusion arithmetic, and residual-map verification."""

import itertools

import numpy as np
import pytest
from scipy.optimize import minimize

import hsidet as h
from hsidet import dictlearn


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
        assert np.array_equal(h.fuse_scores(s_t, s_b, 0.0).values, s_t.values)
        assert np.array_equal(h.fuse_scores(s_t, s_b, 1.0).values, s_b.values)

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
    def test_literal_is_identity(self):
        rng = np.random.default_rng(3)
        s_t = h.ScoreMap(rng.random((3, 3)))
        s_b = h.ScoreMap(rng.random((3, 3)))
        o_t, o_b = h.orient_scores(s_t, s_b, "literal")
        assert o_t is s_t and o_b is s_b

    def test_flip_target(self):
        s_t = h.ScoreMap(np.array([[0.2]]))
        s_b = h.ScoreMap(np.array([[0.7]]))
        o_t, o_b = h.orient_scores(s_t, s_b, "flip_target")
        assert o_t.values[0, 0] == 0.8 and o_b.values[0, 0] == 0.7

    def test_flip_both(self):
        s_t = h.ScoreMap(np.array([[0.2]]))
        s_b = h.ScoreMap(np.array([[0.7]]))
        o_t, o_b = h.orient_scores(s_t, s_b, "flip_both")
        assert abs(o_t.values[0, 0] - 0.8) < 1e-15
        assert abs(o_b.values[0, 0] - 0.3) < 1e-15

    def test_unknown_orientation(self):
        s = h.ScoreMap(np.zeros((1, 1)))
        with pytest.raises(ValueError):
            h.orient_scores(s, s, "sideways")


class TestResidualMaps:
    def test_target_atom_pixel_has_zero_target_residual(self):
        rng = np.random.default_rng(4)
        D_t = h.normalize_atoms(h.Dictionary(rng.normal(size=(5, 3))))
        D_b = h.normalize_atoms(h.Dictionary(rng.normal(size=(5, 4))))
        data = rng.random((5, 3, 3)) + 0.1
        data[:, 1, 1] = D_t.columns[:, 0]
        cube = h.HsiCube(data)
        params = h.SolverParams(lam=0.0, max_nonzeros=2)
        r_t, r_b = h.residual_maps(cube, D_t, lambda x, y: D_b, params)
        assert r_t.values[1, 1] < 1e-9

    def test_matches_exhaustive_oracle_on_small_cube(self):
        rng = np.random.default_rng(5)
        cube = h.HsiCube(rng.random((4, 6, 6)) + 0.1)
        D_t = h.normalize_atoms(h.Dictionary(rng.normal(size=(4, 3))))
        D_g = h.normalize_atoms(h.Dictionary(rng.normal(size=(4, 4))))
        window = h.WindowSpec(3, 1)

        def bg_provider(x, y):
            return h.build_hierarchical(D_g, h.local_background(cube, x, y, window))

        params = h.SolverParams(lam=0.1, max_nonzeros=2)
        r_t, r_b = h.residual_maps(cube, D_t, bg_provider, params)
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
            h.residual_maps(cube, D_t, lambda x, y: D_t, h.SolverParams())


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
        assert np.array_equal(
            h.shr_detect(cube, signature, config).values,
            h.wshr_detect(cube, signature, config).values,
        )

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
