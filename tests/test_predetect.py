"""CEM / ACE detectors against dense linear-algebra oracles."""

import os
import subprocess
import sys
import tracemalloc
from pathlib import Path
from types import SimpleNamespace

import numpy as np
import pytest

import hsidet as h
from hsidet import cube as hcube
from hsidet import predetect, synth


def make_cube(rng, bands=4, height=5, width=5):
    return h.HsiCube(rng.random((bands, height, width)) + 0.1)


def ace_oracle(cube, d, ridge=0.0):
    """ACE per pixel from the dense inverse of the (ridge-loaded) covariance."""
    X = cube.pixels()
    mu = X.mean(axis=0)
    inv = np.linalg.inv((X - mu).T @ (X - mu) / X.shape[0] + ridge)
    return np.array([
        (d @ inv @ (x - mu)) ** 2 / ((d @ inv @ d) * ((x - mu) @ inv @ (x - mu)))
        if (x - mu) @ inv @ (x - mu) > 0 else 0.0
        for x in X
    ])


class TestCem:
    def test_signature_pixel_scores_one(self):
        rng = np.random.default_rng(0)
        for seed in range(5):
            rng = np.random.default_rng(seed)
            cube = make_cube(rng)
            d = cube.pixel_at(2, 3)  # use an existing pixel as the signature
            scores = h.cem_detect(cube, d)
            assert abs(scores.values[3, 2] - 1.0) < 1e-9

    def test_orthogonal_noise_scores_near_zero(self):
        # d hits only band 0; noise lives in the remaining bands
        means = []
        for seed in range(10):
            rng = np.random.default_rng(seed)
            data = rng.normal(size=(4, 8, 8))
            data[0] = 0.0
            data[0, 0, 0] = 1.0  # keep R invertible in band 0
            cube = h.HsiCube(data)
            d = np.array([1.0, 0.0, 0.0, 0.0])
            means.append(h.cem_detect(cube, d).values.mean())
        assert abs(np.mean(means)) < 0.05

    def test_matches_dense_solve_oracle_hand_case(self):
        # 3 pixels, 2 bands; R and w computed independently with explicit solves
        X = np.array([[1.0, 0.5], [0.2, 1.0], [0.7, 0.3]])  # (pixels, bands)
        cube = h.HsiCube(X.T.reshape(2, 1, 3))
        d = np.array([0.9, 0.4])
        R = X.T @ X / 3
        w = np.linalg.inv(R) @ d / (d @ np.linalg.inv(R) @ d)
        expected = X @ w
        got = h.cem_detect(cube, d).values.ravel()
        assert np.allclose(got, expected, atol=1e-10)

    def test_matches_oracle_random_cubes(self):
        for seed in range(5):
            rng = np.random.default_rng(seed)
            cube = make_cube(rng, bands=8, height=10, width=10)
            d = rng.random(8) + 0.1
            X = cube.pixels()
            R = X.T @ X / X.shape[0]
            w = np.linalg.solve(R, d) / (d @ np.linalg.solve(R, d))
            assert np.allclose(h.cem_detect(cube, d).values.ravel(), X @ w, atol=1e-10)

    def test_filter_linearity(self):
        rng = np.random.default_rng(3)
        cube = make_cube(rng)
        d = rng.random(4) + 0.1
        X = cube.pixels()
        R = X.T @ X / X.shape[0]
        w = np.linalg.solve(R, d) / (d @ np.linalg.solve(R, d))
        x1, x2 = rng.random(4), rng.random(4)
        assert abs(w @ (2 * x1 + 3 * x2) - (2 * (w @ x1) + 3 * (w @ x2))) < 1e-12

    def test_signature_length_mismatch(self):
        cube = make_cube(np.random.default_rng(4))
        with pytest.raises(ValueError):
            h.cem_detect(cube, np.ones(5))


class TestAce:
    def test_scores_within_unit_interval(self):
        for seed in range(20):
            rng = np.random.default_rng(seed)
            bands = int(rng.integers(2, 12))
            cube = make_cube(rng, bands=bands, height=8, width=8)
            d = rng.normal(size=bands)
            v = h.ace_detect(cube, d).values
            assert v.min() >= 0.0 and v.max() <= 1.0 + 1e-9

    def test_mean_pixel_scores_zero(self):
        # third pixel is the mean of the other two, hence the global mean
        a = np.array([1.0, 2.0, 0.5])
        b = np.array([0.2, 1.0, 1.5])
        X = np.stack([a, b, (a + b) / 2])
        cube = h.HsiCube(X.T.reshape(3, 1, 3))
        d = np.array([1.0, 0.3, 0.7])
        assert h.ace_detect(cube, d).values[0, 2] == 0.0

    def test_covariance_that_cholesky_rejects_is_singular(self, monkeypatch):
        # Indefinite statistics that pass the condition check must not score.
        monkeypatch.setattr(predetect, "_regularized",
                            lambda mat, label, shape: np.diag([1.0, -1.0, 1.0]))
        cube = make_cube(np.random.default_rng(0), bands=3)
        with pytest.raises(predetect.SingularStatisticsError):
            h.ace_detect(cube, np.ones(3))

    def test_whitened_parallel_pixel_scores_one(self):
        # mean-symmetric cube with two pixels at mu +- t*d: Cauchy-Schwarz
        # equality holds for any covariance
        rng = np.random.default_rng(6)
        mu = rng.random(3) + 1.0
        d = rng.random(3) + 0.1
        others = rng.normal(size=(4, 3))
        X = np.vstack([mu + 0.5 * d, mu - 0.5 * d, mu + others, mu - others])
        cube = h.HsiCube(X.T.reshape(3, 2, 5))
        v = h.ace_detect(cube, d).values.ravel()
        assert abs(v[0] - 1.0) < 1e-9 and abs(v[1] - 1.0) < 1e-9

    def test_matches_dense_solve_oracle(self):
        for seed in range(5):
            rng = np.random.default_rng(seed)
            cube = make_cube(rng, bands=8, height=10, width=10)
            d = rng.random(8) + 0.1
            expected = ace_oracle(cube, d)
            assert np.allclose(h.ace_detect(cube, d).values.ravel(), expected, atol=1e-10)


# Scores ACE on cubes of 60 bands, block by block and by the whole-cube
# whitening formula it replaced, in one interpreter; prints one line per
# cube: name, byte-identical or not, and the largest relative difference.
# The reference's covariance is the sum of the blocks' products, first
# block first, as ace_detect forms it: a cube of two or more blocks has
# other bytes than one whole-cube GEMM.
_BLOCKED_ACE = """
import numpy as np
import hsidet as h
from hsidet import predetect
from hsidet.sparse import _row_dots

def whole_cube_ace(cube, d):
    X = cube.pixels()
    n = X.shape[0]
    mu = X.mean(axis=0)
    Xc = X - mu
    cuts = [*range(0, max(n - B + 1, 1), B)][1:]
    products = [c.T @ c for c in np.split(Xc, cuts)]
    sigma = products[0]
    for product in products[1:]:
        sigma += product
    sigma = predetect._regularized(sigma / n, "ACE covariance", X.shape)
    l_inv = np.linalg.inv(np.linalg.cholesky(sigma))
    Y = Xc @ l_inv.T
    dw = l_inv @ d
    num = (Y @ dw) ** 2
    den = float(dw @ dw) * _row_dots(Y)
    scores = np.divide(num, den, out=np.zeros_like(num), where=den > 0)
    return scores.reshape(cube.height, cube.width)

B = predetect._ACE_ROWS
rng = np.random.default_rng(5)
shapes = {"ragged": (85, 145), "one-row": (1, 2 * B + 1),
          "whole-blocks": (128, 128), "one-block": (40, 40)}
assert 85 * 145 == 3 * B + 37 and 128 * 128 == 4 * B
for name, (height, width) in shapes.items():
    cube = h.HsiCube(rng.random((60, height, width)) + 0.1)
    d = rng.random(60) + 0.1
    got, want = h.ace_detect(cube, d).values, whole_cube_ace(cube, d)
    print(name, got.tobytes() == want.tobytes(), float(np.max(np.abs(got - want) / want)))
"""


@pytest.mark.parametrize("threads", ["1", "2", "4"])
def test_blocked_ace_matches_the_whole_cube_formula(threads):
    # The thread count must be set before NumPy loads, so each run is its
    # own interpreter, and each compares within itself.
    src = str(Path(h.__file__).resolve().parents[1])
    env = {**os.environ, "OPENBLAS_NUM_THREADS": threads,
           "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))}
    run = subprocess.run([sys.executable, "-c", _BLOCKED_ACE], env=env,
                         capture_output=True, text=True, timeout=300, check=True)
    rows = {name: (same == "True", float(rel)) for name, same, rel in map(str.split, run.stdout.splitlines())}
    assert list(rows) == ["ragged", "one-row", "whole-blocks", "one-block"]
    # One BLAS thread: every pixel's bytes, whatever the block layout.
    # More threads: the whole-cube GEMV splits its rows among the threads,
    # at a row that is not a multiple of 4 when the pixel count is ragged,
    # and rows at such a split round in the last bit differently from the
    # same rows inside a block.  Whole blocks and single blocks stay exact.
    for name, (same, rel) in rows.items():
        if threads == "1" or name in ("whole-blocks", "one-block"):
            assert same, (name, rel)
        else:
            assert rel < 1e-13, (name, rel)


def test_ace_holds_no_centred_copy_of_the_cube():
    # 256x256 pixels are sixteen blocks.  ACE holds a centred and a whitened
    # block, an eighth of the cube; a centred copy of the whole cube (the old
    # covariance pass) peaks at over one cube.
    rng = np.random.default_rng(2)
    cube = h.HsiCube(rng.random((60, 256, 256)) + 0.1)
    d = rng.random(60) + 0.1
    tracemalloc.start()
    try:
        h.ace_detect(cube, d)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak / cube.data.nbytes < 0.25


_BLAS = hcube._openblas_threads()


@pytest.mark.skipif(_BLAS is None, reason="NumPy's bundled scipy-openblas is absent")
class TestOneBlasThread:
    """CEM, ACE and scene generation run on one OpenBLAS thread and hand the
    caller's count back, whether they return or raise."""

    @pytest.fixture
    def caller_count(self):
        get, put = _BLAS
        before = get()
        put(2)
        yield 2
        put(before)

    @pytest.fixture
    def inside(self, monkeypatch):
        counts = []
        regularized = predetect._regularized

        def spying(mat, label, shape):
            counts.append(_BLAS[0]())
            return regularized(mat, label, shape)

        monkeypatch.setattr(predetect, "_regularized", spying)
        return counts

    @pytest.mark.parametrize("detector", [h.cem_detect, h.ace_detect])
    def test_detector_runs_on_one_thread(self, caller_count, inside, detector):
        detector(make_cube(np.random.default_rng(0)), np.ones(4))
        assert inside == [1]
        assert _BLAS[0]() == caller_count

    def test_count_is_restored_when_ace_raises(self, caller_count, inside):
        with pytest.raises(predetect.SingularStatisticsError):
            h.ace_detect(h.HsiCube(np.full((3, 2, 2), 0.5)), np.ones(3))
        assert inside == [1]
        assert _BLAS[0]() == caller_count

    def test_count_is_restored_when_cem_rejects_its_signature(self, caller_count):
        with pytest.raises(ValueError, match="signature length"):
            h.cem_detect(h.HsiCube(np.ones((3, 2, 2))), np.ones(4))
        assert _BLAS[0]() == caller_count

    def test_scene_mixing_runs_on_one_thread(self, caller_count, monkeypatch):
        counts = []

        def matmul(*args, **kwargs):
            counts.append(_BLAS[0]())
            return np.matmul(*args, **kwargs)

        monkeypatch.setattr(synth, "np", SimpleNamespace(**{**vars(np), "matmul": matmul}))
        h.generate(h.SceneSpec(width=8, height=8, bands=5, n_endmembers=2, n_targets=1, seed=0))
        assert counts == [1]
        assert _BLAS[0]() == caller_count


def test_import_loads_no_blas_library():
    src = str(Path(h.__file__).resolve().parents[1])
    env = {**os.environ,
           "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))}
    run = subprocess.run(
        [sys.executable, "-c", "import hsidet.cube as c; print(c._openblas_threads.cache_info().misses)"],
        env=env, capture_output=True, text=True, timeout=60, check=True)
    assert run.stdout == "0\n"


class TestRidgeLoading:
    """Ill-conditioned statistics are ridge loaded; singular ones raise."""

    def duplicated_band_cube(self):
        data = np.random.default_rng(3).random((4, 5, 5)) + 0.1
        data[3] = data[2]                       # cond(R) near 1e34
        return h.HsiCube(data)

    def loads(self, monkeypatch):
        calls = []
        regularized = predetect._regularized

        def spying(mat, label, shape):
            out = regularized(mat, label, shape)
            calls.append(out - mat)
            return out

        monkeypatch.setattr(predetect, "_regularized", spying)
        return calls

    @pytest.mark.parametrize("detector", ["cem", "ace"])
    def test_duplicated_band_gets_ridge_loading(self, monkeypatch, detector):
        cube = self.duplicated_band_cube()
        d = cube.pixel_at(2, 3)
        calls = self.loads(monkeypatch)
        scores = getattr(h, f"{detector}_detect")(cube, d).values
        (added,) = calls
        ridge = np.diag(added)
        assert ridge.min() > 0.0 and np.allclose(ridge, ridge[0], rtol=1e-6, atol=0)
        assert np.allclose(added, np.diag(ridge), rtol=0, atol=1e-15)
        if detector == "cem":
            assert abs(scores[3, 2] - 1.0) < 1e-9
        else:
            assert np.all(np.isfinite(scores))
            assert scores.min() >= 0.0 and scores.max() <= 1.0
            assert np.allclose(scores.ravel(), ace_oracle(cube, d, added), rtol=0, atol=1e-10)

    def test_all_zero_cube_is_singular_for_cem(self):
        with pytest.raises(predetect.SingularStatisticsError,
                           match=r"^CEM correlation matrix of \(pixels, bands\) \(4, 3\) is singular"):
            h.cem_detect(h.HsiCube(np.zeros((3, 2, 2))), np.ones(3))

    def test_constant_cube_is_singular_for_ace(self):
        with pytest.raises(predetect.SingularStatisticsError,
                           match=r"^ACE covariance of \(pixels, bands\) \(4, 3\) is singular"):
            h.ace_detect(h.HsiCube(np.full((3, 2, 2), 0.5)), np.ones(3))


class TestSelectTrainingSets:
    def test_paper_scale_split(self):
        rng = np.random.default_rng(7)
        cube = make_cube(rng, bands=3, height=10, width=10)
        scores = h.ScoreMap(rng.random((10, 10)))
        tgt, bg = h.select_training_sets(scores, cube, 10, 0.8)
        assert tgt.shape == (10, 3) and bg.shape == (80, 3)
        # disjoint: no target spectrum appears in the background set
        for t in tgt:
            assert not np.any(np.all(np.isclose(bg, t), axis=1))

    def test_all_tied_scores_deterministic_and_disjoint(self):
        cube = make_cube(np.random.default_rng(8), bands=2, height=5, width=5)
        scores = h.ScoreMap(np.ones((5, 5)))
        tgt1, bg1 = h.select_training_sets(scores, cube, 3, 0.6)
        tgt2, bg2 = h.select_training_sets(scores, cube, 3, 0.6)
        assert np.array_equal(tgt1, tgt2) and np.array_equal(bg1, bg2)
        X = cube.pixels()
        # ties resolve along row-major order: background head, targets tail
        assert np.array_equal(bg1, X[:15])
        assert np.array_equal(tgt1, X[[24, 23, 22]])

    def test_matches_full_sort_oracle(self):
        rng = np.random.default_rng(9)
        cube = make_cube(rng, bands=2, height=5, width=5)
        vals = rng.permutation(25).astype(float).reshape(5, 5)
        tgt, bg = h.select_training_sets(h.ScoreMap(vals), cube, 4, 0.6)
        order = np.argsort(vals.ravel())
        X = cube.pixels()
        assert np.array_equal(bg, X[order[:15]])
        assert np.array_equal(tgt, X[order[-4:][::-1]])

    def test_overlap_forced_is_error(self):
        cube = make_cube(np.random.default_rng(10), bands=2, height=5, width=5)
        scores = h.ScoreMap(np.zeros((5, 5)))
        with pytest.raises(ValueError, match="background samples"):
            h.select_training_sets(scores, cube, 10, 0.8)

    def test_fraction_selecting_no_background_is_error(self):
        cube = make_cube(np.random.default_rng(12))
        scores = h.ScoreMap(np.zeros((5, 5)))
        with pytest.raises(ValueError, match=r"bg_fraction 0\.01 selects no background pixels out of 25"):
            h.select_training_sets(scores, cube, 1, 0.01)

    def test_invalid_fraction(self):
        cube = make_cube(np.random.default_rng(11))
        scores = h.ScoreMap(np.zeros((5, 5)))
        with pytest.raises(ValueError, match=r"^bg_fraction must lie in \(0, 1\)$"):
            h.select_training_sets(scores, cube, 1, 1.0)
