"""Online dictionary learning properties."""

import numpy as np
import pytest

import hsidet as h
from hsidet import dictlearn


def rank_one_samples(rng, n=30, bands=8):
    u = rng.normal(size=bands)
    u /= np.linalg.norm(u)
    scales = rng.uniform(0.5, 2.0, n)
    return u, scales[:, None] * u


def subspace_samples(rng, n=60, bands=10, dim=3):
    basis = np.linalg.qr(rng.normal(size=(bands, dim)))[0]
    coef = rng.uniform(-1.0, 1.0, (n, dim))
    return basis, coef @ basis.T


def dense_outer_odl(samples, params):
    """ODL with dense rank-one statistics updates and a fresh dictionary per
    coding call.  Returns (dictionary, per-epoch objectives, dead atoms)."""
    X = np.asarray(samples, dtype=np.float64)
    n, m = X.shape
    k = params.n_atoms
    D = h.init_dictionary(X, k, params.seed).columns.copy()
    rng = np.random.default_rng(params.seed + 1)
    solver = h.SolverParams(lam=params.lam, max_nonzeros=min(params.sparsity, k))
    A, B = np.zeros((k, k)), np.zeros((m, k))
    used = np.zeros(k, dtype=bool)
    trace = []
    for _ in range(params.epochs):
        order = rng.permutation(n)
        epoch_obj = 0.0
        for start in range(0, n, params.batch_size):
            codes = []
            for i in order[start:start + params.batch_size]:
                code = h.sparse_code(X[i], h.Dictionary(D), solver)
                a = code.dense()
                codes.append((X[i], a))
                r = X[i] - D @ a
                epoch_obj += 0.5 * float(r @ r) + params.lam * float(np.abs(a).sum())
                used[code.indices] = True
            for x, a in codes:
                A += np.outer(a, a)
                B += np.outer(x, a)
            for j in range(k):
                if A[j, j] <= 1e-12:
                    continue
                u = D[:, j] + (B[:, j] - D @ A[:, j]) / A[j, j]
                norm = np.linalg.norm(u)
                if norm > 0.0:
                    D[:, j] = u / norm
        trace.append(epoch_obj / n)
    dead = np.flatnonzero(~used)
    if dead.size:
        residuals = np.array([
            np.linalg.norm(x - D @ h.sparse_code(x, h.Dictionary(D), solver).dense())
            for x in X
        ])
        worst = np.argsort(-residuals)
        for pos, j in enumerate(dead):
            repl = X[worst[pos % n]]
            D[:, j] = repl / np.linalg.norm(repl)
    D /= np.linalg.norm(D, axis=0)
    return h.Dictionary(D), trace, dead.size


class TestOdlLearn:
    @pytest.mark.parametrize("n_samples,bands,n_atoms,lam", [
        (12, 10, 30, 0.1),   # more atoms than samples: dead atoms are replaced
        (60, 20, 12, 0.05),  # greedy coding path, codes of several atoms
        (30, 8, 6, 0.0),     # exact enumeration path, plain least squares
    ])
    def test_matches_dense_outer_reference_bit_exact(self, n_samples, bands, n_atoms, lam):
        rng = np.random.default_rng(n_atoms)
        X = rng.normal(size=(n_samples, bands))  # codes with several atoms
        params = h.OdlParams(n_atoms=n_atoms, lam=lam, epochs=3, batch_size=8, seed=4)
        trace = []
        D = h.odl_learn(X, params, objective_trace=trace)
        want, want_trace, dead = dense_outer_odl(X, params)
        assert np.array_equal(D.columns, want.columns)
        assert trace == want_trace
        if n_atoms > n_samples:
            assert dead > 0

    def test_atoms_are_unit_norm(self):
        rng = np.random.default_rng(0)
        X = rng.random((40, 8)) + 0.1
        D = h.odl_learn(X, h.OdlParams(n_atoms=6, seed=0))
        assert np.max(np.abs(np.linalg.norm(D.columns, axis=0) - 1.0)) < 1e-9

    def test_seeded_determinism_bit_exact(self):
        rng = np.random.default_rng(1)
        X = rng.random((50, 10)) + 0.1
        D1 = h.odl_learn(X, h.OdlParams(n_atoms=5, seed=7))
        D2 = h.odl_learn(X, h.OdlParams(n_atoms=5, seed=7))
        assert np.array_equal(D1.columns, D2.columns)

    def test_different_seeds_differ(self):
        rng = np.random.default_rng(2)
        X = rng.random((50, 10)) + 0.1
        D1 = h.odl_learn(X, h.OdlParams(n_atoms=5, seed=0))
        D2 = h.odl_learn(X, h.OdlParams(n_atoms=5, seed=1))
        assert not np.array_equal(D1.columns, D2.columns)

    def test_objective_trend_improves(self):
        # mean coding objective after training beats the initial dictionary,
        # across several seeds
        for seed in range(5):
            rng = np.random.default_rng(100 + seed)
            _, X = subspace_samples(rng)
            params = h.OdlParams(n_atoms=5, lam=0.1, epochs=4, seed=seed)
            solver = h.SolverParams(lam=0.1, max_nonzeros=5)

            def mean_obj(D):
                total = 0.0
                for x in X:
                    code = h.sparse_code(x, D, solver)
                    a = code.dense()
                    r = x - D.columns @ a
                    total += 0.5 * float(r @ r) + 0.1 * float(np.abs(a).sum())
                return total / X.shape[0]

            D0 = h.init_dictionary(X, 5, seed)
            D = h.odl_learn(X, params)
            assert mean_obj(D) <= mean_obj(D0) + 1e-9

    def test_trace_reports_one_value_per_epoch(self):
        rng = np.random.default_rng(3)
        X = rng.random((40, 8)) + 0.1
        trace = []
        h.odl_learn(X, h.OdlParams(n_atoms=4, epochs=6, seed=0), objective_trace=trace)
        assert len(trace) == 6
        assert trace[-1] <= trace[0] + 1e-9

    def test_rank_one_data_recovers_direction(self):
        # all samples lie on one ray: a single atom must converge to +-u
        rng = np.random.default_rng(4)
        u, X = rank_one_samples(rng)
        D = h.odl_learn(X, h.OdlParams(n_atoms=1, lam=0.0, epochs=5, seed=0))
        assert abs(abs(float(D.columns[:, 0] @ u)) - 1.0) < 1e-6

    def test_subspace_data_reconstructed(self):
        # enough atoms and epochs: residuals on the training set become tiny
        rng = np.random.default_rng(5)
        _, X = subspace_samples(rng, n=60, bands=10, dim=3)
        D = h.odl_learn(X, h.OdlParams(n_atoms=6, lam=0.0, epochs=20, seed=0))
        solver = h.SolverParams(lam=0.0, max_nonzeros=5)
        worst = max(
            h.residual_norm(x, D, h.sparse_code(x, D, solver)) for x in X
        )
        assert worst < 1e-3

    def test_more_atoms_than_samples_uses_jitter(self):
        rng = np.random.default_rng(6)
        X = rng.random((4, 6)) + 0.1
        D = h.odl_learn(X, h.OdlParams(n_atoms=9, seed=0))
        assert D.n_atoms == 9
        assert np.max(np.abs(np.linalg.norm(D.columns, axis=0) - 1.0)) < 1e-9

    def test_zero_only_training_set_rejected(self):
        with pytest.raises(ValueError):
            h.odl_learn(np.zeros((5, 4)), h.OdlParams(n_atoms=2))


class TestInitDictionary:
    def test_atoms_drawn_from_samples(self):
        rng = np.random.default_rng(7)
        X = rng.random((20, 6)) + 0.1
        D = h.init_dictionary(X, 5, seed=0)
        normed = X / np.linalg.norm(X, axis=1, keepdims=True)
        for j in range(5):
            assert np.any(np.all(np.isclose(normed, D.columns[:, j], atol=1e-12), axis=1))

    def test_deterministic(self):
        rng = np.random.default_rng(8)
        X = rng.random((20, 6)) + 0.1
        assert np.array_equal(
            h.init_dictionary(X, 5, seed=3).columns,
            h.init_dictionary(X, 5, seed=3).columns,
        )


class TestLearnGlobalDictionaries:
    def test_shapes_follow_config(self):
        rng = np.random.default_rng(9)
        cube = h.HsiCube(rng.random((8, 12, 12)) + 0.1)
        d = rng.random(8) + 0.3
        config = h.DetectorConfig(
            window=h.WindowSpec(5, 1), n_target_atoms=4, n_bg_atoms=16,
            n_target_train=6, odl_epochs=2,
        )
        D_t, D_b = h.learn_global_dictionaries(cube, d, config)
        assert D_t.columns.shape == (8, 4)
        assert D_b.columns.shape == (8, 16)
        for D in (D_t, D_b):
            assert np.max(np.abs(np.linalg.norm(D.columns, axis=0) - 1.0)) < 1e-9

    def test_deterministic_per_seed(self):
        rng = np.random.default_rng(10)
        cube = h.HsiCube(rng.random((6, 10, 10)) + 0.1)
        d = rng.random(6) + 0.3
        config = h.DetectorConfig(
            window=h.WindowSpec(5, 1), n_target_atoms=3, n_bg_atoms=8,
            n_target_train=5, odl_epochs=2, seed=11,
        )
        a = h.learn_global_dictionaries(cube, d, config)
        b = h.learn_global_dictionaries(cube, d, config)
        assert np.array_equal(a[0].columns, b[0].columns)
        assert np.array_equal(a[1].columns, b[1].columns)

    def test_target_dictionary_alone_equals_the_first_of_both(self, monkeypatch):
        rng = np.random.default_rng(12)
        cube = h.HsiCube(rng.random((6, 10, 10)) + 0.1)
        d = rng.random(6) + 0.3
        config = h.DetectorConfig(
            window=h.WindowSpec(5, 1), n_target_atoms=3, n_bg_atoms=8,
            n_target_train=5, odl_epochs=2, seed=5,
        )
        D_t, _ = h.learn_global_dictionaries(cube, d, config)
        calls = []
        learn = dictlearn.odl_learn

        def counting(samples, params, *args, **kwargs):
            calls.append(params.n_atoms)
            return learn(samples, params, *args, **kwargs)

        monkeypatch.setattr(dictlearn, "odl_learn", counting)
        fit = h.Fit(cube, d, config)
        assert fit.D_t.columns.tobytes() == D_t.columns.tobytes()
        assert calls == [config.n_target_atoms]  # D_b was never learned

    def test_default_atom_counts(self):
        config = h.DetectorConfig()
        assert config.n_target_atoms == 10
        assert config.n_bg_atoms == 1000
        assert config.n_target_train == 10
        assert config.bg_fraction == 0.8
