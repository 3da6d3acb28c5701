"""Online dictionary learning properties."""

import tracemalloc
import warnings

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


def initial_dictionary(samples, n_atoms, seed):
    """The seed atoms ``odl_learn`` starts from, as a dictionary."""
    return h.Dictionary(dictlearn._initial_atoms(samples, n_atoms, seed)[2])


def dense_outer_odl(samples, params):
    """ODL with dense rank-one statistics updates and a fresh dictionary per
    coding call.  Returns (dictionary, per-epoch objectives, dead atoms); a
    draw of every nonzero sample is returned as drawn."""
    X = np.asarray(samples, dtype=np.float64)
    n, m = X.shape
    D = initial_dictionary(X, params.n_atoms, params.seed).columns.copy()
    k = D.shape[1]
    if k == np.count_nonzero(np.linalg.norm(X, axis=1)):
        return h.Dictionary(D), [], 0
    rng = np.random.default_rng(params.seed + 1)
    solver = h.SolverParams(lam=params.lam, max_nonzeros=min(params.sparsity, k))
    size = max(32, k // 8)
    A, B = np.zeros((k, k)), np.zeros((m, k))
    used = np.zeros(k, dtype=bool)
    trace = []
    for _ in range(params.epochs):
        order = rng.permutation(n)
        epoch_obj = 0.0
        for start in range(0, n, size):
            codes, terms = [], []
            for i in order[start:start + size]:
                code = h.sparse_code(X[i], h.Dictionary(D), solver)
                codes.append((X[i], code.dense()))
                r = h.residual_norm(X[i], h.Dictionary(D), code)
                terms.append(0.5 * r * r + params.lam * np.abs(code.coefficients).sum())
                used[code.indices] = True
            epoch_obj += float(np.sum(terms))
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
            repl = X[worst[pos]]
            D[:, j] = repl / np.linalg.norm(repl)
    return h.Dictionary(D), trace, dead.size


class TestOdlLearn:
    @pytest.mark.parametrize("n_samples,bands,n_atoms,lam", [
        (70, 20, 69, 0.1),   # one sample drawn twice: a tied atom dies
        (80, 20, 12, 0.05),  # greedy coding path, codes of several atoms
        (75, 8, 6, 0.0),     # exact enumeration path, plain least squares
    ])
    def test_matches_dense_outer_reference_bit_exact(self, n_samples, bands, n_atoms, lam):
        rng = np.random.default_rng(n_atoms)
        X = rng.normal(size=(n_samples, bands))  # codes with several atoms
        if n_atoms == n_samples - 1:
            # Duplicate atoms tie, the lower column wins and the other dies.
            X[1] = X[0]
        # Batches of 32 samples, the last one short.
        params = h.OdlParams(n_atoms=n_atoms, lam=lam, epochs=3, seed=4)
        trace = []
        D = h.odl_learn(X, params, objective_trace=trace)
        want, want_trace, dead = dense_outer_odl(X, params)
        assert np.array_equal(D.columns, want.columns)
        assert trace == want_trace
        assert D.n_atoms == n_atoms
        if n_atoms == n_samples - 1:
            assert dead > 0

    def test_atoms_are_unit_norm(self):
        rng = np.random.default_rng(0)
        X = rng.random((40, 8)) + 0.1
        D = h.odl_learn(X, h.OdlParams(n_atoms=6, seed=0))
        assert np.max(np.abs(np.linalg.norm(D.columns, axis=0) - 1.0)) < 1e-12

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

            D0 = initial_dictionary(X, 5, seed)
            D = h.odl_learn(X, params)
            assert mean_obj(D) <= mean_obj(D0) + 1e-9

    def test_trace_reports_one_value_per_epoch(self):
        rng = np.random.default_rng(3)
        X = rng.random((40, 8)) + 0.1
        trace = []
        h.odl_learn(X, h.OdlParams(n_atoms=4, epochs=6, seed=0), objective_trace=trace)
        assert len(trace) == 6
        assert trace[-1] <= trace[0] + 1e-9

    def test_trace_does_not_change_the_atoms(self):
        rng = np.random.default_rng(5)
        X = rng.normal(size=(70, 8))
        params = h.OdlParams(n_atoms=6, epochs=3, seed=2)
        D = h.odl_learn(X, params)
        D_traced = h.odl_learn(X, params, objective_trace=[])
        assert D.columns.tobytes() == D_traced.columns.tobytes()

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

    def test_one_atom_per_sample(self):
        # More atoms than samples: each sample is one atom, and codes as it.
        rng = np.random.default_rng(6)
        X = rng.random((4, 6)) + 0.1
        D = h.odl_learn(X, h.OdlParams(n_atoms=9, seed=0))
        assert D.n_atoms == 4
        unit = X / np.linalg.norm(X, axis=1, keepdims=True)
        match = np.abs(unit[:, :, None] - D.columns[None]).max(axis=1) < 1e-12
        assert np.array_equal(match.sum(axis=0), [1, 1, 1, 1])
        assert np.array_equal(match.sum(axis=1), [1, 1, 1, 1])

    def test_zero_only_training_set_rejected(self):
        with pytest.raises(ValueError):
            h.odl_learn(np.zeros((5, 4)), h.OdlParams(n_atoms=2))

    def test_samples_follow_the_atom_rule(self):
        # A sample at 1e-160 has a subnormal x @ x: it is no atom and never
        # drawn, as a zero sample is, so five atoms of six samples are the
        # draw of all five.  One at 1e-150 is an atom, unit-norm to 1e-12.
        # A set of only samples that are no atoms is rejected.
        X = np.random.default_rng(15).random((6, 10)) + 0.1
        X[1], X[4] = 1e-160, 1e-150
        params = h.OdlParams(n_atoms=5, seed=3)
        D = h.odl_learn(X, params)
        X[1] = 0.0
        assert D.columns.tobytes() == h.odl_learn(X, params).columns.tobytes()
        assert D.columns.tobytes() == initial_dictionary(X, 5, 3).columns.tobytes()
        assert np.max(np.abs(np.linalg.norm(D.columns, axis=0) - 1.0)) < 1e-12
        small = (X[4] / np.sqrt(X[4] @ X[4])).tobytes()
        assert sum(column.tobytes() == small for column in D.columns.T) == 1
        with pytest.raises(ValueError, match="^training set contains only zero samples$"):
            h.odl_learn(np.full((5, 4), 1e-160), h.OdlParams(n_atoms=2))

    def test_peak_holds_no_normalized_copy_of_the_samples(self):
        # Only the drawn samples are made atoms.  A normalized copy of the
        # samples would be one whole sample set; the finite check's mask is
        # an eighth of one.
        X = np.random.default_rng(16).random((10000, 64))
        tracemalloc.start()
        try:
            h.odl_learn(X, h.OdlParams(n_atoms=4, epochs=1, sparsity=1))
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 0.25 * X.nbytes

    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    def test_non_finite_sample_rejected(self, bad):
        X = np.ones((5, 4))
        X[2, 1] = bad
        with pytest.raises(ValueError, match="^training set contains non-finite values$"):
            h.odl_learn(X, h.OdlParams(n_atoms=2))

    def test_dead_atoms_skip_zero_samples(self):
        # Both atoms are one spectrum, so every nonzero sample codes with
        # atom 0 and atom 1 dies.  Every residual is zero, so the worst-
        # reconstructed sample is the zero one; atom 1 takes a nonzero
        # sample instead.
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            D = h.odl_learn([[0, 0, 0], [1, 0, 0], [1, 0, 0], [2, 0, 0]],
                            h.OdlParams(n_atoms=2, lam=0.0, epochs=1))
        assert np.array_equal(D.columns, [[1.0, 1.0], [0.0, 0.0], [0.0, 0.0]])

    @pytest.mark.parametrize("sparsity", [-1, 0, 13])
    def test_sparsity_outside_one_to_twelve_rejected(self, sparsity):
        with pytest.raises(ValueError, match=r"^sparsity must lie in \[1, 12\]"):
            h.OdlParams(n_atoms=4, sparsity=sparsity)


def sequential_atom_update(D, A, B):
    """Block coordinate descent one atom at a time, in index order."""
    for j in range(D.shape[1]):
        if A[j, j] <= 1e-12:
            continue
        u = D[:, j] + (B[:, j] - D @ A[:, j]) / A[j, j]
        norm = np.linalg.norm(u)
        if norm > 0.0:
            D[:, j] = u / norm


class TestStackedOdl:
    def test_codes_each_mini_batch_in_one_call(self, monkeypatch):
        calls = []
        code_block = dictlearn.code_block

        def counting(X, D, params):
            calls.append(len(X))
            return code_block(X, D, params)

        monkeypatch.setattr(dictlearn, "code_block", counting)
        rng = np.random.default_rng(9)
        # A batch holds max(32, k // 8) samples for k atoms: 32 up to 263
        # atoms, 125 at 1000.
        for n, n_atoms, epochs, want in [
            # three epochs of batches of 32, 32 and 6 samples, then one call
            # that codes every sample to rank the replacements of dead atoms
            (70, 69, 3, [32, 32, 6] * 3 + [70]),
            (300, 263, 1, [32] * 9 + [12]),
            (1100, 1000, 1, [125] * 8 + [100]),
        ]:
            X = rng.normal(size=(n, 10))
            X[1] = X[0]  # at 69 atoms the two tie, and one of them dies
            calls.clear()
            h.odl_learn(X, h.OdlParams(n_atoms=n_atoms, epochs=epochs, seed=1))
            assert calls == want

    def test_a_draw_of_every_sample_is_the_dictionary(self, monkeypatch):
        # Each sample would code as its own atom alone, and the refresh would
        # return that atom up to rounding: the draw is returned, and nothing
        # is coded.
        calls = []
        code_block = dictlearn.code_block

        def counting(X, D, params):
            calls.append(len(X))
            return code_block(X, D, params)

        monkeypatch.setattr(dictlearn, "code_block", counting)
        X = np.random.default_rng(14).normal(size=(12, 10))
        X[3] = 0.0
        trace = []
        D = h.odl_learn(X, h.OdlParams(n_atoms=30, epochs=3, seed=2),
                        objective_trace=trace)
        assert calls == [] and trace == []
        assert D.n_atoms == 11
        assert D.columns.tobytes() == initial_dictionary(X, 30, 2).columns.tobytes()

    def test_sample_layout_does_not_change_the_atoms(self, monkeypatch):
        # A repeated sample drawn twice leaves a dead atom, so the dead-atom
        # pass codes every sample.
        calls = []
        code_block = dictlearn.code_block

        def counting(X, D, params):
            calls.append(len(X))
            return code_block(X, D, params)

        monkeypatch.setattr(dictlearn, "code_block", counting)
        X = np.random.default_rng(9).normal(size=(70, 10))
        X[1] = X[0]
        params = h.OdlParams(n_atoms=69, epochs=3, seed=1)
        learned = [h.odl_learn(rows, params) for rows in (X, np.asfortranarray(X))]
        assert calls[9] == calls[-1] == 70
        assert learned[0].columns.tobytes() == learned[1].columns.tobytes()

    def test_atom_update_matches_sequential_pass(self):
        # Mostly one-atom codes (vector step) with a few shared codes
        # (sequential step); the last atoms are never used.
        rng = np.random.default_rng(11)
        m, k = 15, 40
        D = rng.normal(size=(m, k))
        D /= np.linalg.norm(D, axis=0)
        A, B = np.zeros((k, k)), np.zeros((m, k))
        coupled = np.zeros(k, dtype=bool)
        for size in rng.choice([1, 1, 1, 2, 3], 60):
            idx = np.sort(rng.choice(k - 5, size, replace=False))
            c = rng.normal(size=size)
            A[np.ix_(idx, idx)] += np.outer(c, c)
            B[:, idx] += np.outer(rng.normal(size=m), c)
            coupled[idx] |= size > 1
        want = D.copy()
        sequential_atom_update(want, A, B)
        dictlearn._update_atoms(D, A, B, coupled)
        assert D.tobytes() == want.tobytes()
        active = np.diagonal(A) > 1e-12
        assert np.any(active & coupled) and np.any(active & ~coupled) and not active.all()


def init_one_atom_at_a_time(X, n_atoms, seed):
    nonzero = X[np.linalg.norm(X, axis=1) > 0.0]
    n = nonzero.shape[0]
    rng = np.random.default_rng(seed)
    perm = rng.permutation(n)
    cols = []
    for i in range(min(n_atoms, n)):
        atom = nonzero[perm[i]]
        cols.append(atom / np.linalg.norm(atom))
    return np.stack(cols, axis=1)


class TestInitDictionary:
    def test_atoms_drawn_from_samples(self):
        rng = np.random.default_rng(7)
        X = rng.random((20, 6)) + 0.1
        D = initial_dictionary(X, 5, seed=0)
        normed = X / np.linalg.norm(X, axis=1, keepdims=True)
        for j in range(5):
            assert np.any(np.all(np.isclose(normed, D.columns[:, j], atol=1e-12), axis=1))

    def test_matches_one_atom_at_a_time(self):
        rng = np.random.default_rng(13)
        for n, bands, n_atoms, kept in ((20, 6, 5, 5), (7, 30, 40, 6), (3, 60, 1000, 2)):
            X = rng.normal(size=(n, bands)) * rng.uniform(0.01, 100.0)
            X[0] = 0.0
            D = initial_dictionary(X, n_atoms, seed=n)
            assert D.n_atoms == kept
            assert D.columns.flags.c_contiguous
            assert D.columns.tobytes() == init_one_atom_at_a_time(X, n_atoms, n).tobytes()

    def test_deterministic(self):
        rng = np.random.default_rng(8)
        X = rng.random((20, 6)) + 0.1
        assert np.array_equal(
            initial_dictionary(X, 5, seed=3).columns,
            initial_dictionary(X, 5, seed=3).columns,
        )


class TestLearnGlobalDictionaries:
    """The target and global background dictionaries ``Fit`` learns."""

    def test_shapes_follow_config(self):
        rng = np.random.default_rng(9)
        cube = h.HsiCube(rng.random((8, 12, 12)) + 0.1)
        d = rng.random(8) + 0.3
        config = h.DetectorConfig(
            window=h.WindowSpec(5, 1), n_target_atoms=4, n_bg_atoms=16,
            n_target_train=6, odl_epochs=2,
        )
        fit = h.Fit(cube, d, config)
        D_t, D_b = fit.D_t, fit.D_b
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
        a, b = h.Fit(cube, d, config), h.Fit(cube, d, config)
        assert np.array_equal(a.D_t.columns, b.D_t.columns)
        assert np.array_equal(a.D_b.columns, b.D_b.columns)

    def test_target_dictionary_alone_equals_the_first_of_both(self, monkeypatch):
        rng = np.random.default_rng(12)
        cube = h.HsiCube(rng.random((6, 10, 10)) + 0.1)
        d = rng.random(6) + 0.3
        config = h.DetectorConfig(
            window=h.WindowSpec(5, 1), n_target_atoms=3, n_bg_atoms=8,
            n_target_train=5, odl_epochs=2, seed=5,
        )
        both = h.Fit(cube, d, config)
        D_t, _ = both.D_t, both.D_b  # both learned, D_t first
        calls = []
        learn = dictlearn.odl_learn

        def counting(samples, params, *args, **kwargs):
            calls.append(params.n_atoms)
            return learn(samples, params, *args, **kwargs)

        monkeypatch.setattr(dictlearn, "odl_learn", counting)
        fit = h.Fit(cube, d, config)
        assert fit.D_t.columns.tobytes() == D_t.columns.tobytes()
        assert calls == [config.n_target_atoms]  # D_b was never learned

    def test_dictlearn_holds_only_odl(self):
        # The pipeline's stages live in detector.Fit; dictlearn is the ODL
        # algorithm alone.
        borrowed = {name for name, value in vars(dictlearn).items()
                    if getattr(value, "__module__", None) in
                    ("hsidet.predetect", "hsidet.config", "hsidet.detector")}
        assert borrowed == set()
        assert not hasattr(dictlearn, "DictionaryFit")

    def test_background_dictionary_capped_at_its_samples(self):
        # A 16x16 scene at the default config asks for 1000 background atoms
        # but trains on 204 samples, so D_b has one atom per sample.
        spec = h.SceneSpec(width=16, height=16, bands=60, n_endmembers=4, n_targets=6,
                           target_fill=0.3, noise_sigma=0.03, seed=7, placement="scattered")
        cube, _, signature = h.generate(spec)
        fit = h.Fit(cube, signature, h.DetectorConfig(seed=7))
        assert fit.D_b.n_atoms == len(fit.training_sets[1]) == 204

    def test_preset_target_dictionary_is_its_draw(self):
        # The preset's 10 CEM-selected pixels give its 10 target atoms.
        cube, _, signature = h.generate(h.PRESETS["sparse-targets"])
        config = h.preset_config("sparse-targets")
        fit = h.Fit(cube, signature, config)
        want = initial_dictionary(fit.training_sets[0], 10, config.seed)
        assert fit.D_t.columns.tobytes() == want.columns.tobytes()

    def test_default_atom_counts(self):
        config = h.DetectorConfig()
        assert config.n_target_atoms == 10
        assert config.n_bg_atoms == 1000
        assert config.n_target_train == 10
        assert config.bg_fraction == 0.8
