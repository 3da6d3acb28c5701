"""Sparse solver tests, checked against an independent exhaustive oracle."""

import itertools
import math

import numpy as np
import pytest
from scipy.optimize import minimize

import hsidet as h
from hsidet.sparse import (
    _ENUM_LIMIT,
    _SWAP_CANDIDATES,
    _make_code,
    _screen_candidates,
    _solve_support,
)


def exhaustive_oracle(x, D, lam, k):
    """Best capped-support L1 objective by enumerating every support and
    solving each subproblem with bound-constrained L-BFGS on a sign split."""
    best = 0.5 * float(x @ x)
    for size in range(1, k + 1):
        for support in itertools.combinations(range(D.shape[1]), size):
            Ds = D[:, support]

            def f(z, Ds=Ds, size=size):
                a = z[:size] - z[size:]
                r = x - Ds @ a
                return 0.5 * float(r @ r) + lam * float(z.sum())

            res = minimize(
                f, np.zeros(2 * size), method="L-BFGS-B",
                bounds=[(0, None)] * 2 * size,
                options={"ftol": 1e-15, "gtol": 1e-12, "maxiter": 500},
            )
            best = min(best, res.fun)
    return best


def solver_objective(x, D, code, lam):
    a = code.dense()
    r = x - D @ a
    return 0.5 * float(r @ r) + lam * float(np.abs(a).sum())


def random_dictionary(rng, m, n):
    D = rng.normal(size=(m, n))
    return D / np.linalg.norm(D, axis=0)


class TestSparseCode:
    def test_exact_atom_with_zero_lambda(self):
        rng = np.random.default_rng(0)
        D = random_dictionary(rng, 8, 5)
        x = D[:, 2].copy()
        code = h.sparse_code(x, h.Dictionary(D), h.SolverParams(lam=0.0, max_nonzeros=3))
        assert h.residual_norm(x, h.Dictionary(D), code) < 1e-9
        dense = code.dense()
        assert abs(dense[2] - 1.0) < 1e-9
        assert np.all(np.abs(np.delete(dense, 2)) < 1e-9)

    def test_zero_input_gives_zero_code(self):
        D = random_dictionary(np.random.default_rng(1), 6, 4)
        code = h.sparse_code(np.zeros(6), h.Dictionary(D), h.SolverParams())
        assert code.n_nonzeros == 0

    def test_nonfinite_input_rejected(self):
        D = random_dictionary(np.random.default_rng(2), 4, 3)
        with pytest.raises(ValueError):
            h.sparse_code(np.array([1.0, np.nan, 0.0, 0.0]), h.Dictionary(D), h.SolverParams())

    def test_dimension_mismatch_rejected(self):
        D = random_dictionary(np.random.default_rng(3), 4, 3)
        with pytest.raises(ValueError):
            h.sparse_code(np.ones(5), h.Dictionary(D), h.SolverParams())

    def test_matches_exhaustive_oracle_random_case(self):
        rng = np.random.default_rng(4)
        D = random_dictionary(rng, 8, 8)
        x = rng.normal(size=8)
        params = h.SolverParams(lam=0.1, max_nonzeros=3)
        code = h.sparse_code(x, h.Dictionary(D), params)
        obj = solver_objective(x, D, code, 0.1)
        assert obj <= exhaustive_oracle(x, D, 0.1, 3) + 1e-8

    def test_support_cap_respected_on_large_dictionary(self):
        # Large enough to take the greedy path rather than enumeration.
        rng = np.random.default_rng(5)
        D = random_dictionary(rng, 20, 300)
        x = rng.normal(size=20)
        code = h.sparse_code(x, h.Dictionary(D), h.SolverParams(lam=0.05, max_nonzeros=4))
        assert code.n_nonzeros <= 4

    def test_residual_never_exceeds_input_norm(self):
        rng = np.random.default_rng(6)
        for _ in range(20):
            m = int(rng.integers(3, 10))
            n = int(rng.integers(2, 40))
            D = random_dictionary(rng, m, n)
            x = rng.normal(size=m)
            params = h.SolverParams(lam=float(rng.choice([0.0, 0.1, 0.5])),
                                    max_nonzeros=int(rng.integers(1, 6)))
            code = h.sparse_code(x, h.Dictionary(D), params)
            assert h.residual_norm(x, h.Dictionary(D), code) <= np.linalg.norm(x) + 1e-9

    def test_objective_trace_non_increasing(self):
        rng = np.random.default_rng(7)
        for n in (8, 300):  # enumeration path and greedy path
            D = random_dictionary(rng, 10, n)
            x = rng.normal(size=10)
            trace = []
            h.sparse_code(x, h.Dictionary(D), h.SolverParams(lam=0.1, max_nonzeros=3), trace=trace)
            assert len(trace) >= 1
            diffs = np.diff(trace)
            assert np.all(diffs <= 1e-12)

    def test_permutation_equivariance(self):
        rng = np.random.default_rng(8)
        D = random_dictionary(rng, 9, 7)
        x = rng.normal(size=9)
        params = h.SolverParams(lam=0.1, max_nonzeros=3)
        base = h.sparse_code(x, h.Dictionary(D), params)
        perm = rng.permutation(7)
        permuted = h.sparse_code(x, h.Dictionary(D[:, perm]), params)
        dense_base = base.dense()
        dense_perm = permuted.dense()
        assert np.allclose(dense_base[perm], dense_perm, atol=1e-9)


def sequential_greedy(x, mat, params, trace):
    """Greedy admission plus a swap polish that solves one shortlisted
    candidate at a time: the reference for the stacked shortlist screen."""
    n_atoms = mat.shape[1]
    cap = min(params.max_nonzeros, n_atoms)
    support, a = [], np.zeros(0)
    best_obj = 0.5 * float(x @ x)
    trace.append(best_obj)
    for _ in range(cap):
        r = x - mat[:, support] @ a if support else x
        corr = mat.T @ r
        if support:
            corr[np.asarray(support)] = 0.0
        j = int(np.argmax(np.abs(corr)))
        if abs(corr[j]) <= params.lam + 1e-15:
            break
        trial = support + [j]
        a_new, obj = _solve_support(mat[:, trial], x, params.lam, params)
        if obj >= best_obj - 1e-15:
            break
        support, a, best_obj = trial, a_new, obj
        trace.append(obj)
    shortlist = min(n_atoms, _SWAP_CANDIDATES)
    for _ in range(2 * cap):
        improved = False
        for pos in range(len(support)):
            kept = support[:pos] + support[pos + 1:]
            a_kept = (
                _solve_support(mat[:, kept], x, params.lam, params)[0]
                if kept else np.zeros(0)
            )
            r = x - mat[:, kept] @ a_kept if kept else x
            corr = np.abs(mat.T @ r)
            corr[np.asarray(support)] = -1.0
            for cand in np.argsort(-corr)[:shortlist]:
                trial = kept + [int(cand)]
                a_new, obj = _solve_support(mat[:, trial], x, params.lam, params)
                if obj < best_obj - 1e-12:
                    support, a, best_obj = trial, a_new, obj
                    improved = True
                    trace.append(obj)
                    break
            if improved:
                break
        if not improved:
            break
    return _make_code(support, a, n_atoms)


def assert_matches_sequential(x, D, params):
    """Same support, bit-equal coefficients and the same objective trace."""
    n = D.shape[1]
    cap = min(params.max_nonzeros, n)
    assert sum(math.comb(n, s) for s in range(1, cap + 1)) > _ENUM_LIMIT  # greedy path
    got_trace, want_trace = [], []
    got = h.sparse_code(x, h.Dictionary(D), params, trace=got_trace)
    want = sequential_greedy(x, D, params, want_trace)
    assert np.array_equal(got.indices, want.indices)
    assert np.array_equal(got.coefficients, want.coefficients)
    assert got_trace == want_trace


class TestStackedSwapPolish:
    def test_random_300_atom_dictionaries(self):
        rng = np.random.default_rng(20)
        for trial in range(12):
            D = random_dictionary(rng, 30, 300)
            x = D[:, rng.choice(300, 4)] @ rng.normal(size=4) + 0.1 * rng.normal(size=30)
            lam = (0.02, 0.1, 0.3)[trial % 3]
            assert_matches_sequential(x, D, h.SolverParams(lam=lam, max_nonzeros=5))

    def test_hierarchical_dictionary_from_preset(self):
        spec = h.PRESETS["sparse-targets"]
        cube, mask, _ = h.generate(spec)
        config = h.preset_config("sparse-targets")
        pixels = cube.data.reshape(cube.bands, -1).T
        D_global = h.init_dictionary(pixels, config.n_bg_atoms, seed=1)
        D_target = h.init_dictionary(pixels[mask.labels.ravel() == 1], 10, seed=0)
        params = h.SolverParams(lam=config.lam, max_nonzeros=config.k)
        for x, y in ((0, 0), (7, 3), (20, 20), (39, 12), (31, 39)):
            spec_xy = cube.data[:, y, x]
            local = h.local_background(cube, x, y, config.window)
            hier = h.build_hierarchical(D_global, local)
            assert_matches_sequential(spec_xy, hier.columns, params)
            # 10 atoms at k = 5: shortlists reach into the support itself.
            assert_matches_sequential(spec_xy, D_target.columns, params)

    def test_zero_lambda_uses_one_at_a_time_solves(self):
        rng = np.random.default_rng(21)
        for _ in range(4):
            D = random_dictionary(rng, 25, 300)
            x = rng.normal(size=25)
            assert_matches_sequential(x, D, h.SolverParams(lam=0.0, max_nonzeros=4))

    def test_duplicated_atoms_make_the_stack_singular(self):
        rng = np.random.default_rng(22)
        U = random_dictionary(rng, 100, 150)
        D = np.hstack([U, U])
        for _ in range(8):
            x = U[:, rng.choice(150, 5, replace=False)] @ rng.uniform(0.3, 1.0, 5)
            x = x + 0.01 * rng.normal(size=100)
            assert_matches_sequential(x, D, h.SolverParams(lam=0.1, max_nonzeros=5))

    def test_singular_stack_falls_back_to_single_solves(self):
        rng = np.random.default_rng(23)
        U = random_dictionary(rng, 20, 30)
        D = np.hstack([U, U])
        bounds = _screen_candidates(rng.normal(size=20), D, [3, 5], np.array([35, 7, 9]), 0.1)
        assert np.all(bounds == -np.inf)  # atom 35 repeats atom 5

    def test_screen_bounds_never_exceed_single_support_objectives(self):
        rng = np.random.default_rng(24)
        params = h.SolverParams()
        for _ in range(50):
            D = random_dictionary(rng, 15, 40)
            x = rng.normal(size=15)
            kept = [int(j) for j in rng.choice(40, int(rng.integers(0, 5)), replace=False)]
            cands = rng.choice(40, 8, replace=False)
            bounds = _screen_candidates(x, D, kept, cands, 0.1)
            for cand, bound in zip(cands, bounds):
                _, obj = _solve_support(D[:, kept + [int(cand)]], x, 0.1, params)
                assert bound <= obj


class TestResidualNorm:
    def test_exact_atom_residual_zero(self):
        D = random_dictionary(np.random.default_rng(9), 6, 4)
        code = h.SparseCode(np.array([1]), np.array([1.0]), 4)
        assert h.residual_norm(D[:, 1], h.Dictionary(D), code) < 1e-12

    def test_empty_code_gives_input_norm(self):
        rng = np.random.default_rng(10)
        D = random_dictionary(rng, 6, 4)
        x = rng.normal(size=6)
        code = h.SparseCode(np.array([], dtype=int), np.array([]), 4)
        assert abs(h.residual_norm(x, h.Dictionary(D), code) - np.linalg.norm(x)) < 1e-12

    def test_matches_dense_evaluation(self):
        rng = np.random.default_rng(11)
        D = random_dictionary(rng, 7, 5)
        x = rng.normal(size=7)
        code = h.sparse_code(x, h.Dictionary(D), h.SolverParams(lam=0.1, max_nonzeros=3))
        direct = np.linalg.norm(x - D @ code.dense())
        assert abs(h.residual_norm(x, h.Dictionary(D), code) - direct) < 1e-12

    def test_dimension_mismatch(self):
        D = random_dictionary(np.random.default_rng(12), 6, 4)
        code = h.SparseCode(np.array([0]), np.array([1.0]), 5)
        with pytest.raises(ValueError):
            h.residual_norm(D[:, 0], h.Dictionary(D), code)


class TestSparseCodeType:
    def test_indices_must_increase(self):
        with pytest.raises(ValueError):
            h.SparseCode(np.array([3, 1]), np.array([1.0, 2.0]), 5)

    def test_index_bound(self):
        with pytest.raises(ValueError):
            h.SparseCode(np.array([5]), np.array([1.0]), 5)
