"""Sparse solver tests, checked against an independent exhaustive oracle."""

import itertools
import math

import numpy as np
import pytest
from scipy.optimize import minimize

import hsidet as h
import hsidet.sparse as hsparse
from hsidet.sparse import _ENUM_LIMIT, _SIGN_ENUM_LIMIT, _enumerate_supports


def support_optimum(x, Ds, lam):
    """Best L1 objective with every coefficient restricted to the columns of
    Ds, by bound-constrained L-BFGS on a sign split a = z+ - z-."""
    size = Ds.shape[1]

    def f(z):
        a = z[:size] - z[size:]
        r = x - Ds @ a
        return 0.5 * float(r @ r) + lam * float(z.sum())

    res = minimize(
        f, np.zeros(2 * size), method="L-BFGS-B",
        bounds=[(0, None)] * 2 * size,
        options={"ftol": 1e-15, "gtol": 1e-12, "maxiter": 500},
    )
    return res.fun


def exhaustive_oracle(x, D, lam, k):
    """Best capped-support L1 objective by enumerating every support and
    solving each subproblem with ``support_optimum``."""
    best = 0.5 * float(x @ x)
    for size in range(1, k + 1):
        for support in itertools.combinations(range(D.shape[1]), size):
            best = min(best, support_optimum(x, D[:, support], lam))
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


def relative_gaps(cases):
    """Relative objective gap (greedy - optimum) / optimum of ``sparse_code``
    against exhaustive enumeration, for (x, D, params) cases that take the
    greedy path.  Every greedy objective must lie between the optimum and
    the zero code's objective 0.5 ||x||^2."""
    gaps = []
    for x, D, params in cases:
        n = D.shape[1]
        cap = min(params.max_nonzeros, n)
        assert sum(math.comb(n, s) for s in range(1, cap + 1)) > _ENUM_LIMIT
        greedy = solver_objective(x, D, h.sparse_code(x, h.Dictionary(D), params), params.lam)
        best = solver_objective(x, D, _enumerate_supports(x, D, cap, params, None), params.lam)
        assert best - 1e-12 <= greedy <= 0.5 * float(x @ x)
        gaps.append((greedy - best) / best)
    gaps = np.array(gaps)
    exact = float(np.mean(gaps <= 1e-9))
    print(f"{len(gaps)} cases: {exact:.0%} exact, relative gap median "
          f"{np.median(gaps):.2g}, p90 {np.quantile(gaps, 0.9):.2g}, max {gaps.max():.2g}")
    return gaps, exact


@pytest.fixture(scope="module")
def sparse_preset():
    """The sparse-targets scene, its preset config and its learned dictionaries."""
    cube, mask, signature = h.generate(h.PRESETS["sparse-targets"])
    config = h.preset_config("sparse-targets")
    D_t, D_b = h.learn_global_dictionaries(cube, signature, config)
    return cube, mask, config, D_t, D_b


class TestGreedyGapOracle:
    """Greedy admission against exhaustive enumeration where the latter is
    still affordable.  The bounds hold the measured distribution with
    headroom; a greedy cut to one admitted atom breaks them."""

    def test_random_dictionaries(self):
        rng = np.random.default_rng(30)
        cases = []
        for trial in range(40):
            n = int(rng.integers(20, 41))
            k = 3 if n < 32 else int(rng.integers(2, 4))  # k=2 is greedy from 32 atoms
            D = random_dictionary(rng, 15, n)
            x = D[:, rng.choice(n, k, replace=False)] @ rng.normal(size=k)
            x = x + 0.1 * rng.normal(size=15)
            cases.append((x, D, h.SolverParams(lam=(0.02, 0.1)[trial % 2], max_nonzeros=k)))
        gaps, exact = relative_gaps(cases)
        assert exact >= 0.6
        assert gaps.max() <= 0.6

    def test_learned_target_dictionary(self, sparse_preset):
        # 10 atoms at k=5: 637 supports, just past the enumeration limit.
        cube, mask, config, D_t, _ = sparse_preset
        params = h.SolverParams(lam=config.lam, max_nonzeros=config.k)
        pixels = cube.pixels()
        chosen = set(np.flatnonzero(mask.labels.ravel() == 1)) | set(range(0, cube.n_pixels, 23))
        gaps, exact = relative_gaps([(pixels[i], D_t.columns, params) for i in sorted(chosen)])
        assert exact >= 0.5
        assert gaps.max() <= 0.15

    def test_hierarchical_dictionaries(self, sparse_preset):
        cube, _, config, _, D_b = sparse_preset
        params = h.SolverParams(lam=config.lam, max_nonzeros=2)
        cases = []
        for i in range(0, cube.n_pixels, 89):
            y, x = divmod(i, cube.width)
            hier = h.build_hierarchical(D_b, h.local_background(cube, x, y, config.window))
            cases.append((cube.data[:, y, x], hier.columns, params))
        gaps, exact = relative_gaps(cases)
        assert exact >= 0.1
        assert np.median(gaps) <= 2e-3
        assert gaps.max() <= 0.01


class TestCoordinateDescentFallback:
    def test_large_supports_reach_the_support_optimum(self, monkeypatch):
        # Supports beyond _SIGN_ENUM_LIMIT atoms are solved by coordinate
        # descent; a user reaches them with a sparsity cap of 13 or more.
        calls = []
        cd_gram = hsparse._cd_gram

        def counting(*args):
            calls.append(args)
            return cd_gram(*args)

        monkeypatch.setattr(hsparse, "_cd_gram", counting)
        rng = np.random.default_rng(14)
        params = h.SolverParams(lam=0.01, max_nonzeros=14)
        worst, sizes = -np.inf, []
        for _ in range(20):
            D = random_dictionary(rng, 40, 30)
            x = rng.normal(size=40)
            n_calls = len(calls)
            code = h.sparse_code(x, h.Dictionary(D), params)
            assert len(calls) > n_calls
            sizes.append(code.indices.size)
            obj = solver_objective(x, D, code, params.lam)
            worst = max(worst, obj - support_optimum(x, D[:, code.indices], params.lam))
        print(f"supports {min(sizes)}-{max(sizes)} atoms, worst gap {worst:.2g}")
        assert max(sizes) > _SIGN_ENUM_LIMIT
        assert worst <= 1e-6


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
