"""Sparse solver tests, checked against an independent exhaustive oracle."""

import itertools
import math
import tracemalloc

import numpy as np
import pytest
from scipy.optimize import minimize

import hsidet as h
import hsidet.sparse as hsparse
from hsidet.sparse import _ENUM_LIMIT, MAX_NONZEROS


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
        assert np.count_nonzero(code.coefficients) == 0

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
        assert np.count_nonzero(code.coefficients) <= 4

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
        support, coef = hsparse._sweep(x[None], D, cap, params, np.ones((1, n), dtype=bool))
        best_code = h.SparseCode(support[0][support[0] >= 0], coef[0][support[0] >= 0], n)
        best = solver_objective(x, D, best_code, params.lam)
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
    fit = h.Fit(cube, signature, config)
    return cube, mask, config, fit.D_t, fit.D_b


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
            local = h.local_background(cube, x, y, config.window)
            cases.append((cube.data[:, y, x], np.hstack([D_b.columns, local.columns]), params))
        gaps, exact = relative_gaps(cases)
        assert exact >= 0.1
        assert np.median(gaps) <= 2e-3
        assert gaps.max() <= 0.01


def assert_same_codes(got, want):
    assert len(got) == len(want)
    for g, w in zip(got, want):
        assert g.dictionary_atoms == w.dictionary_atoms
        assert np.array_equal(g.indices, w.indices)
        assert g.coefficients.tobytes() == w.coefficients.tobytes()


def codes_per_row(X, D, params):
    return [h.sparse_code(x, h.Dictionary(D), params) for x in X]


def block_codes(X, D, params, mask=None):
    """``sparse.code_block``'s codes of the rows of X, each against its mask
    row's columns of the pool D (all of them by default), as ``SparseCode``s
    counting D's columns.  X is first copied to the C-contiguous float64
    stack ``code_block``'s callers pass."""
    X = np.ascontiguousarray(X, dtype=np.float64)
    support, coef = hsparse.code_block(X, D, params, mask)
    return [h.SparseCode(s[s >= 0], c[s >= 0], D.shape[1]) for s, c in zip(support, coef)]


def mixed_rows(rng, D, n):
    """Rows of 0 to 4 signed atoms of D plus noise; rows 0 and 5 are zero."""
    m, n_atoms = D.shape
    X = np.zeros((n, m))
    for i in range(n):
        if i in (0, 5):
            continue
        k = i % 5
        atoms = rng.choice(n_atoms, k, replace=False)
        X[i] = D[:, atoms] @ (rng.uniform(0.5, 2.0, k) * rng.choice((-1.0, 1.0), k))
        X[i] += 0.02 * rng.normal(size=m)
    return X


def per_row_greedy(x, D, lam, cap):
    """Greedy admission for one spectrum with two-dimensional arrays: the
    most correlated atom joins, the support is re-solved over every sign
    pattern, and the code stops when that does not lower the objective."""
    support, a = [], np.zeros(0)
    best = 0.5 * float(x @ x)
    for _ in range(cap):
        r = x - D[:, support] @ a if support else x
        corr = D.T @ r
        corr[support] = 0.0
        j = int(np.argmax(np.abs(corr)))
        if abs(corr[j]) <= lam + 1e-15:
            break
        Ds = D[:, support + [j]]
        signs = np.array(list(itertools.product((-1.0, 1.0), repeat=len(support) + 1))).T
        A = np.linalg.solve(Ds.T @ Ds, (Ds.T @ x)[:, None] - lam * signs)
        A = A[:, np.all(A * signs >= -1e-12, axis=0)]
        R = x[:, None] - Ds @ A
        objs = 0.5 * np.einsum("ij,ij->j", R, R) + lam * np.abs(A).sum(axis=0)
        if not objs.size or objs.min() >= best - 1e-15:
            break
        support, a, best = support + [j], A[:, int(np.argmin(objs))], float(objs.min())
    order = np.argsort(support)
    keep = a[order] != 0.0
    return h.SparseCode(np.array(support, dtype=np.intp)[order][keep], a[order][keep], D.shape[1])


class TestStackedCodes:
    """``code_block``, the pipeline's stacked entry, against ``sparse_code``
    row by row: equal supports and bit-equal coefficients on every solver
    branch."""

    def test_rows_stop_at_different_steps(self):
        rng = np.random.default_rng(40)
        D = random_dictionary(rng, 24, 120)
        X = mixed_rows(rng, D, 400)  # more rows than one stack holds (327 here)
        params = h.SolverParams(lam=0.05, max_nonzeros=5)
        stacked = block_codes(X, D, params)
        assert_same_codes(stacked, codes_per_row(X, D, params))
        everything = np.ones((400, 120), dtype=bool)
        assert_same_codes(block_codes(X, D, params, everything), stacked)
        sizes = [c.indices.size for c in stacked]
        assert sizes[0] == sizes[5] == 0
        assert {1, 2, 3, 4} <= set(sizes)

    def test_matches_plain_per_row_greedy_for_any_row_layout(self):
        # Codes depend on values, not layout: ``sparse_code`` on the strided
        # rows of an F-ordered stack and on C-ordered ones, and the block of
        # either stack copied C-contiguous, give bit-identical codes, those
        # the two-dimensional greedy gives the contiguous rows, one-atom
        # codes included.
        rng = np.random.default_rng(41)
        D = random_dictionary(rng, 16, 60)
        params = h.SolverParams(lam=0.1, max_nonzeros=4)
        X = mixed_rows(rng, D, 40)
        X[1::5] = 3.0 * D[:, :8].T + 0.01 * rng.normal(size=(8, 16))
        want = [per_row_greedy(x, D, params.lam, 4) for x in X]
        for rows in (X, np.asfortranarray(X)):
            assert_same_codes(block_codes(rows, D, params), want)
            assert_same_codes(codes_per_row(rows, D, params), want)
        assert sum(c.indices.size == 1 for c in want) >= 8

    def test_zero_lambda(self):
        rng = np.random.default_rng(42)
        D = random_dictionary(rng, 12, 50)
        X = mixed_rows(rng, D, 30)
        params = h.SolverParams(lam=0.0, max_nonzeros=3)
        stacked = block_codes(X, D, params)
        assert_same_codes(stacked, codes_per_row(X, D, params))
        assert max(c.indices.size for c in stacked) == 3

    def test_duplicated_atom_takes_the_singular_fallback(self, monkeypatch):
        # A large multiple of atom 0 leaves its duplicate, atom 1, with a
        # residual correlation of lam up to rounding, so about half of
        # those rows try the singular support {0, 1}.  A stacked solve that
        # fails is followed by one solve per row of its stack.
        calls = []  # per failed stacked solve: its rows, then the per-row solves after it
        solve = np.linalg.solve

        def counting(G, rhs):
            if G.ndim == 2 and calls:
                calls[-1][1] += 1
            try:
                return solve(G, rhs)
            except np.linalg.LinAlgError:
                if G.ndim == 3:
                    calls.append([len(G), 0])
                raise

        monkeypatch.setattr(np.linalg, "solve", counting)
        rng = np.random.default_rng(41)
        D = random_dictionary(rng, 20, 80)
        D[:, 1] = D[:, 0]
        X = mixed_rows(rng, D, 40)
        X[::2] = np.outer(rng.uniform(500, 2000, 20) * rng.choice((-1.0, 1.0), 20), D[:, 0])
        params = h.SolverParams(lam=0.1, max_nonzeros=3)
        stacked = block_codes(X, D, params)
        assert any(rows > 1 and per_row == rows for rows, per_row in calls)
        assert_same_codes(stacked, codes_per_row(X, D, params))

    def test_small_dictionary_enumerates_each_row(self):
        rng = np.random.default_rng(44)
        D = random_dictionary(rng, 8, 8)
        X = mixed_rows(rng, D, 12)
        for lam in (0.1, 0.0):
            params = h.SolverParams(lam=lam, max_nonzeros=3)
            assert_same_codes(block_codes(X, D, params),
                              codes_per_row(X, D, params))

    def test_sweep_solves_each_support_once_for_the_whole_stack(self, monkeypatch):
        # 64 rows against 5 atoms at a cap of 5: 31 supports, each one
        # stacked solve, not one per row and support.
        calls = []
        solve_support = hsparse._solve_support

        def counting(Ds, X, lam):
            calls.append(len(X))
            return solve_support(Ds, X, lam)

        monkeypatch.setattr(hsparse, "_solve_support", counting)
        rng = np.random.default_rng(45)
        D = random_dictionary(rng, 8, 5)
        X = mixed_rows(rng, D, 64)
        params = h.SolverParams(lam=0.1, max_nonzeros=5)
        stacked = block_codes(X, D, params)
        assert calls == [64] * 31
        monkeypatch.setattr(hsparse, "_solve_support", solve_support)
        assert_same_codes(stacked, codes_per_row(X, D, params))

    def test_masked_pool_codes_each_row_against_its_own_atoms(self):
        # Rows draw 2 to about 40 of 60 pool atoms: below the cap, small
        # enough to enumerate, or greedy-coded in one stack.
        rng = np.random.default_rng(46)
        D = random_dictionary(rng, 14, 60)
        X = mixed_rows(rng, D, 50)
        mask = rng.random((50, 60)) < rng.uniform(0.1, 0.7, (50, 1))
        mask[1] = np.arange(60) < 2
        params = h.SolverParams(lam=0.05, max_nonzeros=4)
        got = block_codes(X, D, params, mask)
        want = []
        for x, m in zip(X, mask):
            own = np.flatnonzero(m)
            code = h.sparse_code(x, h.Dictionary(np.ascontiguousarray(D[:, own])), params)
            want.append(h.SparseCode(own[code.indices], code.coefficients, 60))
        assert_same_codes(got, want)
        counts = mask.sum(axis=1)
        assert counts.min() < 4 and counts.max() > 30
        assert all(set(c.indices) <= set(np.flatnonzero(m)) for c, m in zip(got, mask))

    def test_tie_within_rounding_goes_to_the_lowest_column(self):
        # Column 37 is column 12 scaled by 1 + 1e-13, so its correlation is
        # the larger by rounding alone.  Sixty atoms are too many to
        # enumerate: a stack, a single row and a masked pool row all admit
        # column 12 by the greedy tie rule.
        rng = np.random.default_rng(48)
        D = random_dictionary(rng, 16, 60)
        D[:, 37] = D[:, 12] * (1 + 1e-13)
        X = np.stack([3.0 * D[:, 12], -2.0 * D[:, 12] + 0.5 * D[:, 9]])
        params = h.SolverParams(lam=0.1, max_nonzeros=4)
        mask = np.arange(60) < 50
        for codes in (block_codes(X, D, params),
                      codes_per_row(X, D, params),
                      block_codes(X, D, params, np.stack([mask, mask]))):
            assert [c.indices.tolist() for c in codes] == [[12], [9, 12]]

    def test_row_with_fewer_atoms_than_the_cap_stops_when_they_are_used_up(self):
        # 10 own atoms at a cap of 12 are too many to enumerate, so the row
        # joins the greedy stack and must stop after its tenth atom.
        rng = np.random.default_rng(47)
        D = random_dictionary(rng, 30, 40)
        X = rng.normal(size=(3, 30))
        mask = np.zeros((3, 40), dtype=bool)
        mask[0, 5:15] = mask[1, 10:35] = mask[2] = True
        params = h.SolverParams(lam=0.001, max_nonzeros=12)
        got = block_codes(X, D, params, mask)
        assert got[0].indices.tolist() == list(range(5, 15))
        alone = h.sparse_code(X[0], h.Dictionary(np.ascontiguousarray(D[:, 5:15])), params)
        assert np.allclose(got[0].coefficients, alone.coefficients, rtol=0, atol=1e-12)
        assert all(set(c.indices) <= set(np.flatnonzero(m)) for c, m in zip(got, mask))

    def test_stack_shapes(self):
        # An empty stack has no codes; ``sparse_code`` takes one finite
        # spectrum of the dictionary's bands, not a stack.
        D = random_dictionary(np.random.default_rng(45), 6, 40)
        assert block_codes(np.zeros((0, 6)), D, h.SolverParams()) == []
        for bad in (np.ones((1, 6)), np.ones(5), np.full(6, np.nan)):
            with pytest.raises(ValueError):
                h.sparse_code(bad, h.Dictionary(D), h.SolverParams())


class TestSolveSupport:
    """``_solve_support``'s sign patterns: only the consistent ones are
    scored, and its memory follows its coefficient block, not its residuals."""

    def test_optimum_with_a_zero_coefficient_has_no_consistent_pattern(self):
        # x is twice atom 0 and atom 1 is orthogonal to it: the optimum on
        # {0, 1} is (2 - lam, 0), so every pattern's a_1 = -lam * s_1 breaks
        # its sign.  The support scores inf, and the sweep keeps {0}.
        D = np.eye(3)[:, :2]
        x = 2.0 * D[:, 0]
        _, obj, _ = hsparse._solve_support(D[None], x[None], 0.1)
        assert obj.tolist() == [np.inf]
        code = h.sparse_code(x, h.Dictionary(D), h.SolverParams(lam=0.1, max_nonzeros=2))
        assert code.indices.tolist() == [0] and code.coefficients.tolist() == [1.9]

    def test_tie_at_the_sign_boundary_goes_to_the_lower_pattern(self):
        # With lam = 1e-13 and x orthogonal to the atom, both patterns give
        # |a| = 1e-13, inside the -1e-12 tolerance of either sign, and equal
        # objectives: pattern 0 (s = -1, so a = +lam) wins.
        D = np.eye(2)[:, :1]
        a, obj, _ = hsparse._solve_support(D[None], np.array([[0.0, 1.0]]), 1e-13)
        assert a.tolist() == [[1e-13]]
        assert obj.tolist() == [0.5]

    @pytest.mark.parametrize("lam", [0.0, 0.1])
    def test_residuals_are_at_the_returned_coefficients(self, lam):
        rng = np.random.default_rng(52)
        n, bands, size = 40, 12, 3
        Ds = np.ascontiguousarray(rng.normal(size=(n, size, bands))).transpose(0, 2, 1)
        X = rng.normal(size=(n, bands))
        a, obj, R = hsparse._solve_support(Ds, X, lam)
        assert np.allclose(R, X - (Ds @ a[:, :, None])[:, :, 0], rtol=0.0, atol=1e-12)
        scored = np.isfinite(obj)
        assert 0 < scored.sum() and np.allclose(
            obj[scored], 0.5 * (R[scored] ** 2).sum(axis=1) + lam * np.abs(a[scored]).sum(axis=1))

    def test_a_second_consistent_pattern_brings_its_residual(self):
        # Row 0: x . d = 5e-14 is within lam = 1e-13 of zero, so both sign
        # patterns keep their signs inside the tolerance, and pattern 1
        # (a = 5e-14 - lam) has the lower objective: the gathered pattern
        # wins, with its own residual.  Row 1 has one consistent pattern.
        D = np.eye(2)[:, :1]
        X = np.array([[5e-14, 0.0], [2.0, 0.0]])
        a, obj, R = hsparse._solve_support(np.stack([D, D]), X, 1e-13)
        assert a.tolist() == [[5e-14 - 1e-13], [2.0 - 1e-13]]
        assert R.tolist() == [[5e-14 - (5e-14 - 1e-13), 0.0], [2.0 - (2.0 - 1e-13), 0.0]]

    def test_peak_follows_the_coefficient_block(self):
        # 32 rows of 100 bands at size 8: solving every pattern needs the
        # (n, size, 2^size) coefficient block; a residual for every pattern
        # would be 12.5 times that.
        rng = np.random.default_rng(51)
        n, bands, size = 32, 100, 8
        Ds = np.ascontiguousarray(rng.normal(size=(n, size, bands))).transpose(0, 2, 1)
        X = rng.normal(size=(n, bands))
        block = n * size * (1 << size) * 8
        tracemalloc.start()
        try:
            hsparse._solve_support(Ds, X, 0.1)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 4 * block


def test_block_residuals_hold_no_copy_of_the_stack():
    # 20,000 rows of 5-atom codes, some of 2 and some of none: each stack's
    # residual rows are its own buffer, so the peak stays near one stack of
    # _STACK_ELEMENTS doubles, about a tenth of X here; copying X, or
    # gathering every row's columns at once, is at least one X.
    rng = np.random.default_rng(50)
    D = random_dictionary(rng, 100, 300)
    X = rng.normal(size=(20000, 100))
    support = rng.integers(0, 60, (20000, 5)) + 60 * np.arange(5)  # ascending
    coef = rng.normal(size=(20000, 5))
    support[::7, 2:], coef[::7, 2:] = -1, 0.0
    support[::13], coef[::13] = -1, 0.0
    tracemalloc.start()
    try:
        r = hsparse.block_residuals(X, D, support, coef)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak / X.nbytes < 0.2
    for i in range(0, 20000, 997):  # rows 0 and 12,961 have no support
        s = support[i][support[i] >= 0]
        code = h.SparseCode(s, coef[i, :s.size], 300)
        assert r[i] == h.residual_norm(X[i], h.Dictionary(D), code)


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


class TestSolverParams:
    @pytest.mark.parametrize("lam", [math.nan, math.inf, -0.1])
    def test_nonfinite_or_negative_lam_rejected(self, lam):
        with pytest.raises(ValueError, match="lam"):
            h.SolverParams(lam=lam)

    @pytest.mark.parametrize("cap", [0, MAX_NONZEROS + 1])
    def test_cap_outside_one_to_twelve_rejected(self, cap):
        with pytest.raises(ValueError, match=r"^max_nonzeros must lie in \[1, 12\]"):
            h.SolverParams(max_nonzeros=cap)


class TestSparseCodeType:
    def test_indices_must_increase(self):
        with pytest.raises(ValueError):
            h.SparseCode(np.array([3, 1]), np.array([1.0, 2.0]), 5)

    def test_index_bound(self):
        with pytest.raises(ValueError):
            h.SparseCode(np.array([5]), np.array([1.0]), 5)
