"""L1-regularized, cardinality-capped sparse coding of spectra.

Minimizes 0.5 * ||x - D a||^2 + lambda * ||a||_1 over coefficient vectors
supported on at most ``max_nonzeros`` atoms.  Small dictionaries are solved
exactly by sweeping every support; larger ones use greedy atom admission, as
in the orthogonal matching pursuit of sparse-representation target detectors
(Chen, Nasrabadi & Tran 2011).  Spectra coded against one dictionary admit
atoms together, as one stack of rows with one correlation product per step,
in the manner of Batch-OMP (Rubinstein, Zibulevsky & Elad 2008); a single
spectrum is a stack of one row.  A per-row mask confines each row to its own
columns of the matrix, such as a pixel's [global | dual-window ring] atoms
in a shared pool.  Every fixed-support subproblem is solved exactly: by
least squares when lambda is 0, else over all 2^size sign patterns of its
stationarity system, size <= ``MAX_NONZEROS``.  Signs are unconstrained.

Ties go to the lowest column on both paths: the sweep keeps the first
support at equal objectives, and greedy admission takes the lowest column
whose correlation is within ``_TIE_RTOL`` of the row's largest.  A
dictionary can hold one spectrum twice (a learned atom and the pixel it came
from); this rule, not rounding, picks the copy a code uses.

A stack's codes are one block (``code_block``): (n, cap) atom indices, each
row's ascending and then -1 padding, and (n, cap) coefficients, 0.0 at the
padding, which an exact-zero coefficient joins.  ``code_block`` checks
nothing: its callers pass a C-contiguous, finite float64 stack and a plain
matrix, so a code depends on values, not layout.  The pipeline forms every
residual from a block with ``block_residuals``; only the public
``sparse_code`` and ``sparse_codes`` build ``SparseCode``s.
"""

from __future__ import annotations

import numbers
from dataclasses import dataclass
from functools import lru_cache
from itertools import combinations, product
from math import comb, isfinite

import numpy as np

from .cube import Dictionary

MAX_NONZEROS = 12      # largest support cap: every support's 2^cap sign patterns are solved
_ENUM_LIMIT = 512      # max support count for the exact small-dictionary path
_STACK_ELEMENTS = 1 << 17  # target size of a stacked coding block, in doubles
_TIE_RTOL = 1e-12      # correlations this close to a row's largest tie with it


@dataclass(frozen=True)
class SolverParams:
    lam: float = 0.1          # L1 weight; 0 gives pure cap-constrained matching
    max_nonzeros: int = 5     # hard support cap

    def __post_init__(self):
        if not (isfinite(self.lam) and self.lam >= 0):
            raise ValueError("lam must be finite and >= 0")
        if not isinstance(self.max_nonzeros, numbers.Integral):
            raise ValueError("max_nonzeros must be an integer")
        if not 1 <= self.max_nonzeros <= MAX_NONZEROS:
            raise ValueError(f"max_nonzeros must lie in [1, {MAX_NONZEROS}]")


@dataclass(frozen=True, eq=False)
class SparseCode:
    """Sparse coefficients: strictly increasing atom indices with values."""

    indices: np.ndarray
    coefficients: np.ndarray
    dictionary_atoms: int

    def __post_init__(self):
        idx = np.array(self.indices, dtype=np.intp)
        coef = np.array(self.coefficients, dtype=np.float64)
        if idx.shape != coef.shape or idx.ndim != 1:
            raise ValueError("indices and coefficients must be matching 1-D arrays")
        if idx.size and (np.any(np.diff(idx) <= 0) or idx[0] < 0):
            raise ValueError("indices must be strictly increasing and non-negative")
        if idx.size and idx[-1] >= self.dictionary_atoms:
            raise ValueError("atom index out of range")
        idx.setflags(write=False)
        coef.setflags(write=False)
        object.__setattr__(self, "indices", idx)
        object.__setattr__(self, "coefficients", coef)

    @property
    def n_nonzeros(self) -> int:
        return int(np.count_nonzero(self.coefficients))

    def dense(self) -> np.ndarray:
        out = np.zeros(self.dictionary_atoms)
        out[self.indices] = self.coefficients
        return out


@lru_cache(maxsize=None)
def _sign_patterns(size: int) -> np.ndarray:
    signs = np.array(list(product((-1.0, 1.0), repeat=size))).T  # (size, 2^size)
    signs.setflags(write=False)
    return signs


def _row_dots(X):
    """Squared norm of each row of X, each as the BLAS dot ``x @ x`` gives it."""
    return (X[:, None, :] @ X[:, :, None])[:, 0, 0]


def _columns(mat, supports):
    """Stack of the (bands, size) column blocks ``mat[:, support]``, one per
    row of the (n, size) index array ``supports``, each laid out in column
    order as ``mat[:, support]`` is: BLAS rounding depends on the layout."""
    return np.ascontiguousarray(mat.T[supports]).transpose(0, 2, 1)


def _solve_support(Ds, X, xx, lam):
    """Exact minimizers of a stack of L1 subproblems: row i of X (n, bands)
    restricted to the atoms in Ds[i] (n, bands, size); xx holds the rows'
    squared norms.

    lam = 0 is least squares by ``lstsq``, row by row: normal equations
    would split the coefficients of near-duplicate atoms arbitrarily.
    Otherwise all sign patterns s of each row's stationarity system
    G a = Ds^T x - lam * s are solved in one batched linear solve over the
    stack, and each row's consistent pattern with the best objective wins;
    a stack holding a singular Gram matrix is solved row by row.

    Returns (coefficients (n, size), objectives (n,)).
    """
    n, _, size = Ds.shape
    if lam == 0.0:
        if n > 1:
            return _row_by_row(Ds, X, xx, lam)
        a, *_ = np.linalg.lstsq(Ds[0], X[0], rcond=None)
        r = X[0] - Ds[0] @ a
        return a[None], np.array([0.5 * float(r @ r)])
    Dt = Ds.transpose(0, 2, 1)
    G = Dt @ Ds
    b = Dt @ X[:, :, None]                                      # (n, size, 1)
    signs = _sign_patterns(size)
    rhs = b - lam * signs
    try:
        A = np.linalg.solve(G, rhs)                             # (n, size, 2^size)
    except np.linalg.LinAlgError:
        if n > 1:
            return _row_by_row(Ds, X, xx, lam)
        A = np.linalg.lstsq(G[0], rhs[0], rcond=None)[0][None]
    # Objectives in data space: the Gram-space form cancels catastrophically
    # when a near-singular support yields huge coefficients, letting garbage
    # candidates win.
    R = X[:, :, None] - Ds @ A
    objs = 0.5 * np.einsum("nij,nij->nj", R, R) + lam * np.abs(A).sum(axis=1)
    objs[~((A * signs).min(axis=1) >= -1e-12)] = np.inf        # inconsistent signs
    j = objs.argmin(axis=1)
    rows = np.arange(n)
    obj = objs[rows, j]
    better = obj < 0.5 * xx                     # else the zero code wins
    return np.where(better[:, None], A[rows, :, j], 0.0), np.where(better, obj, 0.5 * xx)


def _row_by_row(Ds, X, xx, lam):
    solved = [_solve_support(Ds[i:i + 1], X[i:i + 1], xx[i:i + 1], lam) for i in range(len(X))]
    return np.concatenate([a for a, _ in solved]), np.concatenate([o for _, o in solved])


def _enumerate_supports(x, mat, atoms, params):
    """Exact code of ``x`` over every support of at most ``max_nonzeros`` of
    the columns ``atoms`` (increasing) of ``mat``, as its support (a tuple
    of columns) and coefficients.  NumPy lays out a gathered block
    ``mat[:, support]`` column by column whatever the layout of ``mat``, so
    the code is the one the atoms' own dictionary gives, bit for bit."""
    X = x[None]
    xx = _row_dots(X)
    best_obj = 0.5 * float(xx[0])
    best_support, best_a = (), np.zeros(0)
    for size in range(1, min(params.max_nonzeros, len(atoms)) + 1):
        for support in combinations(atoms, size):
            a, obj = _solve_support(mat[:, support][None], X, xx, params.lam)
            if obj[0] < best_obj - 1e-15:
                best_obj, best_support, best_a = float(obj[0]), support, a[0]
    return best_support, best_a


def _greedy(X, mat, cap, params, mask):
    """Greedy codes of the rows of X as a block, atoms in admission order.

    Forward admission in lockstep: each row adds the atom most correlated
    with its residual, the lowest column among ties, then re-solves its
    active-set subproblem exactly; a row stops when no atom clears the soft
    threshold or the re-solve does not lower its objective.  Every live row
    at step t tries a support of t + 1 atoms, so the correlations are one
    GEMM and the re-solves one stacked solve.  The (n, atoms) boolean
    ``mask`` confines each row to its own atoms: the others' correlations
    are zero, so they never clear the threshold, and a row stops once its
    own atoms are used up.
    """
    n = X.shape[0]
    lam = params.lam
    out = np.full((n, cap), -1, dtype=np.intp), np.zeros((n, cap))
    # State of the rows still admitting atoms, compacted as rows stop: their
    # indices, spectra, atom masks, squared norms, objectives, supports (in
    # admission order), coefficients and support columns.
    live, Xl, M = np.arange(n), X, mask
    xx = _row_dots(X)
    best = 0.5 * xx
    support, coef, Ds = np.zeros((n, 0), dtype=np.intp), np.zeros((n, 0)), None
    for step in range(cap):
        R = Xl - (Ds @ coef[:, :, None])[:, :, 0] if step else Xl
        mag = np.abs(R @ mat)
        mag[~M] = 0.0
        rows = np.arange(live.size)
        mag[rows[:, None], support] = 0.0
        top = mag.max(axis=1, keepdims=True)
        j = (mag >= top * (1.0 - _TIE_RTOL)).argmax(axis=1)
        grow = mag[rows, j] > lam + 1e-15       # else the soft threshold zeroes it
        if not grow.all():
            if not grow.any():
                break
            live, Xl, M, xx, best, support, coef, j = (
                v[grow] for v in (live, Xl, M, xx, best, support, coef, j))
            grow = grow[grow]
        trial = np.concatenate((support, j[:, None]), axis=1)
        Ds = _columns(mat, trial)
        a, obj = _solve_support(Ds, Xl, xx, lam)
        accept = grow & (obj < best - 1e-15)
        if not accept.any():
            break
        if not accept.all():
            live, Xl, M, xx, trial, a, obj, Ds = (
                v[accept] for v in (live, Xl, M, xx, trial, a, obj, Ds))
        support, coef, best = trial, a, obj
        out[0][live, :step + 1], out[1][live, :step + 1] = support, coef
    return out


@lru_cache(maxsize=None)
def _enumerated_size(max_nonzeros):
    """Largest dictionary size whose supports of at most ``max_nonzeros``
    atoms number at most ``_ENUM_LIMIT``."""
    def supports(size):
        return sum(comb(size, s) for s in range(1, min(max_nonzeros, size) + 1))

    size = 0
    while supports(size + 1) <= _ENUM_LIMIT:
        size += 1
    return size


def code_block(X: np.ndarray, mat: np.ndarray, params: SolverParams,
               mask: np.ndarray | None = None) -> tuple[np.ndarray, np.ndarray]:
    """The codes ``sparse_codes`` gives the rows of ``X`` against ``mat``, as
    one block.  ``X`` is a C-contiguous, finite float64 (n, bands) stack and
    ``mat`` a (bands, atoms) array; neither is checked here.  A boolean (n,
    atoms) ``mask`` codes row i against ``mat[:, mask[i]]``, in column order,
    with indices that count ``mat``'s columns."""
    n, n_atoms = X.shape[0], mat.shape[1]
    cap = min(params.max_nonzeros, n_atoms)
    support, coef = np.full((n, cap), -1, dtype=np.intp), np.zeros((n, cap))
    if mask is None:
        mask = np.broadcast_to(True, (n, n_atoms))
    # A row's own dictionary is its mask row's atoms.  One small enough is
    # swept exactly, support by support: greedy selection can land in local
    # optima on coherent dictionaries, and at this size exactness is cheap.
    # Every other row joins a stacked greedy pass.
    enumerated = mask.sum(axis=1) <= _enumerated_size(params.max_nonzeros)
    for i in np.flatnonzero(enumerated):
        best, a = _enumerate_supports(X[i], mat, np.flatnonzero(mask[i]).tolist(), params)
        support[i, :len(best)], coef[i, :len(best)] = best, a
    # Stack heights keep the correlation block and the largest sign-pattern
    # residual block near _STACK_ELEMENTS doubles each.
    rows = max(1, _STACK_ELEMENTS // max(n_atoms, mat.shape[0] << cap))
    greedy = np.flatnonzero(~enumerated)
    for start in range(0, greedy.size, rows):
        i = greedy[start:start + rows]
        support[i], coef[i] = _greedy(X[i], mat, cap, params, mask[i])
    # Exact zeros are padding too; each row's atoms ascend.
    pad = coef == 0.0
    order = np.argsort(np.where(pad, n_atoms, support), axis=1)
    return (np.take_along_axis(np.where(pad, -1, support), order, axis=1),
            np.take_along_axis(np.where(pad, 0.0, coef), order, axis=1))


def sparse_code(x: np.ndarray, D: Dictionary, params: SolverParams) -> SparseCode:
    """Solve for the capped-support L1 code of ``x`` against ``D``; the
    support never exceeds ``params.max_nonzeros``."""
    return sparse_codes(np.asarray(x, dtype=np.float64)[None], D, params)[0]


def sparse_codes(X: np.ndarray, D: Dictionary, params: SolverParams) -> list[SparseCode]:
    """Codes of the rows of ``X`` (n_spectra, bands) against one dictionary,
    computed together; each is the code ``sparse_code`` gives its row.
    ``X`` is copied to one C-contiguous float64 stack first, so the codes
    depend on its values, not its layout."""
    X = np.ascontiguousarray(X, dtype=np.float64)
    if X.ndim != 2:
        raise ValueError("spectra must be a 2-D (n_spectra, bands) array")
    if not np.all(np.isfinite(X)):
        raise ValueError("non-finite input spectrum")
    if X.shape[1] != D.bands:
        raise ValueError(f"spectrum length {X.shape[1]} does not match dictionary bands {D.bands}")
    support, coef = code_block(X, D.columns, params)
    return [SparseCode(s[s >= 0], c[s >= 0], D.n_atoms) for s, c in zip(support, coef)]


def block_residuals(X, mat, support, coef) -> np.ndarray:
    """Norms of x - mat[:, s] @ c for the rows x of X, s a row's ``support``
    up to its first -1 (zero coefficients included) and c its ``coef``.  Rows
    of one support size are formed together, each bit for bit as
    ``residual_norm`` forms it."""
    R = np.array(X, dtype=np.float64, order="C")  # unit-stride rows, as residual_norm's r
    counts = (support >= 0).sum(axis=1)
    for size in set(counts.tolist()) - {0}:
        rows = np.flatnonzero(counts == size)
        R[rows] -= (_columns(mat, support[rows, :size]) @ coef[rows, :size, None])[:, :, 0]
    return np.sqrt(_row_dots(R))


def residual_norm(x: np.ndarray, D: Dictionary, code: SparseCode) -> float:
    """Euclidean norm of x - D a for a sparse code a."""
    x = np.asarray(x, dtype=np.float64)
    if x.shape != (D.bands,):
        raise ValueError("spectrum length does not match dictionary bands")
    if code.dictionary_atoms != D.n_atoms:
        raise ValueError("code was produced for a different dictionary size")
    r = x - D.columns[:, code.indices] @ code.coefficients
    return float(np.linalg.norm(r))
