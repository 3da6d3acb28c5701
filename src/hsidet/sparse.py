"""L1-regularized, cardinality-capped sparse coding of spectra.

Minimizes 0.5 * ||x - D a||^2 + lambda * ||a||_1 over coefficient vectors
supported on at most ``max_nonzeros`` atoms.  Small dictionaries are solved
exactly by sweeping every support; larger ones use greedy atom admission, as
in the orthogonal matching pursuit of sparse-representation target detectors
(Chen, Nasrabadi & Tran 2011).  Spectra coded against dictionaries of one
size are solved together, as one stack of rows, in the manner of Batch-OMP
(Rubinstein, Zibulevsky & Elad 2008): the sweep makes one solve per support
and greedy admission one correlation product and one solve per step; a
single spectrum is a stack of one row.  A per-row mask confines each row to
its own columns of the matrix, such as a pixel's [global | dual-window
ring] atoms in a shared pool.  Every fixed-support subproblem is solved
exactly: by least squares when lambda is 0, else over all 2^size sign
patterns of its stationarity system, size <= ``MAX_NONZEROS``, of which
only the patterns its solutions keep are scored.  Signs are unconstrained.
A stack is as tall as ``_STACK_ELEMENTS`` doubles allow for the blocks each
row holds at once: its correlations, its support columns and its sign-pattern
coefficients.

Ties go to the lowest column on both paths: the sweep keeps the first
support at equal objectives, and greedy admission takes the lowest column
whose correlation is within ``_TIE_RTOL`` of the row's largest.  An STD
pool can hold a drawn D_t atom twice, as an atom and as its pixel's ring
column, the same bytes (``_unit_rows``); this rule picks the copy a code uses.

A stack's codes are one block (``code_block``, the one stacked entry):
(n, cap) atom indices, each row's ascending and then -1 padding, and (n,
cap) coefficients, 0.0 at the padding, which an exact-zero coefficient
joins.  ``code_block`` checks nothing: its callers pass a C-contiguous,
finite float64 stack and a plain matrix, so a code depends on values, not
layout.  The pipeline forms every residual from a block with
``block_residuals``; only the public ``sparse_code``, which checks its one
spectrum and codes it as a stack of one row, builds a ``SparseCode``.
"""

from __future__ import annotations

import numbers
import sys
from dataclasses import dataclass
from functools import lru_cache
from itertools import combinations, product
from math import comb, isfinite, sqrt

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
        if not isinstance(self.lam, numbers.Real):
            raise ValueError("lam must be a real number")
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


def _is_atom(dots):
    """Whether spectra whose x @ x (as ``_row_dots`` forms them) are ``dots``
    are atoms: each x @ x at least the smallest normal float64."""
    return dots >= sys.float_info.min


def _unit_rows(X):
    """The one atom rule of every dictionary: x is an atom iff ``_is_atom``
    holds, and its atom is x / sqrt(x @ x).  Returns the mask of the rows of
    the (n, bands) stack X that are atoms and their atoms, a fresh stack; for
    one spectrum X, in scalar steps for ODL's coupled atoms, its atom or None."""
    dots = X @ X if X.ndim == 1 else _row_dots(X)
    keep = _is_atom(dots)
    if X.ndim == 1:
        return X / sqrt(dots) if keep else None
    atoms = X[keep]
    atoms /= np.sqrt(dots[keep])[:, None]
    return keep, atoms


def _columns(mat, supports):
    """Stack of the (bands, size) column blocks ``mat[:, support]``, one per
    row of the (n, size) index array ``supports``, each laid out in column
    order as ``mat[:, support]`` is: BLAS rounding depends on the layout."""
    return np.ascontiguousarray(mat.T[supports]).transpose(0, 2, 1)


def _solve_support(Ds, X, lam):
    """Exact minimizers of a stack of L1 subproblems: row i of X (n, bands)
    restricted to the atoms in Ds[i] (n, bands, size).

    lam = 0 is least squares by ``lstsq``, row by row: normal equations
    would split the coefficients of near-duplicate atoms arbitrarily.
    Otherwise all sign patterns s of each row's stationarity system
    G a = Ds^T x - lam * s are solved in one batched linear solve over the
    stack.  A pattern is consistent when its solution keeps its signs (each
    a_i s_i >= -1e-12), and only consistent patterns are scored: with a
    nonsingular G the subproblem is strictly convex, so a row has at most
    one, more only within the tolerance, where the lower pattern index wins
    a tie.  Each row's first is scored over the whole stack and any others
    gathered, with their support columns.  A row with none, as when its
    optimum has a zero coefficient, returns an infinite objective.  A stack
    holding a singular Gram matrix is solved row by row, and a row whose own
    Gram matrix is singular by ``lstsq``.  The zero code is no candidate:
    callers keep a support only when its objective is below the row's best
    so far, which starts at the zero code's 0.5 ||x||^2.

    Returns (coefficients (n, size), objectives (n,), residuals (n, bands)),
    each row's residual x - Ds a at its returned coefficients.
    """
    n, _, size = Ds.shape
    if lam == 0.0:
        A, objs, R = np.empty((n, size)), np.empty(n), np.empty_like(X)
        for i in range(n):
            A[i] = np.linalg.lstsq(Ds[i], X[i], rcond=None)[0]
            R[i] = X[i] - Ds[i] @ A[i]
            objs[i] = 0.5 * float(R[i] @ R[i])
        return A, objs, R
    Dt = Ds.transpose(0, 2, 1)
    G = Dt @ Ds
    b = Dt @ X[:, :, None]                                      # (n, size, 1)
    signs = _sign_patterns(size)
    rhs = b - lam * signs
    try:
        A = np.linalg.solve(G, rhs)                             # (n, size, 2^size)
    except np.linalg.LinAlgError:
        A = np.empty_like(rhs)
        for i in range(n):
            try:
                A[i] = np.linalg.solve(G[i], rhs[i])
            except np.linalg.LinAlgError:
                A[i] = np.linalg.lstsq(G[i], rhs[i], rcond=None)[0]
    # Objectives in data space: the Gram-space form cancels catastrophically
    # when a near-singular support yields huge coefficients, letting garbage
    # candidates win.  The spent right-hand sides take the sign products.
    ok = np.multiply(A, signs, out=rhs).min(axis=1) >= -1e-12  # (n, 2^size)
    rows = np.arange(n)
    j = ok.argmax(axis=1)               # each row's first consistent pattern
    a = A[rows, :, j]
    R = X - (Ds @ a[:, :, None])[:, :, 0]
    objs = np.full(ok.shape, np.inf)
    objs[rows, j] = np.where(ok[rows, j], 0.5 * _row_dots(R) + lam * np.abs(a).sum(axis=1),
                             np.inf)
    # Only a row with two or more (within the tolerance) scores the rest,
    # its support columns gathered.
    ok[rows, j] = False
    r, p = np.nonzero(ok)
    if r.size:
        a2 = A[r, :, p]                                         # (pairs, size)
        R2 = X[r] - (Ds[r] @ a2[:, :, None])[:, :, 0]
        objs[r, p] = 0.5 * _row_dots(R2) + lam * np.abs(a2).sum(axis=1)
        j = objs.argmin(axis=1)
        won = np.flatnonzero(p == j[r])
        R[r[won]] = R2[won]
        a = A[rows, :, j]
    return a, objs[rows, j], R


def _sweep(X, mat, cap, params, mask):
    """Exact codes of the rows of X as a block, each over every support of
    at most ``cap`` of its ``mask`` row's columns of ``mat``; all rows have
    as many.  Each position set is one solve for the whole stack, and a row
    keeps the first support at equal objectives.  ``_columns`` lays out a
    row's block as ``mat[:, support]`` is, so a code is the one the row's
    atoms as their own dictionary give, bit for bit."""
    atoms = np.nonzero(mask)[1].reshape(X.shape[0], -1)
    n, m = atoms.shape
    support, coef = np.full((n, cap), -1, dtype=np.intp), np.zeros((n, cap))
    best = 0.5 * _row_dots(X)
    for size in range(1, min(cap, m) + 1):
        for p in combinations(range(m), size):
            s = atoms[:, p]
            a, obj, _ = _solve_support(_columns(mat, s), X, params.lam)
            win = obj < best - 1e-15
            best = np.where(win, obj, best)
            support[win, :size], coef[win, :size] = s[win], a[win]
    return support, coef


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
    # indices, spectra, atom masks, objectives, supports (in admission
    # order) and residuals.
    live, Xl, M, R = np.arange(n), X, mask, X
    best = 0.5 * _row_dots(X)
    support = np.zeros((n, 0), dtype=np.intp)
    for step in range(cap):
        mag = R @ mat
        np.abs(mag, out=mag)
        mag[~M] = 0.0
        rows = np.arange(live.size)
        mag[rows[:, None], support] = 0.0
        top = mag.max(axis=1, keepdims=True)
        j = (mag >= top * (1.0 - _TIE_RTOL)).argmax(axis=1)
        grow = mag[rows, j] > lam + 1e-15       # else the soft threshold zeroes it
        del mag                                 # spent before the solve's blocks exist
        if not grow.all():
            if not grow.any():
                break
            live, Xl, M, best, support, j = (v[grow] for v in (live, Xl, M, best, support, j))
        trial = np.concatenate((support, j[:, None]), axis=1)
        a, obj, res = _solve_support(_columns(mat, trial), Xl, lam)
        accept = obj < best - 1e-15
        if not accept.any():
            break
        if not accept.all():
            live, Xl, M, trial, a, obj, res = (
                v[accept] for v in (live, Xl, M, trial, a, obj, res))
        support, best, R = trial, obj, res
        out[0][live, :step + 1], out[1][live, :step + 1] = support, a
    return out


def code_block(X: np.ndarray, mat: np.ndarray, params: SolverParams,
               mask: np.ndarray | None = None) -> tuple[np.ndarray, np.ndarray]:
    """The codes of the rows of ``X`` against ``mat``, as one block, each the
    code ``sparse_code`` gives its row alone.  ``X`` is a C-contiguous, finite
    float64 (n, bands) stack and ``mat`` a (bands, atoms) array; neither is
    checked here.  A boolean (n, atoms) ``mask`` codes row i against
    ``mat[:, mask[i]]``, in column order, with indices that count its columns."""
    n, n_atoms = X.shape[0], mat.shape[1]
    cap = min(params.max_nonzeros, n_atoms)
    support, coef = np.full((n, cap), -1, dtype=np.intp), np.zeros((n, cap))
    if mask is None:
        mask = np.broadcast_to(True, (n, n_atoms))
    # A stack's rows share _STACK_ELEMENTS doubles among the blocks each row
    # holds at once: its correlations, its support columns and its
    # sign-pattern coefficients, at the largest support.
    rows = max(1, _STACK_ELEMENTS // (n_atoms + mat.shape[0] * cap + (cap << cap)))
    # A row's own dictionary is its mask row's atoms.  Rows with few enough
    # of them are swept exactly, a stack of one atom count at a time, since
    # greedy selection can land in local optima on coherent dictionaries.
    # Supports grow with the atom count, so every row with more atoms than
    # the largest swept count joins a stacked greedy pass.
    counts = mask.sum(axis=1)
    swept = [m for m in set(counts.tolist())
             if sum(comb(m, t) for t in range(1, min(cap, m) + 1)) <= _ENUM_LIMIT]
    paths = [(_sweep, counts == m) for m in swept] + [(_greedy, counts > max(swept, default=-1))]
    for solve, chosen in paths:
        i = np.flatnonzero(chosen)
        for start in range(0, i.size, rows):
            j = i[start:start + rows]
            support[j], coef[j] = solve(X[j], mat, cap, params, mask[j])
    # Exact zeros are padding too; each row's atoms ascend.
    pad = coef == 0.0
    order = np.argsort(np.where(pad, n_atoms, support), axis=1)
    return (np.take_along_axis(np.where(pad, -1, support), order, axis=1),
            np.take_along_axis(np.where(pad, 0.0, coef), order, axis=1))


def sparse_code(x: np.ndarray, D: Dictionary, params: SolverParams) -> SparseCode:
    """Solve for the capped-support L1 code of ``x`` against ``D``; the
    support never exceeds ``params.max_nonzeros``.  ``x`` is copied to a
    contiguous float64 spectrum first, so its code depends on its values,
    not its layout."""
    x = np.ascontiguousarray(x, dtype=np.float64)
    if x.shape != (D.bands,):
        raise ValueError(f"spectrum shape {x.shape} does not match dictionary bands {D.bands}")
    if not np.all(np.isfinite(x)):
        raise ValueError("non-finite input spectrum")
    (support,), (coef,) = code_block(x[None], D.columns, params)
    return SparseCode(support[support >= 0], coef[support >= 0], D.n_atoms)


def block_residuals(X, mat, support, coef) -> np.ndarray:
    """Norms of x - mat[:, s] @ c for the rows x of the C-contiguous float64
    stack X, s a row's ``support`` up to its first -1 (zero coefficients
    included) and c its ``coef``; a row with no support is its own residual.
    Rows of one support size are formed together, each bit for bit as
    ``residual_norm`` forms it, in stacks whose gathered columns and residual
    rows hold about ``_STACK_ELEMENTS`` doubles: beyond the norms, memory is
    bounded by the stack, not by X."""
    norms = np.empty(X.shape[0])
    counts = (support >= 0).sum(axis=1)
    for size in set(counts.tolist()):
        rows = np.flatnonzero(counts == size)
        step = max(1, _STACK_ELEMENTS // (mat.shape[0] * (size + 1)))
        for start in range(0, rows.size, step):
            i = rows[start:start + step]
            R = X[i]
            if size:
                R -= (_columns(mat, support[i, :size]) @ coef[i, :size, None])[:, :, 0]
            norms[i] = np.sqrt(_row_dots(R))
    return norms


def residual_norm(x: np.ndarray, D: Dictionary, code: SparseCode) -> float:
    """Euclidean norm of x - D a for a sparse code a."""
    x = np.asarray(x, dtype=np.float64)
    if x.shape != (D.bands,):
        raise ValueError("spectrum length does not match dictionary bands")
    if code.dictionary_atoms != D.n_atoms:
        raise ValueError("code was produced for a different dictionary size")
    r = x - D.columns[:, code.indices] @ code.coefficients
    return float(np.linalg.norm(r))
