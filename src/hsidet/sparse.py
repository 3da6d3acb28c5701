"""L1-regularized, cardinality-capped sparse coding of a spectrum.

Minimizes 0.5 * ||x - D a||^2 + lambda * ||a||_1 over coefficient vectors
supported on at most ``max_nonzeros`` atoms.  Small dictionaries are solved
exactly by sweeping every support; larger ones use greedy atom admission,
as in the orthogonal matching pursuit of sparse-representation target
detectors (Chen, Nasrabadi & Tran 2011).  Either way each fixed-support
subproblem is solved exactly: for supports up to ``_SIGN_ENUM_LIMIT``
atoms by enumerating sign patterns of the stationarity system, beyond that
by soft-thresholded coordinate descent in Gram space.  Coefficient signs
are unconstrained.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from itertools import combinations, product
from math import comb

import numpy as np

from .cube import Dictionary

_ENUM_LIMIT = 512      # max support count for the exact small-dictionary path
_SIGN_ENUM_LIMIT = 12  # largest support solved by sign enumeration
_CD_MAX_ITER = 200     # coordinate-descent sweeps beyond _SIGN_ENUM_LIMIT
_CD_TOL = 1e-7         # stop when a sweep lowers the objective by less


@dataclass(frozen=True)
class SolverParams:
    lam: float = 0.1          # L1 weight; 0 gives pure cap-constrained matching
    max_nonzeros: int = 5     # hard support cap

    def __post_init__(self):
        if self.lam < 0:
            raise ValueError("lam must be >= 0")
        if self.max_nonzeros < 1:
            raise ValueError("max_nonzeros must be >= 1")


@dataclass(frozen=True)
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


def _objective_gram(a, G, b, xx, lam):
    return 0.5 * xx - float(a @ b) + 0.5 * float(a @ G @ a) + lam * float(np.abs(a).sum())


def _cd_gram(G, b, xx, lam):
    """Soft-thresholded coordinate descent on a fixed support, in Gram space."""
    s = b.size
    a = np.zeros(s)
    obj = 0.5 * xx
    for _ in range(_CD_MAX_ITER):
        for j in range(s):
            rho = b[j] - float(G[j] @ a) + G[j, j] * a[j]
            a[j] = np.sign(rho) * max(abs(rho) - lam, 0.0) / G[j, j]
        new_obj = _objective_gram(a, G, b, xx, lam)
        if obj - new_obj < _CD_TOL:
            break
        obj = new_obj
    return a


def _solve_support(Ds, x, lam):
    """Exact minimizer of the L1 subproblem restricted to the atoms in Ds.

    lam = 0 is plain least squares.  Otherwise all sign patterns s of the
    stationarity system G a = Ds^T x - lam * s are solved in one batched
    linear solve and the consistent pattern with the best objective wins.
    Oversized supports fall back to coordinate descent.

    Returns (coefficients, objective).
    """
    size = Ds.shape[1]
    xx = float(x @ x)
    if lam == 0.0:
        a, *_ = np.linalg.lstsq(Ds, x, rcond=None)
        r = x - Ds @ a
        return a, 0.5 * float(r @ r)
    G = Ds.T @ Ds
    b = Ds.T @ x
    if size > _SIGN_ENUM_LIMIT:
        a = _cd_gram(G, b, xx, lam)
        r = x - Ds @ a
        return a, 0.5 * float(r @ r) + lam * float(np.abs(a).sum())
    signs = _sign_patterns(size)
    rhs = b[:, None] - lam * signs
    try:
        A = np.linalg.solve(G, rhs)                              # (size, 2^size)
    except np.linalg.LinAlgError:
        A, *_ = np.linalg.lstsq(G, rhs, rcond=None)
    consistent = np.all(A * signs >= -1e-12, axis=0)
    best_a, best_obj = np.zeros(size), 0.5 * xx
    if np.any(consistent):
        A = A[:, consistent]
        # Objectives in data space: the Gram-space form cancels
        # catastrophically when a near-singular support yields huge
        # coefficients, letting garbage candidates win.
        R = x[:, None] - Ds @ A
        objs = 0.5 * np.einsum("ij,ij->j", R, R) + lam * np.abs(A).sum(axis=0)
        j = int(np.argmin(objs))
        if objs[j] < best_obj:
            best_a, best_obj = A[:, j], float(objs[j])
    return best_a, best_obj


def _make_code(support, a, n_atoms) -> SparseCode:
    items = sorted((j, c) for j, c in zip(support, a) if c != 0.0)
    idx = np.array([j for j, _ in items], dtype=np.intp)
    vals = np.array([c for _, c in items], dtype=np.float64)
    return SparseCode(idx, vals, n_atoms)


def _enumerate_supports(x, mat, cap, params, trace):
    n_atoms = mat.shape[1]
    best_obj = 0.5 * float(x @ x)
    best_support, best_a = (), np.zeros(0)
    if trace is not None:
        trace.append(best_obj)
    for size in range(1, cap + 1):
        for support in combinations(range(n_atoms), size):
            a, obj = _solve_support(mat[:, support], x, params.lam)
            if obj < best_obj - 1e-15:
                best_obj, best_support, best_a = obj, support, a
                if trace is not None:
                    trace.append(obj)
    return _make_code(best_support, best_a, n_atoms)


def _greedy(x, mat, cap, params, trace):
    n_atoms = mat.shape[1]
    support: list[int] = []
    a = np.zeros(0)
    best_obj = 0.5 * float(x @ x)
    if trace is not None:
        trace.append(best_obj)

    # Forward admission: add the atom most correlated with the residual,
    # then re-solve the active-set subproblem exactly.
    for _ in range(cap):
        r = x - mat[:, support] @ a if support else x
        corr = mat.T @ r
        if support:
            corr[np.asarray(support)] = 0.0
        j = int(np.argmax(np.abs(corr)))
        if abs(corr[j]) <= params.lam + 1e-15:
            break  # the soft threshold would zero the new atom
        trial = support + [j]
        a_new, obj = _solve_support(mat[:, trial], x, params.lam)
        if obj >= best_obj - 1e-15:
            break
        support, a, best_obj = trial, a_new, obj
        if trace is not None:
            trace.append(obj)
    return _make_code(support, a, n_atoms)


def sparse_code(
    x: np.ndarray,
    D: Dictionary,
    params: SolverParams,
    trace: list | None = None,
) -> SparseCode:
    """Solve for the capped-support L1 code of ``x`` against ``D``.

    The support never exceeds ``params.max_nonzeros``.  If ``trace`` is a
    list, the accepted objective values are appended to it; the sequence is
    non-increasing.
    """
    x = np.asarray(x, dtype=np.float64)
    if not np.all(np.isfinite(x)):
        raise ValueError("non-finite input spectrum")
    mat = D.columns
    if x.shape != (mat.shape[0],):
        raise ValueError(
            f"spectrum length {x.shape} does not match dictionary bands {mat.shape[0]}"
        )
    n_atoms = mat.shape[1]
    cap = min(params.max_nonzeros, n_atoms)

    # Small dictionaries: exact sweep over every support.  Greedy selection
    # can land in local optima on coherent dictionaries, and at this size
    # exactness is cheap.
    if sum(comb(n_atoms, s) for s in range(1, cap + 1)) <= _ENUM_LIMIT:
        return _enumerate_supports(x, mat, cap, params, trace)
    return _greedy(x, mat, cap, params, trace)


def residual_norm(x: np.ndarray, D: Dictionary, code: SparseCode) -> float:
    """Euclidean norm of x - D a for a sparse code a."""
    x = np.asarray(x, dtype=np.float64)
    if x.shape != (D.bands,):
        raise ValueError("spectrum length does not match dictionary bands")
    if code.dictionary_atoms != D.n_atoms:
        raise ValueError("code was produced for a different dictionary size")
    r = x - D.columns[:, code.indices] @ code.coefficients
    return float(np.linalg.norm(r))
