"""Online dictionary learning for the global target and background dictionaries.

Classical online alternation: each mini-batch is sparse-coded against the
current dictionary, the codes update accumulated sufficient statistics
(A = sum a a^T, B = sum x a^T), and every atom is refreshed by block
coordinate descent on those statistics.  Every atom is made unit-norm by the
one atom rule (``sparse._unit_rows``) and never renormalized.  Atoms that
are never selected across the whole run are replaced by the
worst-reconstructed training sample.  Atoms are refreshed once per
mini-batch (Mairal, Bach, Ponce & Sapiro 2010, JMLR, sec. 3.4) by a Python
loop, so a batch holds max(32, k // 8) samples for k atoms: derived, not set.

The surrogate objective tracked per epoch is the running average of
0.5 * ||x - D a||^2 + lambda * ||a||_1 evaluated at coding time, each
residual taken from the mini-batch's code block (``sparse.block_residuals``).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .cube import Dictionary, check_fields
from .sparse import (MAX_NONZEROS, SolverParams, _is_atom, _row_dots, _unit_rows,
                     block_residuals, code_block)


@dataclass(frozen=True)
class OdlParams:
    n_atoms: int          # at most; the count is capped at the nonzero samples
    lam: float = 0.1
    epochs: int = 5
    sparsity: int = 5     # solver support cap during coding, at most MAX_NONZEROS
    seed: int = 0

    def __post_init__(self):
        check_fields(self, {"n_atoms": 1, "epochs": 1, "sparsity": (1, MAX_NONZEROS), "seed": 0},
                     reals=("lam",), nonnegative=("lam",))


def _initial_atoms(samples, n_atoms: int, seed: int):
    """``samples`` as a C-contiguous float64 (n, bands) stack X, the mask of
    its rows that are atoms (``sparse._is_atom``), and the seed atoms: the
    atoms of a without-replacement draw of at most ``n_atoms`` of those rows
    alone, as a fresh C-contiguous (bands, atoms) array."""
    X = np.ascontiguousarray(samples, dtype=np.float64)
    if X.ndim != 2 or X.shape[0] == 0:
        raise ValueError("training set must be a nonempty (n_samples, bands) array")
    # A non-finite value makes its row's x @ x non-finite; so does overflow,
    # which only those rows' own values tell apart.
    with np.errstate(over="ignore"):
        dots = _row_dots(X)
    bad = np.flatnonzero(~np.isfinite(dots))
    if not np.isfinite(X[bad]).all():
        raise ValueError("training set contains non-finite values")
    if bad.size:
        raise ValueError(f"training sample {bad[0]} overflows: x @ x is not finite")
    keep = _is_atom(dots)
    if not keep.any():
        raise ValueError("training set contains only zero samples")
    picks = np.random.default_rng(seed).permutation(np.flatnonzero(keep))[:n_atoms]
    return X, keep, np.ascontiguousarray(_unit_rows(X[picks])[1].T)


def _update_atoms(D, A, B, coupled) -> None:
    """One block-coordinate-descent pass over the atoms on the accumulated
    statistics (Mairal et al. 2010, Alg. 2), each update that is an atom
    (``sparse._unit_rows``) replacing its atom by its own.

    An atom that has never shared a code has a column of A that is zero off
    the diagonal, so D @ A[:, j] is exactly D[:, j] * A[j, j] and its update
    reads no other atom: all such atoms are refreshed in one vector step.
    Coupled atoms read each other and are refreshed one at a time in index
    order.
    """
    diag = np.diagonal(A)
    active = diag > 1e-12
    single = np.flatnonzero(active & ~coupled)
    if single.size:
        a = diag[single]
        keep, U = _unit_rows(np.ascontiguousarray(
            (D[:, single] + (B[:, single] - D[:, single] * a) / a).T))
        D[:, single[keep]] = U.T
    for j in np.flatnonzero(active & coupled):
        if (u := _unit_rows(D[:, j] + (B[:, j] - D @ A[:, j]) / A[j, j])) is not None:
            D[:, j] = u


def odl_learn(samples, params: OdlParams, objective_trace: list | None = None) -> Dictionary:
    """Learn a unit-norm dictionary from spectra; deterministic given the seed.

    Only samples that are atoms (``sparse._unit_rows``) are drawn.  A draw
    that holds all of them is the dictionary, with no epochs: each sample
    codes as its own atom alone, whose refresh returns it up to rounding.  At
    the default and preset configs D_t is such a draw, the unit-norm
    CEM-selected pixels in draw order.

    Otherwise an epoch codes mini-batches of max(32, k // 8) samples for the
    k atoms drawn, a size derived and not set: atoms are refreshed once per
    mini-batch (Mairal et al. 2010, sec. 3.4), by a Python loop over the
    coupled ones, so a batch that grows with k bounds that cost per sample.

    If ``objective_trace`` is a list it receives the mean surrogate objective
    of each epoch; the objective is only computed then.
    """
    X, keep, D = _initial_atoms(samples, params.n_atoms, params.seed)
    n, m = X.shape
    k = D.shape[1]
    if k == np.count_nonzero(keep):
        return Dictionary(D)
    size = max(32, k // 8)
    rng = np.random.default_rng(params.seed + 1)
    solver = SolverParams(lam=params.lam, max_nonzeros=min(params.sparsity, k))

    A = np.zeros((k, k))
    B = np.zeros((m, k))
    used = np.zeros(k, dtype=bool)
    coupled = np.zeros(k, dtype=bool)  # has shared a code with another atom

    for _ in range(params.epochs):
        order = rng.permutation(n)
        epoch_obj = 0.0
        for start in range(0, n, size):
            batch = order[start:start + size]
            # D only changes after the whole batch is coded.
            support, coef = code_block(X[batch], D, solver)
            atoms = support >= 0
            used[support[atoms]] = True
            coupled[support[atoms & (atoms.sum(axis=1) > 1)[:, None]]] = True
            # Only the codes' supports move A and B, one sample after
            # another: the dense outer products add exact zeros elsewhere.
            i, p, q = np.nonzero(atoms[:, :, None] & atoms[:, None, :])
            np.add.at(A, (support[i, p], support[i, q]), coef[i, p] * coef[i, q])
            i, p = np.nonzero(atoms)
            np.add.at(B.T, support[i, p], X[batch[i]] * coef[i, p, None])
            if objective_trace is not None:
                r = block_residuals(X[batch], D, support, coef)
                epoch_obj += float(np.sum(0.5 * r * r + params.lam * np.abs(coef).sum(axis=1)))
            _update_atoms(D, A, B, coupled)
        if objective_trace is not None:
            objective_trace.append(epoch_obj / n)

    dead = np.flatnonzero(~used)
    if dead.size:
        # Replace dead atoms with the atoms of the worst-reconstructed
        # (largest-residual) training samples, in that order; a sample that
        # is no atom gives way to the worst-reconstructed one that is.
        residuals = block_residuals(X, D, *code_block(X, D, solver))
        worst = np.argsort(-residuals)
        picks = worst[:dead.size]
        picks[~keep[picks]] = worst[np.argmax(keep[worst])]
        D[:, dead] = _unit_rows(X[picks])[1].T
    return Dictionary(D)
