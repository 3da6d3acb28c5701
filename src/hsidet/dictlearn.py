"""Online dictionary learning for the global target and background dictionaries.

Classical online alternation: each mini-batch is sparse-coded against the
current dictionary, the codes update accumulated sufficient statistics
(A = sum a a^T, B = sum x a^T), and every atom is refreshed by block
coordinate descent on those statistics, then renormalized to unit length.
Atoms that are never selected across the whole run are replaced by the
worst-reconstructed training sample.

The surrogate objective tracked per epoch is the running average of
0.5 * ||x - D a||^2 + lambda * ||a||_1 evaluated at coding time.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .config import DetectorConfig
from .cube import Dictionary, HsiCube
from .predetect import cem_detect, select_training_sets
from .sparse import SolverParams, sparse_code

_JITTER_SCALE = 0.01


@dataclass(frozen=True)
class OdlParams:
    n_atoms: int
    lam: float = 0.1
    epochs: int = 5
    batch_size: int = 32
    sparsity: int = 5     # solver support cap during coding
    seed: int = 0

    def __post_init__(self):
        if self.n_atoms < 1:
            raise ValueError("n_atoms must be >= 1")
        if self.epochs < 1:
            raise ValueError("epochs must be >= 1")
        if self.batch_size < 1:
            raise ValueError("batch_size must be >= 1")


def _as_sample_matrix(samples) -> np.ndarray:
    X = np.asarray(samples, dtype=np.float64)
    if X.ndim != 2 or X.shape[0] == 0:
        raise ValueError("training set must be a nonempty (n_samples, bands) array")
    if np.all(np.linalg.norm(X, axis=1) == 0.0):
        raise ValueError("training set contains only zero samples")
    return X


def init_dictionary(samples, n_atoms: int, seed: int) -> Dictionary:
    """Seed atoms: a without-replacement draw of training samples, cycling with
    small Gaussian jitter when more atoms than samples are requested."""
    X = _as_sample_matrix(samples)
    nonzero = X[np.linalg.norm(X, axis=1) > 0.0]
    n = nonzero.shape[0]
    rng = np.random.default_rng(seed)
    perm = rng.permutation(n)
    cols = []
    for i in range(n_atoms):
        atom = nonzero[perm[i % n]].copy()
        if i >= n:
            atom = atom + rng.normal(0.0, _JITTER_SCALE * np.linalg.norm(atom), atom.shape)
        norm = np.linalg.norm(atom)
        if norm == 0.0:
            raise ValueError("zero-norm atom during initialization")
        cols.append(atom / norm)
    return Dictionary(np.stack(cols, axis=1))


def odl_learn(
    samples,
    params: OdlParams,
    objective_trace: list | None = None,
) -> Dictionary:
    """Learn a unit-norm dictionary from spectra; deterministic given the seed.

    If ``objective_trace`` is a list it receives the mean surrogate objective
    of each epoch.
    """
    X = _as_sample_matrix(samples)
    n, m = X.shape
    k = params.n_atoms
    D = init_dictionary(X, k, params.seed).columns.copy()
    rng = np.random.default_rng(params.seed + 1)
    solver = SolverParams(lam=params.lam, max_nonzeros=min(params.sparsity, k))

    A = np.zeros((k, k))
    B = np.zeros((m, k))
    used = np.zeros(k, dtype=bool)

    for _ in range(params.epochs):
        order = rng.permutation(n)
        epoch_obj = 0.0
        for start in range(0, n, params.batch_size):
            batch = order[start:start + params.batch_size]
            codes = []
            frozen = Dictionary(D)  # D only changes after the whole batch is coded
            for i in batch:
                x = X[i]
                code = sparse_code(x, frozen, solver)
                a = code.dense()
                codes.append((x, code))
                r = x - D @ a
                epoch_obj += 0.5 * float(r @ r) + params.lam * float(np.abs(a).sum())
                used[code.indices] = True
            # Only the code's support moves A and B: the dense outer products
            # add exact zeros everywhere else.
            for x, code in codes:
                idx, c = code.indices, code.coefficients
                A[np.ix_(idx, idx)] += np.outer(c, c)
                B[:, idx] += np.outer(x, c)
            # Block coordinate descent over atoms on the accumulated statistics.
            for j in range(k):
                if A[j, j] <= 1e-12:
                    continue
                u = D[:, j] + (B[:, j] - D @ A[:, j]) / A[j, j]
                norm = np.linalg.norm(u)
                if norm > 0.0:
                    D[:, j] = u / norm
        if objective_trace is not None:
            objective_trace.append(epoch_obj / n)

    dead = np.flatnonzero(~used)
    if dead.size:
        # Replace dead atoms with the worst-reconstructed (largest-residual)
        # training samples, normalized.
        residuals = np.empty(n)
        frozen = Dictionary(D)
        for i in range(n):
            code = sparse_code(X[i], frozen, solver)
            residuals[i] = np.linalg.norm(X[i] - D @ code.dense())
        worst = np.argsort(-residuals)
        for pos, j in enumerate(dead):
            repl = X[worst[pos % n]]
            norm = np.linalg.norm(repl)
            if norm == 0.0:
                repl = X[worst[0]]
                norm = np.linalg.norm(repl)
            D[:, j] = repl / norm

    D /= np.linalg.norm(D, axis=0)
    return Dictionary(D)


def _odl_params(config: DetectorConfig, n_atoms: int, seed: int) -> OdlParams:
    return OdlParams(
        n_atoms=n_atoms,
        lam=config.lam,
        epochs=config.odl_epochs,
        batch_size=config.odl_batch_size,
        sparsity=config.k,
        seed=seed,
    )


def _training_sets(cube: HsiCube, d: np.ndarray, config: DetectorConfig):
    scores = cem_detect(cube, d)
    return select_training_sets(scores, cube, config.n_target_train, config.bg_fraction)


def learn_target_dictionary(
    cube: HsiCube,
    d: np.ndarray,
    config: DetectorConfig,
) -> Dictionary:
    """Pre-detect with CEM and learn the target dictionary alone; it equals
    the first dictionary ``learn_global_dictionaries`` returns."""
    target_samples, _ = _training_sets(cube, d, config)
    return odl_learn(target_samples, _odl_params(config, config.n_target_atoms, config.seed))


def learn_global_dictionaries(
    cube: HsiCube,
    d: np.ndarray,
    config: DetectorConfig,
) -> tuple[Dictionary, Dictionary]:
    """Pre-detect with CEM, split training sets, learn both global dictionaries.

    Returns (target_dictionary, global_background_dictionary).
    """
    target_samples, bg_samples = _training_sets(cube, d, config)
    D_t = odl_learn(target_samples, _odl_params(config, config.n_target_atoms, config.seed))
    D_b_global = odl_learn(bg_samples, _odl_params(config, config.n_bg_atoms, config.seed + 1))
    return D_t, D_b_global
