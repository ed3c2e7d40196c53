"""The Gram least-squares solve.

The chunked regressions never materialize A and accumulate only G = AᵀA and
C = AᵀB, so ``solve_gram`` is the one least-squares solve. It solves by
Cholesky of G, which loses cond(A)² digits. One LAPACK ``eigh`` of G gives
its rank check and its condition estimate. G is a sum of AᵀA products, so it
is symmetric as accumulated.

ConditioningWarning means the estimated cond(A) exceeds COND_THRESHOLD, or
Cholesky broke down on rounding, and the solve took the eigendecomposition
pseudo-inverse instead. Numerically singular systems raise
RankDeficiencyError; empty or non-finite input raises DomainError.
"""

from __future__ import annotations

import warnings

import numpy as np

from .errors import ConditioningWarning, DomainError, RankDeficiencyError

COND_THRESHOLD = 1e10

# cond(A)^2 = cond(AtA); eigenvalue ratios below this are treated as rank loss
_SINGULAR_RATIO = 1e-30


def _check_finite(X, what):
    if X.size == 0:
        raise DomainError(f"{what} is empty, shape {X.shape}")
    if not np.isfinite(X).all():
        raise DomainError(f"{what} has non-finite entries")


def _back_substitute(U, Y):
    """Solve U X = Y for upper-triangular U, bottom row first."""
    X = np.empty_like(Y, dtype=np.float64)
    for i in range(U.shape[0] - 1, -1, -1):
        X[i] = (Y[i] - U[i, i + 1:] @ X[i + 1:]) / U[i, i]
    return X


def _cholesky_solve(G, C):
    L = np.linalg.cholesky(G)
    Y = np.empty_like(C, dtype=np.float64)
    for i in range(G.shape[0]):
        Y[i] = (C[i] - L[i, :i] @ Y[:i]) / L[i, i]
    return _back_substitute(L.T, Y)


def solve_gram(G, C):
    """Solve the normal equations G x = C (G = AtA, C = AtB) for one or more
    right-hand sides. Used by the chunked regressions, where A itself is never
    materialized; past the conditioning threshold the solve switches to an
    eigendecomposition pseudo-inverse and warns.
    """
    G = np.asarray(G, dtype=np.float64)
    C = np.asarray(C, dtype=np.float64)
    _check_finite(C, "right-hand side")
    _check_finite(G, "Gram matrix")
    w, Q = np.linalg.eigh(G)
    # descending; stable on the negated values, so tied eigenvalues keep
    # LAPACK's order and the pseudo-inverse its bits
    order = np.argsort(-w, kind="stable")
    w = w[order]
    Q = Q[:, order]
    wmax = float(w[0])
    wmin = float(w[-1])
    if wmax <= 0.0 or wmin <= wmax * _SINGULAR_RATIO:
        raise RankDeficiencyError("normal equations are numerically singular")
    cond = float(np.sqrt(wmax / wmin))
    if cond <= COND_THRESHOLD:
        try:
            return _cholesky_solve(G, C)
        except np.linalg.LinAlgError:
            pass  # borderline indefinite from rounding: take the eigen path
    warnings.warn(
        f"normal equations ill-conditioned (cond ~ {cond:.3e}); "
        "using eigendecomposition pseudo-inverse",
        ConditioningWarning, stacklevel=2)
    return Q @ ((Q.T @ C).T / w).T

