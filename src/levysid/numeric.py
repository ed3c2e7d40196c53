"""Dense numeric kernels: the Gram least-squares solve and symmetric
eigendecomposition.

Every factorization is LAPACK through numpy. ``sym_eigen`` is ``eigh`` with a
fixed order and sign convention. ``solve_gram`` is the one least-squares
solve: the chunked regressions never materialize A and accumulate only
G = AᵀA and C = AᵀB. It solves by Cholesky of G, which loses cond(A)² digits,
and one eigendecomposition of G gives its rank check and its condition
estimate.

ConditioningWarning means the estimated cond(A) exceeds COND_THRESHOLD, or
Cholesky broke down on rounding, and the solve took the eigendecomposition
pseudo-inverse instead. Numerically singular systems raise
RankDeficiencyError; empty or non-finite input raises DomainError.
"""

from __future__ import annotations

import warnings

import numpy as np

from .errors import (
    ConditioningWarning,
    DomainError,
    NonSymmetricError,
    RankDeficiencyError,
)

COND_THRESHOLD = 1e10

# cond(A)^2 = cond(AtA); eigenvalue ratios below this are treated as rank loss
_SINGULAR_RATIO = 1e-30


def _check_finite(X, what):
    if X.size == 0:
        raise DomainError(f"{what} is empty, shape {X.shape}")
    if not np.isfinite(X).all():
        raise DomainError(f"{what} has non-finite entries")


def sym_eigen(a):
    """Eigendecomposition of a symmetric matrix (LAPACK ``eigh``).

    Returns (Q, w): orthogonal Q and eigenvalues w in descending order with
    a = Q diag(w) Q^T. Sign convention: the first entry of each eigenvector
    whose magnitude exceeds 1e-12 is made positive.
    """
    A = np.asarray(a, dtype=np.float64)
    if A.ndim != 2 or A.shape[0] != A.shape[1]:
        raise DomainError(f"matrix must be square, got shape {A.shape}")
    _check_finite(A, "matrix")
    scale = max(1.0, float(np.abs(A).max()))
    if float(np.abs(A - A.T).max()) > 1e-10 * scale:
        raise NonSymmetricError(
            "matrix is not symmetric within 1e-10 relative tolerance")
    w, V = np.linalg.eigh((A + A.T) / 2.0)
    # stable on the negated values: tied eigenvalues keep LAPACK's order
    order = np.argsort(-w, kind="stable")
    w = w[order]
    V = V[:, order]
    cols = np.arange(V.shape[1])
    lead = np.argmax(np.abs(V) > 1e-12, axis=0)
    V[:, V[lead, cols] < 0.0] *= -1.0
    return V, w


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
    Q, w = sym_eigen(G)
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

