"""Gram least-squares solve and the symmetric eigendecomposition inside it."""

import re
import warnings

import numpy as np
import pytest

import levysid.numeric
from levysid import ConditioningWarning, DomainError, RankDeficiencyError
from levysid.numeric import COND_THRESHOLD, solve_gram


class TestSolveGram:
    def test_matches_materialized_path(self):
        rng = np.random.default_rng(8)
        A = rng.standard_normal((300, 7))
        B = rng.standard_normal((300, 2))
        x_full = np.linalg.lstsq(A, B, rcond=None)[0]
        x_gram = solve_gram(A.T @ A, A.T @ B)
        np.testing.assert_allclose(x_gram, x_full, rtol=1e-9, atol=1e-12)

    def test_singular_gram_raises(self):
        G = np.array([[1.0, 1.0], [1.0, 1.0]])
        with pytest.raises(RankDeficiencyError):
            solve_gram(G, np.array([1.0, 1.0]))

    def test_ill_conditioned_warns(self):
        w = np.array([1.0, 1e-24])
        q = np.array([[0.8, -0.6], [0.6, 0.8]])
        G = q @ np.diag(w) @ q.T
        C = G @ np.array([2.0, 1.0])
        with pytest.warns(ConditioningWarning):
            x = solve_gram(G, C)
        np.testing.assert_allclose(G @ x, C, rtol=0, atol=1e-10)

    @pytest.mark.parametrize("G,C", [
        (np.array([[1.0, np.nan], [np.nan, 1.0]]), np.ones(2)),
        (np.eye(2), np.array([1.0, np.inf])),
        (np.zeros((0, 0)), np.zeros(0)),
    ], ids=["nan-in-G", "inf-in-C", "empty"])
    def test_nonfinite_or_empty_rejected(self, G, C):
        with pytest.raises(DomainError):
            solve_gram(G, C)


def _sign_convention_reference(G, C):
    """The eigendecomposition fallback as first written: ``eigh`` of the
    symmetrized G, eigenvalues descending, each eigenvector's first entry
    above 1e-12 in magnitude made positive, then Q diag(1/w) Qᵀ C."""
    w, Q = np.linalg.eigh((G + G.T) / 2.0)
    order = np.argsort(-w, kind="stable")
    w, Q = w[order], Q[:, order]
    lead = np.argmax(np.abs(Q) > 1e-12, axis=0)
    Q[:, Q[lead, np.arange(Q.shape[1])] < 0.0] *= -1.0
    return Q @ ((Q.T @ C).T / w).T


def _random_gram(rng, n):
    A = rng.standard_normal((3 * n + 2, n))
    return A.T @ A


class TestSymEigen:
    """The symmetric eigendecomposition of G inside ``solve_gram``: its
    condition estimate and the pseudo-inverse the solve falls back to.
    ``eigen_path`` sets COND_THRESHOLD to 0, so that every solve takes the
    fallback, and returns the solution and the estimated cond(A)."""

    @pytest.fixture
    def eigen_path(self, monkeypatch):
        monkeypatch.setattr(levysid.numeric, "COND_THRESHOLD", 0.0)

        def solve(G, C):
            with pytest.warns(ConditioningWarning) as records:
                x = solve_gram(G, C)
            cond = re.search(r"cond ~ (\S+)\)", str(records[0].message))
            return x, float(cond.group(1))

        return solve

    def test_two_by_two_known(self, eigen_path):
        x, cond = eigen_path(np.array([[2.0, 1.0], [1.0, 2.0]]),
                             np.array([3.0, 0.0]))
        np.testing.assert_allclose(x, [2.0, -1.0], rtol=0, atol=1e-14)
        assert cond == pytest.approx(np.sqrt(3.0), rel=1e-3)

    def test_descending_order(self, eigen_path):
        # the estimate is sqrt(largest / smallest eigenvalue), never below 1
        rng = np.random.default_rng(5)
        for trial in range(10):
            _, cond = eigen_path(_random_gram(rng, 6), np.ones(6))
            assert cond > 1.0

    @pytest.mark.parametrize("n", [1, 2, 3, 5, 8])
    def test_reconstruction_and_orthogonality(self, eigen_path, n):
        # Q diag(1/w) Qᵀ inverts G only if Q is orthogonal
        rng = np.random.default_rng(100 + n)
        for trial in range(25):
            G = _random_gram(rng, n)
            C = rng.standard_normal((n, 2))
            x, _ = eigen_path(G, C)
            tol = 1e-13 * np.linalg.norm(G) * np.linalg.norm(x)
            np.testing.assert_allclose(G @ x, C, rtol=0, atol=tol)

    @pytest.mark.parametrize("n", [2, 4, 7])
    def test_eigenvalues_match_lapack(self, eigen_path, n):
        rng = np.random.default_rng(200 + n)
        for trial in range(10):
            G = _random_gram(rng, n)
            _, cond = eigen_path(G, np.ones(n))
            w_ref = np.linalg.eigvalsh(G)
            assert cond == pytest.approx(np.sqrt(w_ref[-1] / w_ref[0]), rel=1e-3)

    def test_identity(self, eigen_path):
        C = np.random.default_rng(6).standard_normal(4)
        x, cond = eigen_path(np.eye(4), C)
        assert np.array_equal(x, C) and cond == 1.0

    def test_nonsquare_rejected(self):
        with pytest.raises(Exception):
            solve_gram(np.ones((2, 3)), np.ones(2))

    @pytest.mark.parametrize("G,C", [
        (np.array([[1.0, np.inf], [np.inf, 1.0]]), np.ones(2)),
        (np.array([[np.nan]]), np.ones(1)),
        (np.zeros((0, 0)), np.ones(1)),
    ], ids=["inf", "nan", "empty"])
    def test_nonfinite_or_empty_rejected(self, G, C):
        with pytest.raises(DomainError):
            solve_gram(G, C)

    @pytest.mark.parametrize("n", [2, 3, 6])
    def test_householder_closed_form(self, eigen_path, n):
        # H = I - 2vv^T/v^Tv is symmetric and orthogonal, so H diag(w) H has
        # the inverse H diag(1/w) H
        rng = np.random.default_rng(300 + n)
        v = rng.standard_normal(n)
        H = np.eye(n) - 2.0 * np.outer(v, v) / (v @ v)
        w = np.linspace(3.0, 0.5, n)
        C = rng.standard_normal(n)
        x, cond = eigen_path(H @ np.diag(w) @ H, C)
        np.testing.assert_allclose(x, H @ ((H @ C) / w), rtol=0, atol=1e-13)
        assert cond == pytest.approx(np.sqrt(6.0), rel=1e-3)

    @pytest.mark.parametrize("n", [2, 5, 8])
    def test_sign_convention(self, n):
        # the fallback once fixed each eigenvector's sign; the sign cancels
        # in Q diag(1/w) Qᵀ C, so dropping it moves no bit. G and C are
        # summed over three row blocks, as the chunked regressions
        # accumulate them, from columns scaled down to 1e-10.5 .. 1e-13,
        # so cond(A) is past COND_THRESHOLD and the solve falls back
        rng = np.random.default_rng(400 + n)
        for trial in range(10):
            A = rng.standard_normal((600, n)) * np.geomspace(
                1.0, 10.0 ** -rng.uniform(10.5, 13.0), n)
            B = rng.standard_normal((600, 2))
            assert np.linalg.cond(A) > COND_THRESHOLD
            blocks = [slice(lo, lo + 200) for lo in range(0, 600, 200)]
            G = sum(A[rows].T @ A[rows] for rows in blocks)
            C = sum(A[rows].T @ B[rows] for rows in blocks)
            assert np.array_equal(G, G.T)
            with pytest.warns(ConditioningWarning):
                x = solve_gram(G, C)
            assert x.tobytes() == _sign_convention_reference(G, C).tobytes()

    def test_tiny_asymmetry_tolerated(self):
        x = solve_gram(np.array([[2.0, 1.0], [1.0 + 1e-14, 2.0]]),
                       np.array([3.0, 3.0]))
        np.testing.assert_allclose(x, [1.0, 1.0], rtol=0, atol=1e-12)

    def test_no_warnings_on_clean_input(self):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            solve_gram(np.diag([3.0, 2.0, 1.0]), np.ones(3))
