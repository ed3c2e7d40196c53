"""Gram least-squares solve and symmetric eigensolver."""

import warnings

import numpy as np
import pytest

from levysid import (
    ConditioningWarning,
    DomainError,
    NonSymmetricError,
    RankDeficiencyError,
    sym_eigen,
)
from levysid.numeric import solve_gram


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


class TestSymEigen:
    def test_two_by_two_known(self):
        Q, w = sym_eigen(np.array([[2.0, 1.0], [1.0, 2.0]]))
        np.testing.assert_allclose(w, [3.0, 1.0], rtol=0, atol=1e-14)
        recon = Q @ np.diag(w) @ Q.T
        np.testing.assert_allclose(recon, [[2.0, 1.0], [1.0, 2.0]],
                                   rtol=0, atol=1e-14)

    def test_descending_order(self):
        rng = np.random.default_rng(5)
        A = rng.standard_normal((6, 6))
        A = A + A.T
        _, w = sym_eigen(A)
        assert np.all(np.diff(w) <= 1e-12)

    @pytest.mark.parametrize("n", [1, 2, 3, 5, 8])
    def test_reconstruction_and_orthogonality(self, n):
        rng = np.random.default_rng(100 + n)
        for trial in range(25):
            A = rng.standard_normal((n, n))
            A = 0.5 * (A + A.T)
            Q, w = sym_eigen(A)
            fro = max(np.linalg.norm(A), 1e-300)
            assert np.linalg.norm(Q @ np.diag(w) @ Q.T - A) <= 1e-12 * fro
            np.testing.assert_allclose(Q.T @ Q, np.eye(n), rtol=0, atol=1e-12)

    @pytest.mark.parametrize("n", [2, 4, 7])
    def test_eigenvalues_match_lapack(self, n):
        rng = np.random.default_rng(200 + n)
        for trial in range(10):
            A = rng.standard_normal((n, n))
            A = 0.5 * (A + A.T)
            _, w = sym_eigen(A)
            w_ref = np.linalg.eigvalsh(A)[::-1]
            scale = max(1.0, np.abs(w_ref).max())
            np.testing.assert_allclose(w, w_ref, rtol=0, atol=1e-12 * scale)

    def test_identity(self):
        Q, w = sym_eigen(np.eye(4))
        np.testing.assert_allclose(w, np.ones(4), rtol=0, atol=0)
        np.testing.assert_allclose(np.abs(Q), np.eye(4), rtol=0, atol=0)

    def test_nonsymmetric_rejected(self):
        with pytest.raises(NonSymmetricError):
            sym_eigen(np.array([[1.0, 2.0], [0.0, 1.0]]))

    def test_nonsquare_rejected(self):
        with pytest.raises(Exception):
            sym_eigen(np.ones((2, 3)))

    @pytest.mark.parametrize("a", [
        np.array([[1.0, np.inf], [np.inf, 1.0]]),
        np.array([[np.nan]]),
        np.zeros((0, 0)),
    ], ids=["inf", "nan", "empty"])
    def test_nonfinite_or_empty_rejected(self, a):
        with pytest.raises(DomainError):
            sym_eigen(a)

    @pytest.mark.parametrize("n", [2, 3, 6])
    def test_householder_closed_form(self, n):
        # H = I - 2vv^T/v^Tv is symmetric and orthogonal, so H diag(w) H has
        # eigenvalue w[k] with eigenvector H[:, k]
        rng = np.random.default_rng(300 + n)
        v = rng.standard_normal(n)
        H = np.eye(n) - 2.0 * np.outer(v, v) / (v @ v)
        w = np.linspace(3.0, -2.0, n)
        Q, w_hat = sym_eigen(H @ np.diag(w) @ H)
        np.testing.assert_allclose(w_hat, w, rtol=0, atol=1e-13)
        for k in range(n):
            ref = H[:, k]
            if ref[np.flatnonzero(np.abs(ref) > 1e-12)[0]] < 0.0:
                ref = -ref
            np.testing.assert_allclose(Q[:, k], ref, rtol=0, atol=1e-12)

    @pytest.mark.parametrize("n", [2, 5, 8])
    def test_sign_convention(self, n):
        rng = np.random.default_rng(400 + n)
        for trial in range(20):
            A = rng.standard_normal((n, n))
            Q, _ = sym_eigen(A + A.T)
            for k in range(n):
                col = Q[:, k]
                assert col[np.flatnonzero(np.abs(col) > 1e-12)[0]] > 0.0

    def test_tiny_asymmetry_tolerated(self):
        A = np.array([[2.0, 1.0], [1.0 + 1e-14, 2.0]])
        Q, w = sym_eigen(A)
        np.testing.assert_allclose(w, [3.0, 1.0], rtol=0, atol=1e-12)

    def test_no_warnings_on_clean_input(self):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            sym_eigen(np.diag([3.0, 2.0, 1.0]))
