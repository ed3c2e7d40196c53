"""Stable-noise core: kernel constant, jump-measure masses, corrections, sampler."""

import numpy as np
import pytest
from numpy.testing import assert_allclose

from levysid.errors import DomainError
from levysid.rng import row_keys, stream_key
from levysid.stable import (
    StableParams,
    bin_mass,
    correction_R,
    correction_S,
    k_alpha,
    kernel_W,
)

from oracles import k_alpha_oracle, kernel_oracle, quad_R, quad_S, quad_mass
from stable_draws import sample_stable

ALPHAS = [0.3, 0.7, 1.0, 1.3, 1.7]
BETAS = [-1.0, -0.5, 0.0, 0.5, 1.0]


class TestParams:
    def test_valid(self):
        p = StableParams(1.5, -0.5, 0.5)
        assert p.alpha == 1.5 and p.beta == -0.5 and p.sigma == 0.5

    @pytest.mark.parametrize("alpha", [0.0, 2.0, -0.3, 2.5])
    def test_alpha_out_of_range(self, alpha):
        with pytest.raises(DomainError):
            StableParams(alpha, 0.0, 1.0)

    @pytest.mark.parametrize("beta", [-1.5, 1.01])
    def test_beta_out_of_range(self, beta):
        with pytest.raises(DomainError):
            StableParams(1.5, beta, 1.0)

    @pytest.mark.parametrize("sigma", [0.0, -1.0, np.inf])
    def test_sigma_not_positive(self, sigma):
        with pytest.raises(DomainError):
            StableParams(1.5, 0.0, sigma)


class TestKernelConstant:
    def test_alpha_one_closed_form(self):
        assert k_alpha(1.0) == pytest.approx(2.0 / np.pi, rel=1e-15)

    # frozen from the gamma-function oracle
    def test_frozen_values(self):
        assert k_alpha(0.5) == pytest.approx(0.3989422804014327, rel=1e-12)
        assert k_alpha(1.5) == pytest.approx(0.5984134206021491, rel=1e-12)

    def test_half_is_inv_sqrt_2pi(self):
        # Gamma(1.5) cos(pi/4) collapses to sqrt(2 pi)/4
        assert k_alpha(0.5) == pytest.approx(1.0 / np.sqrt(2 * np.pi), rel=1e-13)

    def test_continuous_at_one(self):
        for a in (1 - 1e-4, 1 + 1e-4):
            assert abs(k_alpha(a) - 2.0 / np.pi) < 1e-4

    @pytest.mark.parametrize("alpha", ALPHAS)
    def test_matches_oracle(self, alpha):
        assert k_alpha(alpha) == pytest.approx(k_alpha_oracle(alpha), rel=1e-12)

    @pytest.mark.parametrize("alpha", [0.0, 2.0, -1.0])
    def test_domain(self, alpha):
        with pytest.raises(DomainError):
            k_alpha(alpha)


class TestKernel:
    def test_zero_rejected(self):
        with pytest.raises(DomainError):
            kernel_W(0.0, 1.5, 0.0)
        with pytest.raises(DomainError):
            kernel_W(np.array([1.0, 0.0]), 1.5, 0.0)

    def test_symmetric_when_beta_zero(self):
        xi = np.array([0.2, 1.0, 3.7])
        assert_allclose(kernel_W(xi, 0.7, 0.0), kernel_W(-xi, 0.7, 0.0), rtol=1e-15)

    def test_totally_skewed_kills_one_side(self):
        assert kernel_W(-1.0, 1.3, 1.0) == 0.0
        assert kernel_W(1.0, 1.3, -1.0) == 0.0

    def test_vectorized_matches_scalar_oracle(self):
        rng = np.random.default_rng(42)
        for alpha in ALPHAS:
            for beta in BETAS:
                xi = np.concatenate([rng.uniform(0.05, 5.0, 8), -rng.uniform(0.05, 5.0, 8)])
                want = [kernel_oracle(v, alpha, beta) for v in xi]
                assert_allclose(kernel_W(xi, alpha, beta), want, rtol=1e-12)

    def test_scalar_in_scalar_out(self):
        out = kernel_W(2.0, 1.5, 0.5)
        assert np.ndim(out) == 0


class TestBinMass:
    def test_frozen_cauchy_example(self):
        p = StableParams(1.0, 0.0, 1.0)
        assert bin_mass(p, 1.0, 5.0) == pytest.approx(0.25464790894703254, rel=1e-12)

    def test_mirror_symmetry(self):
        p = StableParams(1.3, 0.0, 2.0)
        assert bin_mass(p, 0.5, 2.5) == pytest.approx(bin_mass(p, -2.5, -0.5), rel=1e-13)

    def test_skew_ratio(self):
        # positive vs negative mass is exactly (1+beta)/(1-beta)
        p = StableParams(0.7, 0.5, 1.0)
        ratio = bin_mass(p, 1.0, 3.0) / bin_mass(p, -3.0, -1.0)
        assert ratio == pytest.approx(3.0, rel=1e-13)

    @pytest.mark.parametrize("c1,c2", [(-1.0, 1.0), (0.0, 1.0), (-1.0, 0.0)])
    def test_zero_boundary_rejected(self, c1, c2):
        with pytest.raises(DomainError):
            bin_mass(StableParams(1.5, 0.0, 1.0), c1, c2)

    def test_reversed_endpoints_rejected(self):
        with pytest.raises(DomainError):
            bin_mass(StableParams(1.5, 0.0, 1.0), 3.0, 1.0)

    def test_additivity(self):
        rng = np.random.default_rng(7)
        for _ in range(200):
            alpha = rng.uniform(0.1, 1.9)
            beta = rng.uniform(-1, 1)
            sigma = rng.uniform(0.2, 3.0)
            p = StableParams(alpha, beta, sigma)
            a = rng.uniform(0.05, 2.0)
            b = a + rng.uniform(0.01, 3.0)
            c = b + rng.uniform(0.01, 3.0)
            whole = bin_mass(p, a, c)
            split = bin_mass(p, a, b) + bin_mass(p, b, c)
            assert abs(whole - split) <= 1e-12 * max(1.0, abs(whole))
            whole_n = bin_mass(p, -c, -a)
            split_n = bin_mass(p, -c, -b) + bin_mass(p, -b, -a)
            assert abs(whole_n - split_n) <= 1e-12 * max(1.0, abs(whole_n))

    @pytest.mark.parametrize("alpha", ALPHAS)
    @pytest.mark.parametrize("beta", [-0.5, 0.0, 1.0])
    def test_matches_quadrature(self, alpha, beta):
        p = StableParams(alpha, beta, 1.5)
        got = bin_mass(p, 0.7, 2.9)
        assert got == pytest.approx(quad_mass(alpha, beta, 1.5, 0.7, 2.9), rel=1e-10)


# spot values frozen from the quadrature oracle, one per alpha branch
FROZEN_RS = [
    # (alpha, beta, sigma, eps, R, S)
    (0.3, -1.0, 0.5, 2.0, -0.4889462540440576, 0.4026616209774591),
    (0.7, 0.5, 1.0, 0.5, 0.6977374017144915, 0.16101632347257513),
    (1.0, 0.5, 2.0, 0.5, -0.4412712003053032, 0.6366197723675813),
    (1.3, -0.5, 1.0, 2.0, 0.8959100067482875, 1.5358457258541756),
    (1.7, 1.0, 0.5, 0.5, -0.3188886186196922, 0.37203672172297514),
]


class TestCorrections:
    def test_frozen_drift_example(self):
        p = StableParams(0.5, 0.5, 2.0)
        assert correction_R(p, 1.0) == pytest.approx(0.5641895835477564, rel=1e-12)

    def test_frozen_diffusion_example(self):
        p = StableParams(1.5, 0.0, 0.5)
        assert correction_S(p, 1.0, 0, 0) == pytest.approx(0.42314218766081685, rel=1e-12)

    @pytest.mark.parametrize("case", FROZEN_RS)
    def test_frozen_spot_values(self, case):
        alpha, beta, sigma, eps, want_r, want_s = case
        p = StableParams(alpha, beta, sigma)
        assert correction_R(p, eps) == pytest.approx(want_r, rel=1e-10)
        assert correction_S(p, eps, 0, 0) == pytest.approx(want_s, rel=1e-10)

    def test_symmetric_drift_correction_vanishes(self):
        for alpha in ALPHAS:
            p = StableParams(alpha, 0.0, 1.7)
            assert correction_R(p, 0.8) == 0.0

    def test_alpha_one_log_form(self):
        # log of the cutoff: zero at eps=1, sign flips across it
        p = StableParams(1.0, 0.5, 1.0)
        assert correction_R(p, 1.0) == 0.0
        assert correction_R(p, 2.0) > 0.0
        assert correction_R(p, 0.5) < 0.0

    def test_off_diagonal_is_zero(self):
        p = StableParams(1.3, 0.5, 1.0)
        assert correction_S(p, 1.0, 0, 1) == 0.0
        assert correction_S(p, 1.0, 2, 0) == 0.0

    def test_diffusion_ignores_skew(self):
        for beta in BETAS:
            p = StableParams(1.3, beta, 1.0)
            assert correction_S(p, 0.9, 1, 1) == pytest.approx(
                correction_S(StableParams(1.3, 0.0, 1.0), 0.9, 1, 1), rel=1e-15)

    def test_quadrature_spot_grid(self):
        # small cross-section here; the full grid runs in the acceptance suite
        for alpha in ALPHAS:
            for beta in (-0.5, 1.0):
                p = StableParams(alpha, beta, 2.0)
                assert correction_R(p, 0.5) == pytest.approx(
                    quad_R(alpha, beta, 2.0, 0.5), rel=1e-8, abs=1e-13)
                assert correction_S(p, 0.5, 0, 0) == pytest.approx(
                    quad_S(alpha, beta, 2.0, 0.5), rel=1e-8)

    def test_epsilon_must_be_positive(self):
        p = StableParams(1.5, 0.0, 1.0)
        with pytest.raises(DomainError):
            correction_R(p, 0.0)
        with pytest.raises(DomainError):
            correction_S(p, -1.0, 0, 0)
        with pytest.raises(DomainError, match="epsilon must be positive and finite"):
            correction_R(p, np.inf)
        with pytest.raises(DomainError, match="epsilon must be positive and finite"):
            correction_S(p, np.inf, 0, 0)


class TestSampler:
    def test_deterministic(self):
        s = stream_key(123)
        a = sample_stable(1.5, -0.5, 1.0, 64, s)
        b = sample_stable(1.5, -0.5, 1.0, 64, s)
        assert np.array_equal(a, b)

    def test_streams_differ(self):
        a = sample_stable(1.5, 0.0, 1.0, 64, stream_key(1))
        b = sample_stable(1.5, 0.0, 1.0, 64, stream_key(2))
        assert not np.array_equal(a, b)

    def test_all_finite(self):
        s = stream_key(99)
        for alpha in ALPHAS:
            for beta in BETAS:
                key = row_keys(s, hash((alpha, beta)) & 0xFFFF, 1)[0]
                x = sample_stable(alpha, beta, 1.0, 20_000, int(key))
                assert np.isfinite(x).all()

    @pytest.mark.parametrize("alpha", [0.5, 1.0, 1.5])
    def test_symmetric_median_near_zero(self, alpha):
        x = sample_stable(alpha, 0.0, 1.0, 200_000, stream_key(5))
        assert abs(np.median(x)) < 0.01

    def test_scale_is_linear_for_alpha_ne_one(self):
        s = stream_key(11)
        base = sample_stable(1.5, -0.5, 1.0, 128, s)
        scaled = sample_stable(1.5, -0.5, 2.5, 128, s)
        assert_allclose(scaled, 2.5 * base, rtol=1e-14)

    def test_alpha_one_scale_shift(self):
        # S_1(c,beta,0) needs the (2/pi) beta c ln c drift term on top of c X
        s = stream_key(11)
        base = sample_stable(1.0, 0.5, 1.0, 128, s)
        scaled = sample_stable(1.0, 0.5, 3.0, 128, s)
        shift = (2 / np.pi) * 0.5 * 3.0 * np.log(3.0)
        assert_allclose(scaled, 3.0 * base + shift, rtol=1e-12)

    def test_totally_skewed_positive_small_alpha(self):
        # alpha < 1, beta = 1 is a positive (one-sided) stable law
        x = sample_stable(0.5, 1.0, 1.0, 50_000, stream_key(21))
        assert x.min() > 0
