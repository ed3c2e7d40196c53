"""Closed-form mathematics of asymmetric alpha-stable Levy measures.

The jump measure of a component with parameters (alpha, beta) has density

    W(xi) = k_alpha * (1 + beta) / (2 |xi|^(1+alpha)),  xi > 0
    W(xi) = k_alpha * (1 - beta) / (2 |xi|^(1+alpha)),  xi < 0

with k_alpha = alpha(1-alpha) / (Gamma(2-alpha) cos(pi alpha/2)) away from
alpha = 1 and 2/pi at alpha = 1 (the formula's continuous limit). A component
with intensity sigma scales the measure to sigma^{-1} W(sigma^{-1} y) in
increment space. Everything here is the exact calculus of that density:
interval masses, the truncated first-moment correction R used by drift
estimation, the truncated second-moment correction S used by diffusion
estimation, and the map of standard stable draws (``rng``'s
Chambers-Mallows-Stuck transform) to a given intensity.

The corrections are closed forms of piecewise integrals whose branches change
at alpha = 1; the test suite checks them against adaptive quadrature of the
defining integrals, so keep any edits here in lockstep with those integrals.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import DomainError, positive


@dataclass(frozen=True)
class StableParams:
    """Levy triple of one noise component: stability alpha in (0,2), skewness
    beta in [-1,1], intensity 0 < sigma < inf; the one check of all three.
    alpha = 2 (the Gaussian edge) is excluded; Gaussian noise is modeled by
    the diffusion term instead."""

    alpha: float
    beta: float
    sigma: float

    def __post_init__(self):
        if not (0.0 < self.alpha < 2.0):
            raise DomainError(f"alpha must lie in (0,2), got {self.alpha}")
        if not (-1.0 <= self.beta <= 1.0):
            raise DomainError(f"beta must lie in [-1,1], got {self.beta}")
        positive("sigma", self.sigma)


def k_alpha(alpha: float) -> float:
    """Normalizing constant of the stable kernel.

    alpha(1-alpha) / (Gamma(2-alpha) cos(pi alpha/2)) for alpha != 1; the
    removable singularity at alpha = 1 evaluates to 2/pi.
    """
    StableParams(alpha, 0.0, 1.0)
    if alpha == 1.0:
        return 2.0 / math.pi
    return alpha * (1.0 - alpha) / (math.gamma(2.0 - alpha) * math.cos(math.pi * alpha / 2.0))


def kernel_W(xi, alpha: float, beta: float):
    """Jump-measure density W(xi) at unit intensity; vectorized over xi.

    Raises DomainError if any xi is exactly 0 (the kernel is singular there).
    """
    StableParams(alpha, beta, 1.0)
    k = k_alpha(alpha)
    x = np.asarray(xi, dtype=np.float64)
    if np.any(x == 0.0):
        raise DomainError("kernel_W is singular at xi = 0")
    side = np.where(x > 0.0, 1.0 + beta, 1.0 - beta)
    out = k * side / (2.0 * np.abs(x) ** (1.0 + alpha))
    return out if out.ndim else float(out)


def bin_mass(params: StableParams, c1: float, c2: float) -> float:
    """Mass sigma^{-1} * integral over [c1, c2) of W((.)/sigma).

    The interval must not straddle or touch 0. Closed form: for 0 < c1 < c2,
    sigma^alpha k_alpha (1+beta) (c1^-alpha - c2^-alpha) / (2 alpha); the
    negative-axis mirror swaps (1+beta) for (1-beta).
    """
    if not c1 < c2:
        raise DomainError(f"need c1 < c2, got [{c1}, {c2})")
    if c1 <= 0.0 <= c2:
        raise DomainError(f"interval [{c1}, {c2}) must not straddle or touch 0")
    a, b, s = params.alpha, params.beta, params.sigma
    if c1 > 0.0:
        side, lo, hi = 1.0 + b, c1, c2
    else:
        side, lo, hi = 1.0 - b, -c2, -c1
    return s**a * k_alpha(a) * side * (lo**-a - hi**-a) / (2.0 * a)


def correction_R(params: StableParams, epsilon: float) -> float:
    """Truncated first-moment correction R(epsilon) of the jump measure.

    Closed form of the piecewise defining integrals (small jumps inside
    [-eps, eps] for alpha < 1, the band between 1 and eps for alpha = 1 taken
    as an oriented integral, minus the tail outside [-eps, eps] for alpha > 1):

        sigma^alpha k_alpha beta eps^(1-alpha) / (1-alpha)   alpha != 1
        sigma k_1 beta ln(eps)                               alpha  = 1
    """
    positive("epsilon", epsilon)
    a, b, s = params.alpha, params.beta, params.sigma
    if a == 1.0:
        return s * k_alpha(1.0) * b * math.log(epsilon)
    return s**a * k_alpha(a) * b * epsilon ** (1.0 - a) / (1.0 - a)


def correction_S(params: StableParams, epsilon: float, i: int, j: int) -> float:
    """Truncated second-moment correction S_ij(epsilon); zero off-diagonal.

    S_ii = sigma^{-1} integral over [-eps, eps] of y^2 W(y/sigma) dy
         = sigma^alpha k_alpha eps^(2-alpha) / (2-alpha),
    independent of beta because the integrand is even.
    """
    positive("epsilon", epsilon)
    if i != j:
        return 0.0
    a, s = params.alpha, params.sigma
    return s**a * k_alpha(a) * epsilon ** (2.0 - a) / (2.0 - a)


def scale_stable(standard_draws: np.ndarray, alpha: float, beta: float,
                 scale: float) -> np.ndarray:
    """Map standard S_alpha(1, beta, 0) draws to S_alpha(scale, beta, 0).

    For alpha = 1 the scaling family is not closed under bare
    multiplication, so the log shift (2/pi) beta scale ln(scale) is added to
    keep the zero-shift parametrization exact at every scale.
    """
    if alpha == 1.0:
        return scale * standard_draws + (2.0 / math.pi) * beta * scale * math.log(scale)
    return scale * standard_draws
