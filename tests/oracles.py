"""Independent oracles shared by the test modules.

Everything here is deliberately implemented from scratch on top of scipy:
scipy.special.gamma for the kernel constant and QUADPACK adaptive quadrature
for the truncated-moment integrals. No levysid code is imported, so closed
forms in the package and integrals here are two genuinely separate routes.
The noise-kernel reference is scalar Python: 64-bit integers as masked
Python ints and transcendentals from ``math``. Beside it, the array forms
of Box-Muller and Chambers-Mallows-Stuck are written out of place, one
numpy operation per term in the kernel's order, so their bytes are those
the kernel must give. The expression printer at the
end walks the parser's nested-tuple trees and renders the text form the
grammar accepts.
"""

import math

import numpy as np
from scipy import integrate
from scipy.special import gamma as _gamma

_QUAD = dict(epsabs=1e-14, epsrel=1e-12, limit=400)


def k_alpha_oracle(alpha):
    if alpha == 1.0:
        return 2.0 / np.pi
    return alpha * (1 - alpha) / (_gamma(2 - alpha) * np.cos(np.pi * alpha / 2))


def kernel_oracle(xi, alpha, beta):
    side = (1 + beta) if xi > 0 else (1 - beta)
    return k_alpha_oracle(alpha) * side / (2 * abs(xi) ** (1 + alpha))


def _y_moment(y, alpha, beta, sigma, p):
    return y**p * kernel_oracle(y / sigma, alpha, beta) / sigma


def quad_R(alpha, beta, sigma, eps):
    """Adaptive quadrature of the three-branch drift correction integral."""
    if alpha < 1:
        parts = [integrate.quad(_y_moment, -eps, 0, args=(alpha, beta, sigma, 1), **_QUAD)[0],
                 integrate.quad(_y_moment, 0, eps, args=(alpha, beta, sigma, 1), **_QUAD)[0]]
        return sum(parts)
    if alpha == 1:
        # oriented integral over [-eps,-1] u [1,eps]: negative for eps < 1
        parts = [integrate.quad(_y_moment, -eps, -1, args=(alpha, beta, sigma, 1), **_QUAD)[0],
                 integrate.quad(_y_moment, 1, eps, args=(alpha, beta, sigma, 1), **_QUAD)[0]]
        return sum(parts)
    parts = [integrate.quad(_y_moment, -np.inf, -eps, args=(alpha, beta, sigma, 1), **_QUAD)[0],
             integrate.quad(_y_moment, eps, np.inf, args=(alpha, beta, sigma, 1), **_QUAD)[0]]
    return -sum(parts)


def quad_S(alpha, beta, sigma, eps):
    """Adaptive quadrature of the diagonal diffusion correction integral."""
    parts = [integrate.quad(_y_moment, -eps, 0, args=(alpha, beta, sigma, 2), **_QUAD)[0],
             integrate.quad(_y_moment, 0, eps, args=(alpha, beta, sigma, 2), **_QUAD)[0]]
    return sum(parts)


def quad_mass(alpha, beta, sigma, c1, c2):
    return integrate.quad(_y_moment, c1, c2, args=(alpha, beta, sigma, 0), **_QUAD)[0]


def ks_one_sample(x, cdf):
    """Kolmogorov-Smirnov statistic of sample x against a vectorized CDF."""
    x = np.sort(np.asarray(x))
    n = x.size
    f = cdf(x)
    up = np.arange(1, n + 1) / n - f
    dn = f - np.arange(0, n) / n
    return float(max(up.max(), dn.max()))


def ks_two_sample(x, y):
    """Two-sample KS statistic (exact, via merged ECDF evaluation)."""
    x = np.sort(np.asarray(x))
    y = np.sort(np.asarray(y))
    grid = np.concatenate([x, y])
    fx = np.searchsorted(x, grid, side="right") / x.size
    fy = np.searchsorted(y, grid, side="right") / y.size
    return float(np.abs(fx - fy).max())


_U64 = (1 << 64) - 1


def _splitmix64(z):
    z &= _U64
    z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & _U64
    z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & _U64
    return z ^ (z >> 31)


def row_key_oracle(base_key, row):
    """Key of the stream that drives simulation row ``row``."""
    return _splitmix64(base_key + _splitmix64((row + 1) * 0xD1B54A32D192ED03))


def uniform_oracle(key, j):
    """Counter j of stream ``key`` as a double in (0,1): 53 bits, grid-centred."""
    raw = _splitmix64(key + (j + 1) * 0x9E3779B97F4A7C15)
    return ((raw >> 11) + 0.5) * 2.0**-53


def cms_oracle(ua, ue, alpha, beta):
    """Chambers-Mallows-Stuck standard S_alpha(1, beta, 0) draw, one at a time."""
    phi = math.pi * (ua - 0.5)
    w = -math.log(ue)
    if alpha == 1.0:
        t = math.pi / 2 + beta * phi
        return (t * math.tan(phi)
                - beta * math.log(math.pi / 2 * w * math.cos(phi) / t)) / (math.pi / 2)
    zeta = beta * math.tan(math.pi * alpha / 2)
    b = math.atan(zeta) / alpha
    s = (1 + zeta * zeta) ** (1 / (2 * alpha))
    return (s * math.sin(alpha * (phi + b)) / math.cos(phi) ** (1 / alpha)
            * (math.cos(phi - alpha * (phi + b)) / w) ** ((1 - alpha) / alpha))


def row_noise_oracle(base_key, row, alphas, betas):
    """(uniforms, normals, stable draws) of one simulation row.

    Counters 0..2n-1 feed n Box-Muller normals, 2n..4n-1 n stable draws.
    """
    n = len(alphas)
    key = row_key_oracle(base_key, row)
    u = [uniform_oracle(key, j) for j in range(4 * n)]
    normals = [math.sqrt(-2 * math.log(u[2 * i])) * math.cos(2 * math.pi * u[2 * i + 1])
               for i in range(n)]
    stables = [cms_oracle(u[2 * n + 2 * i], u[2 * n + 2 * i + 1], alphas[i], betas[i])
               for i in range(n)]
    return u, normals, stables


def box_muller_reference(u1, u2):
    """Box-Muller normals of uniform arrays, out of place: sqrt(-2 log u1)
    cos(2 pi u2), in the kernel's order of operations."""
    return np.sqrt(-2.0 * np.log(u1)) * np.cos(2.0 * np.pi * u2)


def cms_reference(ua, ue, alpha, beta):
    """Chambers-Mallows-Stuck draws of uniform arrays, out of place, in the
    kernel's order of operations."""
    half_pi = math.pi / 2.0
    phi = np.pi * (ua - 0.5)
    w = -np.log(ue)
    if alpha == 1.0:
        t = half_pi + beta * phi
        return (t * np.tan(phi) - beta * np.log(half_pi * w * np.cos(phi) / t)) / half_pi
    ta = math.tan(half_pi * alpha)
    b0 = math.atan(beta * ta) / alpha
    s0 = (1.0 + (beta * ta) ** 2) ** (0.5 / alpha)
    ap = alpha * (phi + b0)
    return (s0 * np.sin(ap) / np.cos(phi) ** (1.0 / alpha)
            * (np.cos(phi - ap) / w) ** ((1.0 - alpha) / alpha))


# precedence levels of the expression printer; a child whose level is below
# what its position requires is parenthesized
_PREC = {"+": 1, "-": 1, "*": 2, "/": 2, "u-": 3, "^": 4, "c": 5, "v": 5, "f": 5}


def _print(node):
    kind = node[0]
    if kind == "c":
        v = node[1]
        # repr gives the shortest decimal that round-trips the float
        if v < 0 or (v == 0 and math.copysign(1.0, v) < 0):
            return "-" + repr(-v), 3
        return repr(v), 5
    if kind == "v":
        return f"x{node[1] + 1}", 5
    if kind == "f":
        inner, _ = _print(node[2])
        return f"{node[1]}({inner})", 5
    if kind == "u-":
        text, prec = _print(node[1])
        if prec < 3:
            text = f"({text})"
        return "-" + text, 3
    left, lp = _print(node[1])
    right, rp = _print(node[2])
    my = _PREC[kind]
    if kind == "^":
        if lp < 5:
            left = f"({left})"
        if rp < 3:
            right = f"({right})"
    else:
        if lp < my:
            left = f"({left})"
        # subtraction and division are left-associative: guard equal precedence
        if rp < my or (rp == my and kind in "-/"):
            right = f"({right})"
        if kind in "+-" and right.startswith("-"):
            right = f"({right})"
    return f"{left} {kind} {right}" if my == 1 else f"{left}{kind}{right}", my


def print_tree(root):
    """Canonical text of an expression tree's nested-tuple root; parsing the
    text again gives the same tree."""
    return _print(root)[0]
