"""Basis dictionaries for the drift and diffusion regressions."""

from __future__ import annotations

import re
from dataclasses import dataclass
from itertools import combinations_with_replacement

from .errors import ConfigError, DomainError, ExpressionError
from .expr import evaluate_trees, parse_expression

_SIZE_CAP = 10_000


@dataclass(frozen=True)
class BasisDictionary:
    """Ordered, named list of expression trees sharing one dimension."""

    n: int
    names: tuple
    functions: tuple

    def __post_init__(self):
        if len(self.names) != len(self.functions) or not self.functions:
            raise DomainError("names and functions must align and be nonempty")
        if len(set(self.names)) != len(self.names):
            raise DomainError("dictionary names must be unique")
        for f in self.functions:
            if f.dimension != self.n:
                raise DomainError(
                    f"function dimension {f.dimension} != dictionary dimension {self.n}")

    @property
    def K(self):
        return len(self.functions)


def polynomial_dictionary(n, degree):
    """All monomials of total degree <= degree over x1..xn.

    Ordered by total degree, then by the combination order of variable
    indices, which for n=3, degree=2 gives
    1, x1, x2, x3, x1^2, x1*x2, x1*x3, x2^2, x2*x3, x3^2.
    """
    if degree < 0:
        raise DomainError(f"degree must be >= 0, got {degree}")
    names = []
    for d in range(degree + 1):
        for combo in combinations_with_replacement(range(n), d):
            if len(names) >= _SIZE_CAP:
                raise DomainError(
                    f"polynomial dictionary exceeds the size cap {_SIZE_CAP}")
            if not combo:
                names.append("1")
                continue
            parts = []
            for var in sorted(set(combo)):
                e = combo.count(var)
                parts.append(f"x{var + 1}" if e == 1 else f"x{var + 1}^{e}")
            names.append("*".join(parts))
    funcs = tuple(parse_expression(t, n) for t in names)
    return BasisDictionary(n, tuple(names), funcs)


_EXAMPLE2_TEXT = (
    "1",
    "x1",
    "x1^2",
    "x1^3",
    "sin(x1)",
    "cos(11*x1)",
    "sin(11*x1)",
    "-10*tanh(10*x1)^2 + 10",
    "-10*tanh(10*x1 - 10)^2 + 10",
    "exp(-50*x1^2)",
    "exp(-50*(x1 - 3)^2)",
    "exp(-0.3*x1^2)",
    "exp(-0.3*(x1 - 3)^2)",
    "exp(-2*(x1 - 2)^2)",
    "exp(-50*(x1 - 4)^2)",
    "exp(-0.6*(x1 - 4)^2)",
    "exp(-0.6*(x1 - 3)^2)",
    "-2*tanh(2*x1 - 4)^2 + 2",
    "tanh(x1 - 4)^2 + 1",
)


def example2_dictionary():
    """The fixed 19-function dictionary used by the 1-D gene-regulation runs.

    A mix of monomials, trigonometric terms, tanh^2 plateaus and Gaussian
    bumps; frozen as data so reports and plots always agree on ordering.
    """
    funcs = tuple(parse_expression(t, 1) for t in _EXAMPLE2_TEXT)
    return BasisDictionary(1, _EXAMPLE2_TEXT, funcs)


def build_dictionary(spec, n):
    """Resolve 'poly:<degree>', 'example2', or an expression list."""
    if isinstance(spec, str):
        if spec == "example2":
            if n != 1:
                raise ConfigError(f"dictionary 'example2' is 1-D, dataset has n={n}")
            return example2_dictionary()
        m = re.fullmatch(r"poly:(\d+)", spec)
        if m:
            return polynomial_dictionary(n, int(m.group(1)))
        raise ConfigError(f"unknown dictionary spec {spec!r}")
    if isinstance(spec, list) and spec and all(isinstance(s, str) for s in spec):
        try:
            funcs = tuple(parse_expression(text, n) for text in spec)
        except ExpressionError as exc:
            raise ConfigError(f"dictionary expression: {exc}") from exc
        return BasisDictionary(n, tuple(spec), funcs)
    raise ConfigError("dictionary must be 'poly:<d>', 'example2', or a list "
                      "of expression strings")


def design_matrix(dictionary, points, out=None):
    """Evaluate every dictionary function at every point: entry (j,k) is
    psi_k(point_j). With ``out``, an (M, K) float64 array, the entries are
    written there and ``out`` is returned."""
    return evaluate_trees(dictionary.functions, points, dictionary.names, out)
