"""Arithmetic expression language for drift and diffusion entries.

Grammar (LL(1), no implicit multiplication):

    expr   := term  (('+' | '-') term)*
    term   := unary (('*' | '/') unary)*
    unary  := '-' unary | power
    power  := atom ('^' unary)?          right-associative
    atom   := NUMBER | VARIABLE | FUNC '(' expr ')' | '(' expr ')'

'^' binds tighter than unary minus, so -x1^2 parses as -(x1^2).
Variables are x1..xn for the declared dimension n. Trees are immutable
tuples wrapped in :class:`ExpressionTree`; evaluation is pure and total
except for explicit domain faults (1/0, sqrt(-1), ln(0), 0^-1, (-2)^0.5),
which raise instead of propagating NaN or infinities.

Evaluation runs over a block of points, one column per variable, under
``np.errstate(divide="raise", invalid="raise")``: the IEEE divide-by-zero and
invalid flags raise ``FloatingPointError`` at the faulty ufunc (overflow is
left to the final check), and a constant subtree's Python float division
raises ``ZeroDivisionError``. Both become :class:`EvaluationDomainError`.

A final finite check on the result rejects what no flag marks, such as an
overflow to infinity. That check alone would not do: exp(-1/0) and
tanh(1/0) are finite.
"""

from __future__ import annotations

import operator
import re
from dataclasses import dataclass

import numpy as np

from .errors import (
    DomainError,
    EvaluationDomainError,
    ExpressionSyntaxError,
    UnknownFunctionError,
    UnknownVariableError,
)

FUNCTIONS = ("sin", "cos", "tan", "tanh", "exp", "ln", "sqrt", "abs")

_TOKEN_RE = re.compile(
    r"""(?P<ws>\s+)
      | (?P<num>(?:\d+(?:\.\d*)?|\.\d+)(?:[eE][+-]?\d+)?)
      | (?P<ident>[A-Za-z_][A-Za-z_0-9]*)
      | (?P<op>[-+*/^])
      | (?P<lp>\()
      | (?P<rp>\))
    """,
    re.VERBOSE,
)

_ATOM_EXPECTED = frozenset({"number", "variable", "function", "(", "-"})


@dataclass(frozen=True)
class ExpressionTree:
    """Parsed expression: a nested-tuple AST plus its declared dimension."""

    root: tuple
    dimension: int


def _tokenize(text):
    tokens = []
    pos = 0
    while pos < len(text):
        m = _TOKEN_RE.match(text, pos)
        if m is None:
            raise ExpressionSyntaxError(
                f"unexpected character {text[pos]!r} at offset {pos}",
                pos, _ATOM_EXPECTED)
        if m.lastgroup != "ws":
            tokens.append((m.lastgroup, m.group(), pos))
        pos = m.end()
    tokens.append(("end", "", len(text)))
    return tokens


class _Parser:
    def __init__(self, text, dimension):
        self.text = text
        self.dimension = dimension
        self.tokens = _tokenize(text)
        self.pos = 0

    def peek(self):
        return self.tokens[self.pos]

    def advance(self):
        tok = self.tokens[self.pos]
        self.pos += 1
        return tok

    def fail(self, expected):
        kind, text, off = self.peek()
        shown = text if kind != "end" else "end of input"
        raise ExpressionSyntaxError(
            f"unexpected {shown!r} at offset {off}; expected one of "
            + ", ".join(sorted(expected)),
            off, expected)

    def parse(self):
        node = self.expr()
        if self.peek()[0] != "end":
            self.fail(frozenset({"+", "-", "*", "/", "^", "end of input"}))
        return node

    def expr(self):
        node = self.term()
        while self.peek()[0] == "op" and self.peek()[1] in "+-":
            op = self.advance()[1]
            node = (op, node, self.term())
        return node

    def term(self):
        node = self.unary()
        while self.peek()[0] == "op" and self.peek()[1] in "*/":
            op = self.advance()[1]
            node = (op, node, self.unary())
        return node

    def unary(self):
        if self.peek()[0] == "op" and self.peek()[1] == "-":
            self.advance()
            child = self.unary()
            if child[0] == "c":
                # fold literal negation so printing round-trips structurally
                return ("c", -child[1])
            return ("u-", child)
        return self.power()

    def power(self):
        base = self.atom()
        if self.peek()[0] == "op" and self.peek()[1] == "^":
            self.advance()
            return ("^", base, self.unary())
        return base

    def atom(self):
        kind, text, off = self.peek()
        if kind == "num":
            self.advance()
            return ("c", float(text))
        if kind == "lp":
            self.advance()
            node = self.expr()
            if self.peek()[0] != "rp":
                self.fail(frozenset({")", "+", "-", "*", "/", "^"}))
            self.advance()
            return node
        if kind == "ident":
            self.advance()
            if text in FUNCTIONS:
                if self.peek()[0] != "lp":
                    self.fail(frozenset({"("}))
                self.advance()
                node = self.expr()
                if self.peek()[0] != "rp":
                    self.fail(frozenset({")", "+", "-", "*", "/", "^"}))
                self.advance()
                return ("f", text, node)
            m = re.fullmatch(r"x([0-9]+)", text)
            if m is None:
                raise UnknownFunctionError(
                    f"unknown function or variable {text!r} at offset {off}", off)
            index = int(m.group(1))
            if not 1 <= index <= self.dimension:
                raise UnknownVariableError(
                    f"variable {text!r} out of range for dimension "
                    f"{self.dimension} at offset {off}", off)
            return ("v", index - 1)
        self.fail(_ATOM_EXPECTED)


def parse_expression(text, dimension):
    """Parse ``text`` into an :class:`ExpressionTree` over x1..x<dimension>."""
    if dimension < 1:
        raise DomainError(f"dimension must be >= 1, got {dimension}")
    return ExpressionTree(_Parser(text, int(dimension)).parse(), int(dimension))


# + - * / are Python's operators, which numpy arrays and floats both carry;
# the eight functions and ^ are numpy ufuncs
_OPS = {"+": operator.add, "-": operator.sub, "*": operator.mul,
        "/": operator.truediv, "^": np.power, **dict(zip(FUNCTIONS, (
            np.sin, np.cos, np.tan, np.tanh, np.exp, np.log, np.sqrt, np.abs)))}


def _walk(node, cols):
    kind = node[0]
    if kind == "c":
        return node[1]
    if kind == "v":
        return cols[node[1]]
    if kind == "u-":
        return -_walk(node[1], cols)
    if kind == "f":
        return _OPS[node[1]](_walk(node[2], cols))
    return _OPS[kind](_walk(node[1], cols), _walk(node[2], cols))


def evaluate_trees(trees, points, names=None, out=None):
    """Evaluate trees of one shared dimension n over an (M, n) block.

    Returns an (M, T) float array whose column k holds ``trees[k]``: a new
    one, or ``out`` filled in place when an (M, T) float64 array is given.
    The points are checked and split into columns once for all trees. A
    domain fault or non-finite output of tree k raises EvaluationDomainError,
    naming ``names[k]`` when names are given.
    """
    n = trees[0].dimension
    pts = np.asarray(points, dtype=np.float64)
    if pts.ndim == 1 and n == 1:
        pts = pts[:, np.newaxis]
    if pts.ndim != 2 or pts.shape[1] != n:
        raise DomainError(f"points must be (M, {n}), got shape {pts.shape}")
    cols = [np.ascontiguousarray(pts[:, k]) for k in range(n)]
    shape = (pts.shape[0], len(trees))
    if out is None:
        out = np.empty(shape, dtype=np.float64)
    elif not (isinstance(out, np.ndarray) and out.shape == shape
              and out.dtype == np.float64):
        raise DomainError(f"out must be a float64 array of shape {shape}")
    with np.errstate(divide="raise", invalid="raise", over="ignore"):
        for k, tree in enumerate(trees):
            try:
                try:
                    value = _walk(tree.root, cols)
                except ArithmeticError as exc:
                    raise EvaluationDomainError(str(exc)) from exc
                if not np.all(np.isfinite(value)):
                    raise EvaluationDomainError(
                        "expression evaluated to non-finite values")
            except EvaluationDomainError as exc:
                if names is None:
                    raise
                raise EvaluationDomainError(
                    f"dictionary entry {names[k]!r} failed: {exc}") from exc
            out[:, k] = value
    return out


def evaluate_block(tree, points):
    """Vectorized evaluation over an (M, n) array; returns an (M,) float array.

    Domain faults raise EvaluationDomainError; any non-finite output
    (overflow included) is rejected rather than returned.
    """
    return evaluate_trees((tree,), points)[:, 0]
