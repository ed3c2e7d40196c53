"""Expression DSL: the parser and the block evaluator, checked against an
independent reference evaluator and the printer in ``oracles``."""

import math
import random
import re

import numpy as np
import pytest

from levysid import (
    EvaluationDomainError,
    ExpressionSyntaxError,
    UnknownFunctionError,
    UnknownVariableError,
    evaluate_block,
    parse_expression,
)

from oracles import print_tree


def _at(tree, point):
    """The tree's value at one point, as a one-row block."""
    return evaluate_block(tree, np.array([point]))[0]


class TestParseAndEvaluate:
    def test_product(self):
        tree = parse_expression("x1*x2", 3)
        assert _at(tree, [2.0, 3.0, 7.0]) == 6.0

    def test_gene_drift_value(self):
        tree = parse_expression("6*x1^2/(x1^2+10) - x1 + 0.4", 1)
        assert _at(tree, [1.0]) == pytest.approx(-0.0545455, abs=5e-8)
        # exact rational value 6/11 - 3/5
        assert _at(tree, [1.0]) == pytest.approx(6.0 / 11.0 - 0.6, rel=1e-15)

    def test_constant(self):
        tree = parse_expression("3.5", 2)
        assert _at(tree, [100.0, -7.0]) == 3.5

    def test_bump_basis_entry_at_zero(self):
        tree = parse_expression("-10*tanh(10*x1)^2+10", 1)
        assert _at(tree, [0.0]) == 10.0

    def test_scientific_notation(self):
        tree = parse_expression("1.5e-3*x1 + 2E2", 1)
        assert _at(tree, [2.0]) == pytest.approx(0.003 + 200.0, rel=1e-15)

    def test_all_functions(self):
        cases = {
            "sin(x1)": math.sin(0.7),
            "cos(x1)": math.cos(0.7),
            "tan(x1)": math.tan(0.7),
            "tanh(x1)": math.tanh(0.7),
            "exp(x1)": math.exp(0.7),
            "ln(x1)": math.log(0.7),
            "sqrt(x1)": math.sqrt(0.7),
            "abs(x1)": 0.7,
        }
        for text, want in cases.items():
            assert _at(parse_expression(text, 1), [0.7]) == pytest.approx(
                want, rel=1e-15)

    def test_dimension_check(self):
        tree = parse_expression("x1 + x2", 2)
        with pytest.raises(Exception):
            _at(tree, [1.0])


class TestSyntaxErrors:
    def test_offset_five(self):
        with pytest.raises(ExpressionSyntaxError) as exc_info:
            parse_expression("x1 + * 2", 1)
        assert exc_info.value.offset == 5

    def test_expected_set_at_atom(self):
        with pytest.raises(ExpressionSyntaxError) as exc_info:
            parse_expression("x1 + * 2", 1)
        expected = exc_info.value.expected
        assert "number" in expected
        assert "variable" in expected
        assert "function" in expected
        assert "(" in expected

    def test_unbalanced_paren(self):
        with pytest.raises(ExpressionSyntaxError) as exc_info:
            parse_expression("(x1 + 2", 1)
        assert exc_info.value.offset == 7

    def test_empty_input(self):
        with pytest.raises(ExpressionSyntaxError):
            parse_expression("", 1)
        with pytest.raises(ExpressionSyntaxError):
            parse_expression("   ", 1)

    def test_trailing_garbage(self):
        with pytest.raises(ExpressionSyntaxError) as exc_info:
            parse_expression("1 + 2 )", 1)
        assert exc_info.value.offset == 6

    def test_no_implicit_multiplication(self):
        with pytest.raises(ExpressionSyntaxError):
            parse_expression("2 x1", 1)

    def test_bad_character(self):
        with pytest.raises(ExpressionSyntaxError) as exc_info:
            parse_expression("x1 $ 2", 1)
        assert exc_info.value.offset == 3

    def test_unknown_variable(self):
        with pytest.raises(UnknownVariableError):
            parse_expression("x5", 3)
        with pytest.raises(UnknownVariableError):
            parse_expression("x0", 3)

    def test_unknown_function(self):
        with pytest.raises(UnknownFunctionError):
            parse_expression("sinh(x1)", 1)

    def test_function_needs_paren(self):
        with pytest.raises(ExpressionSyntaxError):
            parse_expression("sin x1", 1)


class TestPrecedence:
    def test_power_binds_tighter_than_unary_minus(self):
        tree = parse_expression("-x1^2", 1)
        assert _at(tree, [3.0]) == -9.0

    def test_power_right_associative(self):
        tree = parse_expression("2^3^2", 1)
        assert _at(tree, [0.0]) == 512.0

    def test_subtraction_left_associative(self):
        assert _at(parse_expression("6 - 2 - 1", 1), [0.0]) == 3.0

    def test_division_left_associative(self):
        assert _at(parse_expression("12/3/2", 1), [0.0]) == 2.0

    def test_mul_before_add(self):
        assert _at(parse_expression("2*x1+1", 1), [5.0]) == 11.0
        assert _at(parse_expression("2*(x1+1)", 1), [5.0]) == 12.0

    def test_unary_minus_chains(self):
        assert _at(parse_expression("--3", 1), [0.0]) == 3.0
        assert _at(parse_expression("-(-x1)", 1), [4.0]) == 4.0


class TestEvaluationDomainErrors:
    @pytest.mark.parametrize("text,point", [
        ("1/x1", [0.0]),
        ("ln(x1)", [0.0]),
        ("ln(x1)", [-1.0]),
        ("sqrt(x1)", [-1.0]),
        ("x1^0.5", [-2.0]),
        ("x1^(-1)", [0.0]),
        # finite results of a faulty step: only a per-operation check sees them
        ("exp(-1/x1)", [0.0]),
        ("tanh(1/x1)", [0.0]),
    ])
    def test_scalar(self, text, point):
        tree = parse_expression(text, 1)
        with pytest.raises(EvaluationDomainError):
            _at(tree, point)

    @pytest.mark.parametrize("text,bad", [
        ("1/x1", 0.0),
        ("ln(x1)", -2.0),
        ("sqrt(x1)", -0.5),
        ("exp(-1/x1)", 0.0),
        ("tanh(1/x1)", 0.0),
        ("ln(x1)", 0.0),
        ("x1^0.5", -2.0),
        ("x1^(-1)", 0.0),
    ])
    def test_block(self, text, bad):
        tree = parse_expression(text, 1)
        pts = np.array([[1.0], [bad], [2.0]])
        with pytest.raises(EvaluationDomainError):
            evaluate_block(tree, pts)


ROUND_TRIP_TEXTS = [
    "x1*x2",
    "6*x1^2/(x1^2+10) - x1 + 0.4",
    "10*(-x1 + x2)",
    "4*x1 - x2 - x1*x3",
    "-8/3*x3 + x1*x2",
    "1 + x3",
    "x1/sqrt(x1^2 + 0.5)",
    "-10*tanh(10*x1)^2 + 10",
    "exp(-50*(x1 - 3)^2)",
    "tanh(x1 - 4)^2 + 1",
    "-2*tanh(2*x1 - 4)^2 + 2",
    "2^3^2",
    "-x1^2",
    "(x1^2)^3",
    "x1 - (x2 - x3)",
    "x1/(x2/x3)",
    "1.5e-3*x1 + 2E2",
]


class TestPrintRoundTrip:
    @pytest.mark.parametrize("text", ROUND_TRIP_TEXTS)
    def test_idempotent(self, text):
        first = parse_expression(text, 3)
        printed = print_tree(first.root)
        second = parse_expression(printed, 3)
        assert second == first
        assert print_tree(second.root) == printed

    @pytest.mark.parametrize("text", ROUND_TRIP_TEXTS)
    def test_printed_form_evaluates_identically(self, text):
        first = parse_expression(text, 3)
        second = parse_expression(print_tree(first.root), 3)
        for point in ([0.3, -1.2, 2.0], [1.0, 1.0, 1.0], [-0.7, 0.4, -2.2]):
            assert _at(second, point) == _at(first, point)


# ---------------------------------------------------------------------------
# independent recursive-descent reference evaluator, written against the
# grammar description only (numbers, x<k>, + - * / ^, unary minus, parens,
# eight named functions; ^ right-assoc and tighter than unary minus)

_REF_FUNCS = {
    "sin": math.sin, "cos": math.cos, "tan": math.tan, "tanh": math.tanh,
    "exp": math.exp, "ln": math.log, "sqrt": math.sqrt, "abs": abs,
}
_NUM_RE = re.compile(r"(?:\d+\.?\d*|\.\d+)(?:[eE][+-]?\d+)?")
_IDENT_RE = re.compile(r"[A-Za-z_][A-Za-z_0-9]*")


class _RefEvaluator:
    def __init__(self, text, point):
        self.text = text
        self.pos = 0
        self.point = point

    def _ws(self):
        while self.pos < len(self.text) and self.text[self.pos].isspace():
            self.pos += 1

    def _peek(self):
        self._ws()
        # "\0" sentinel: "" would be a substring of every membership string
        return self.text[self.pos] if self.pos < len(self.text) else "\0"

    def run(self):
        value = self.expr()
        self._ws()
        if self.pos != len(self.text):
            raise SyntaxError(f"trailing input at {self.pos}")
        return value

    def expr(self):
        value = self.term()
        while self._peek() in "+-":
            op = self.text[self.pos]
            self.pos += 1
            rhs = self.term()
            value = value + rhs if op == "+" else value - rhs
        return value

    def term(self):
        value = self.unary()
        while self._peek() in "*/":
            op = self.text[self.pos]
            self.pos += 1
            rhs = self.unary()
            value = value * rhs if op == "*" else value / rhs
        return value

    def unary(self):
        if self._peek() == "-":
            self.pos += 1
            return -self.unary()
        return self.power()

    def power(self):
        base = self.atom()
        if self._peek() == "^":
            self.pos += 1
            exponent = self.unary()
            # ** raises Python's domain faults; np.power gives the value,
            # since the two can differ in the last bit
            base ** exponent
            return float(np.power(base, exponent))
        return base

    def atom(self):
        ch = self._peek()
        if ch == "(":
            self.pos += 1
            value = self.expr()
            if self._peek() != ")":
                raise SyntaxError("expected )")
            self.pos += 1
            return value
        m = _NUM_RE.match(self.text, self.pos)
        if m:
            self.pos = m.end()
            return float(m.group())
        m = _IDENT_RE.match(self.text, self.pos)
        if m:
            name = m.group()
            self.pos = m.end()
            if name in _REF_FUNCS:
                if self._peek() != "(":
                    raise SyntaxError("expected (")
                self.pos += 1
                value = self.expr()
                if self._peek() != ")":
                    raise SyntaxError("expected )")
                self.pos += 1
                return _REF_FUNCS[name](value)
            if name.startswith("x") and name[1:].isdigit():
                return self.point[int(name[1:]) - 1]
            raise SyntaxError(f"unknown name {name}")
        raise SyntaxError(f"unexpected input at {self.pos}")


def _reference_eval(text, point):
    value = _RefEvaluator(text, point).run()
    if not math.isfinite(value):
        raise OverflowError("non-finite result")
    return value


def _random_tree(rng, n, depth):
    if depth == 0 or rng.random() < 0.3:
        if rng.random() < 0.45:
            return ("c", round(rng.uniform(-5.0, 5.0), 3))
        return ("v", rng.randrange(n))
    kind = rng.choice(("+", "-", "*", "/", "^", "u-", "f", "f"))
    if kind == "u-":
        return ("u-", _random_tree(rng, n, depth - 1))
    if kind == "f":
        name = rng.choice(("sin", "cos", "tan", "tanh", "exp", "ln", "sqrt", "abs"))
        return ("f", name, _random_tree(rng, n, depth - 1))
    if kind == "^":
        # integer exponents keep most draws inside the real domain
        return ("^", _random_tree(rng, n, depth - 1), ("c", float(rng.randrange(4))))
    return (kind, _random_tree(rng, n, depth - 1), _random_tree(rng, n, depth - 1))


class TestReferenceAgreement:
    def test_ten_thousand_pairs(self):
        rng = random.Random(20240811)
        n = 3
        accepted = 0
        attempts = 0
        while accepted < 10_000:
            attempts += 1
            assert attempts < 200_000, "tree generator rejects too much"
            root = _random_tree(rng, n, rng.randrange(1, 6))
            text = print_tree(root)
            point = [rng.uniform(-3.0, 3.0) for _ in range(n)]

            ref_failed = lib_failed = False
            ref_value = lib_value = None
            try:
                ref_value = _reference_eval(text, point)
            except (ValueError, ZeroDivisionError, OverflowError, SyntaxError):
                ref_failed = True
            try:
                lib_value = _at(parse_expression(text, n), point)
            except EvaluationDomainError:
                lib_failed = True

            assert ref_failed == lib_failed, (
                f"domain disagreement on {text!r} at {point}")
            if ref_failed:
                continue
            tol = 1e-14 * max(1.0, abs(ref_value), abs(lib_value))
            assert abs(ref_value - lib_value) <= tol, (
                f"value disagreement on {text!r} at {point}: "
                f"{ref_value} vs {lib_value}")
            accepted += 1


class TestEvaluateBlock:
    def test_matches_scalar(self):
        # each row of a block has the value the row has alone
        rng = random.Random(7)
        checked = 0
        while checked < 300:
            text = print_tree(_random_tree(rng, 2, rng.randrange(1, 5)))
            parsed = parse_expression(text, 2)
            pts = np.array([[rng.uniform(-2.0, 2.0) for _ in range(2)]
                            for _ in range(8)])
            try:
                scalars = [_at(parsed, row) for row in pts]
            except EvaluationDomainError:
                continue
            block = evaluate_block(parsed, pts)
            assert block.shape == (8,)
            np.testing.assert_allclose(block, scalars, rtol=1e-12, atol=1e-300)
            checked += 1

    def test_constant_broadcast(self):
        tree = parse_expression("3.5", 2)
        out = evaluate_block(tree, np.zeros((11, 2)))
        assert out.shape == (11,)
        assert np.all(out == 3.5)

    def test_one_dim_points_promoted(self):
        tree = parse_expression("x1^2", 1)
        out = evaluate_block(tree, np.array([1.0, 2.0, 3.0]))
        np.testing.assert_allclose(out, [1.0, 4.0, 9.0], rtol=0, atol=0)

    def test_dimension_mismatch(self):
        tree = parse_expression("x1 + x2", 2)
        with pytest.raises(Exception):
            evaluate_block(tree, np.zeros((4, 3)))
