"""Dictionary construction and design-matrix evaluation."""

import math

import numpy as np
import pytest

from levysid import (
    BasisDictionary,
    DomainError,
    EvaluationDomainError,
    design_matrix,
    evaluate_block,
    example2_dictionary,
    parse_expression,
    polynomial_dictionary,
)


class TestPolynomialDictionary:
    def test_n3_degree2_order(self):
        d = polynomial_dictionary(3, 2)
        assert d.names == ("1", "x1", "x2", "x3", "x1^2", "x1*x2", "x1*x3",
                           "x2^2", "x2*x3", "x3^2")

    @pytest.mark.parametrize("n", [1, 2, 3, 4])
    @pytest.mark.parametrize("degree", [0, 1, 2, 3, 4])
    def test_size_is_binomial(self, n, degree):
        d = polynomial_dictionary(n, degree)
        assert d.K == math.comb(n + degree, degree)

    def test_values(self):
        d = polynomial_dictionary(2, 2)
        A = design_matrix(d, np.array([[2.0, 3.0]]))
        np.testing.assert_allclose(
            A[0], [1.0, 2.0, 3.0, 4.0, 6.0, 9.0], rtol=0, atol=0)

    def test_monomials_exact_on_integers(self):
        d = polynomial_dictionary(3, 3)
        pts = np.array([[2.0, -1.0, 3.0]])
        A = design_matrix(d, pts)
        for k, name in enumerate(d.names):
            tree = parse_expression(name, 3)
            assert A[0, k] == evaluate_block(tree, pts)[0]

    def test_bad_arguments(self):
        with pytest.raises(DomainError):
            polynomial_dictionary(0, 2)
        with pytest.raises(DomainError):
            polynomial_dictionary(2, -1)


# independent transcription of the 19 scalar dictionary entries
_EXAMPLE2_REF = [
    lambda x: 1.0,
    lambda x: x,
    lambda x: x ** 2,
    lambda x: x ** 3,
    lambda x: math.sin(x),
    lambda x: math.cos(11.0 * x),
    lambda x: math.sin(11.0 * x),
    lambda x: -10.0 * math.tanh(10.0 * x) ** 2 + 10.0,
    lambda x: -10.0 * math.tanh(10.0 * x - 10.0) ** 2 + 10.0,
    lambda x: math.exp(-50.0 * x ** 2),
    lambda x: math.exp(-50.0 * (x - 3.0) ** 2),
    lambda x: math.exp(-0.3 * x ** 2),
    lambda x: math.exp(-0.3 * (x - 3.0) ** 2),
    lambda x: math.exp(-2.0 * (x - 2.0) ** 2),
    lambda x: math.exp(-50.0 * (x - 4.0) ** 2),
    lambda x: math.exp(-0.6 * (x - 4.0) ** 2),
    lambda x: math.exp(-0.6 * (x - 3.0) ** 2),
    lambda x: -2.0 * math.tanh(2.0 * x - 4.0) ** 2 + 2.0,
    lambda x: math.tanh(x - 4.0) ** 2 + 1.0,
]


class TestExample2Dictionary:
    def test_size_and_dimension(self):
        d = example2_dictionary()
        assert d.n == 1
        assert d.K == 19

    def test_entries_match_reference(self):
        d = example2_dictionary()
        xs = np.array([[0.0], [0.7], [2.0], [3.5], [5.0]])
        A = design_matrix(d, xs)
        for k, ref in enumerate(_EXAMPLE2_REF):
            want = [ref(float(x)) for x in xs[:, 0]]
            np.testing.assert_allclose(A[:, k], want, rtol=1e-12, atol=1e-300,
                                       err_msg=d.names[k])

    def test_bump_entries_peak_where_centered(self):
        d = example2_dictionary()
        # entry exp(-50*(x1 - 3)^2) must peak at 3
        k = d.names.index("exp(-50*(x1 - 3)^2)")
        vals = design_matrix(d, np.array([[2.5], [3.0], [3.5]]))[:, k]
        assert vals[1] == 1.0 and vals[1] > vals[0] and vals[1] > vals[2]


class TestBasisDictionary:
    def test_duplicate_names_rejected(self):
        f = parse_expression("x1", 1)
        with pytest.raises(DomainError):
            BasisDictionary(1, ("a", "a"), (f, f))

    def test_dimension_mismatch_rejected(self):
        f1 = parse_expression("x1", 1)
        f2 = parse_expression("x1 + x2", 2)
        with pytest.raises(DomainError):
            BasisDictionary(1, ("a", "b"), (f1, f2))

    def test_empty_rejected(self):
        with pytest.raises(DomainError):
            BasisDictionary(1, (), ())


class TestDesignMatrix:
    def test_shape(self):
        d = polynomial_dictionary(3, 2)
        A = design_matrix(d, np.zeros((17, 3)))
        assert A.shape == (17, 10)

    def test_one_dim_points_promoted(self):
        d = example2_dictionary()
        A = design_matrix(d, np.array([1.0, 2.0]))
        assert A.shape == (2, 19)

    def test_input_not_mutated(self):
        d = polynomial_dictionary(2, 2)
        pts = np.array([[1.0, 2.0], [3.0, 4.0]])
        before = pts.copy()
        design_matrix(d, pts)
        np.testing.assert_array_equal(pts, before)

    def test_wrong_width_rejected(self):
        d = polynomial_dictionary(2, 1)
        with pytest.raises(DomainError):
            design_matrix(d, np.zeros((4, 3)))

    def test_domain_fault_names_entry(self):
        d = BasisDictionary(1, ("1", "ln(x1)"),
                            (parse_expression("1", 1), parse_expression("ln(x1)", 1)))
        with pytest.raises(EvaluationDomainError, match=r"'ln\(x1\)'"):
            design_matrix(d, np.array([[1.0], [0.0]]))

    @pytest.mark.parametrize("dictionary", [
        example2_dictionary(), polynomial_dictionary(3, 2)], ids=["example2", "poly3"])
    def test_out_matches_fresh(self, dictionary):
        rng = np.random.default_rng(3)
        pts = rng.uniform(0.0, 5.0, (50, dictionary.n))
        # NaN marks any entry the call would leave unwritten
        buf = np.full((50, dictionary.K), np.nan)
        got = design_matrix(dictionary, pts, out=buf)
        assert got is buf
        np.testing.assert_array_equal(buf, design_matrix(dictionary, pts))

    def test_out_constant_tree_fills_column(self):
        d = BasisDictionary(1, ("1", "x1"),
                            (parse_expression("1", 1), parse_expression("x1", 1)))
        buf = np.full((4, 2), np.nan)
        design_matrix(d, np.arange(4.0), out=buf)
        np.testing.assert_array_equal(buf[:, 0], np.ones(4))
        np.testing.assert_array_equal(buf[:, 1], np.arange(4.0))

    @pytest.mark.parametrize("out", [
        np.empty((5, 2)), np.empty((4, 3)), np.empty((4, 2, 1)),
        np.empty((4, 2), dtype=np.float32), [[0.0] * 2] * 4,
    ], ids=["too-many-rows", "too-many-columns", "3-d", "float32", "list"])
    def test_out_rejected(self, out):
        d = polynomial_dictionary(1, 1)  # K = 2
        with pytest.raises(DomainError):
            design_matrix(d, np.zeros((4, 1)), out=out)
