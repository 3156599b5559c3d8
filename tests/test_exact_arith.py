import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cuboidsearch.exact_arith import (
    EndpointIsRoot,
    IntPoly,
    QuadRational,
    eval_poly,
    eval_poly_quad,
    quad_sign,
    quad_sqrt,
    rational_sqrt,
    sqrt2_approx,
    sturm_count,
)
from cuboidsearch.cuboid_eqs import PQPair, build_qpq


def naive_eval(P: IntPoly, x: Fraction) -> Fraction:
    return sum(Fraction(c) * x**i for i, c in enumerate(P.coeffs))


class TestQuadSign:
    def test_zero(self):
        assert quad_sign(QuadRational.of(0, 0)) == 0

    def test_sqrt2_minus_one(self):
        assert quad_sign(QuadRational.of(-1, 1)) == 1

    def test_three_minus_two_sqrt2(self):
        # 3^2 = 9 beats 2 * 2^2 = 8
        assert quad_sign(QuadRational.of(3, -2)) == 1

    def test_two_sqrt2_minus_three(self):
        assert quad_sign(QuadRational.of(-3, 2)) == -1

    def test_same_sign_quadrants(self):
        assert quad_sign(QuadRational.of(1, 1)) == 1
        assert quad_sign(QuadRational.of(-1, -1)) == -1

    def test_against_decimal_oracle(self):
        # 50-digit rational approximation of sqrt(2) as an independent check
        rng = random.Random(20260826)
        approx = sqrt2_approx(50)
        for _ in range(1000):
            a = Fraction(rng.randint(-10**6, 10**6), rng.randint(1, 10**3))
            b = Fraction(rng.randint(-10**6, 10**6), rng.randint(1, 10**3))
            x = QuadRational(a, b)
            est = a + b * approx
            if est == 0:
                continue
            assert quad_sign(x) == (1 if est > 0 else -1)


class TestQuadArithmetic:
    def test_square_closure(self):
        x = QuadRational.of(1, 1)
        assert x * x == QuadRational.of(3, 2)

    def test_sqrt_of_three_minus_two_sqrt2(self):
        root = quad_sqrt(QuadRational.of(3, -2))
        assert root == QuadRational.of(-1, 1)

    def test_sqrt_of_rational_square(self):
        assert quad_sqrt(QuadRational.of(Fraction(9, 4), 0)) == QuadRational.of(
            Fraction(3, 2), 0
        )

    def test_sqrt_of_two(self):
        assert quad_sqrt(QuadRational.of(2, 0)) == QuadRational.of(0, 1)

    def test_sqrt_outside_field(self):
        assert quad_sqrt(QuadRational.of(3, 0)) is None

    def test_ordering(self):
        assert QuadRational.of(0, 1) > QuadRational.of(Fraction(7, 5), 0)
        assert QuadRational.of(0, 1) < QuadRational.of(Fraction(3, 2), 0)

    def test_rational_sqrt(self):
        assert rational_sqrt(Fraction(4, 9)) == Fraction(2, 3)
        assert rational_sqrt(Fraction(2)) is None


class TestEvalPoly:
    def test_root(self):
        assert eval_poly(IntPoly.of([-1, 0, 1]), 1) == 0

    def test_q12_at_one(self):
        assert eval_poly(build_qpq(PQPair(1, 2)), 1) == 4032

    def test_constant_at_zero(self):
        P = IntPoly.of([7, -3, 5])
        assert eval_poly(P, 0) == 7

    @settings(max_examples=200)
    @given(
        st.lists(st.integers(-10**6, 10**6), min_size=1, max_size=13),
        st.fractions(
            min_value=-100, max_value=100, max_denominator=997
        ),
    )
    def test_horner_matches_naive(self, coeffs, x):
        P = IntPoly.of(coeffs)
        assert eval_poly(P, x) == naive_eval(P, x)


class TestEvalPolyQuad:
    def test_sqrt2_root(self):
        P = IntPoly.of([-2, 0, 1])
        assert eval_poly_quad(P, QuadRational.of(0, 1)) == QuadRational.of(0, 0)

    def test_identity(self):
        x = QuadRational.of(3, -2)
        assert eval_poly_quad(IntPoly.of([0, 1]), x) == x

    def test_square_expansion(self):
        assert eval_poly_quad(
            IntPoly.of([0, 0, 1]), QuadRational.of(1, 1)
        ) == QuadRational.of(3, 2)


class TestSturm:
    def test_single_root(self):
        assert sturm_count(IntPoly.of([-2, 0, 1]), 0, 2) == 1

    def test_no_real_roots(self):
        assert sturm_count(IntPoly.of([1, 0, 1]), -10, 10) == 0

    def test_q159_three_positive_roots(self):
        # independently confirmed by the numpy root finder below
        assert sturm_count(build_qpq(PQPair(1, 59)), 0, 10**6) == 3

    def test_q159_numpy_oracle(self):
        numpy = pytest.importorskip("numpy")
        coeffs = list(reversed(build_qpq(PQPair(1, 59)).coeffs))
        roots = numpy.roots([float(c) for c in coeffs])
        real = [r.real for r in roots if abs(r.imag) < 1e-6]
        assert sum(1 for r in real if 0 < r < 10**6) == 3

    def test_endpoint_is_root_refused(self):
        with pytest.raises(EndpointIsRoot):
            sturm_count(IntPoly.of([-1, 0, 1]), 1, 2)

    def test_additivity(self):
        rng = random.Random(7)
        for _ in range(20):
            P = IntPoly.of([rng.randint(-50, 50) for _ in range(11)])
            if P.is_zero() or P.degree == 0:
                continue
            pts = [Fraction(-17, 3), Fraction(1, 7), Fraction(23, 2)]
            try:
                parts = sturm_count(P, pts[0], pts[1]) + sturm_count(P, pts[1], pts[2])
                whole = sturm_count(P, pts[0], pts[2])
            except EndpointIsRoot:
                continue
            assert parts == whole

    def test_multiple_roots_counted_once(self):
        # (t - 1)^2 (t + 2)
        P = IntPoly.of([2, -3, 0, 1])
        assert sturm_count(P, 0, 5) == 1
        assert sturm_count(P, -5, 5) == 2


class TestQpqEvenness:
    def test_even_values(self):
        P = build_qpq(PQPair(3, 5))
        for x in (Fraction(1), Fraction(7, 3), Fraction(-22, 7)):
            assert eval_poly(P, x) == eval_poly(P, -x)

    def test_odd_coefficients_zero(self):
        assert build_qpq(PQPair(4, 9)).is_even()
