import math
import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cuboidsearch.exact_arith import (
    QUAD_ZERO,
    QuadRational,
    quad_sign,
    quad_sqrt,
    sqrt2_sign,
    value_at_sqrt2,
)
from cuboidsearch.cuboid_eqs import PQPair
from oracles import (
    FractionQuad,
    build_qpq,
    eval_poly,
    eval_poly_quad,
    fraction_quad_sign,
    fraction_quad_sqrt,
    fraction_sturm_count,
    fraction_sturm_sequence,
    is_even,
    poly,
    quad,
    quad_parts,
    rational_sqrt,
    sign_at_quad,
    sqrt2_approx,
    to_fraction,
)


def naive_eval(P: tuple, x: Fraction) -> Fraction:
    return sum(Fraction(c) * x**i for i, c in enumerate(P))


class TestQuadSign:
    def test_zero(self):
        assert quad_sign(quad(0, 0)) == 0

    def test_sqrt2_minus_one(self):
        assert quad_sign(quad(-1, 1)) == 1

    def test_three_minus_two_sqrt2(self):
        # 3^2 = 9 beats 2 * 2^2 = 8
        assert quad_sign(quad(3, -2)) == 1

    def test_two_sqrt2_minus_three(self):
        assert quad_sign(quad(-3, 2)) == -1

    def test_same_sign_quadrants(self):
        assert quad_sign(quad(1, 1)) == 1
        assert quad_sign(quad(-1, -1)) == -1

    def test_against_decimal_oracle(self):
        # 50-digit rational approximation of sqrt(2) as an independent check
        rng = random.Random(20260826)
        approx = sqrt2_approx(50)
        for _ in range(1000):
            a = Fraction(rng.randint(-10**6, 10**6), rng.randint(1, 10**3))
            b = Fraction(rng.randint(-10**6, 10**6), rng.randint(1, 10**3))
            x = quad(a, b)
            est = a + b * approx
            if est == 0:
                continue
            assert quad_sign(x) == (1 if est > 0 else -1)


class TestQuadArithmetic:
    def test_square_closure(self):
        x = quad(1, 1)
        assert x * x == quad(3, 2)

    def test_sqrt_of_three_minus_two_sqrt2(self):
        root = quad_sqrt(quad(3, -2))
        assert root == quad(-1, 1)

    def test_sqrt_of_rational_square(self):
        assert quad_sqrt(quad(Fraction(9, 4), 0)) == quad(
            Fraction(3, 2), 0
        )

    def test_sqrt_of_two(self):
        assert quad_sqrt(quad(2, 0)) == quad(0, 1)

    def test_sqrt_outside_field(self):
        assert quad_sqrt(quad(3, 0)) is None

    def test_sqrt_of_zero_and_of_negatives(self):
        assert quad_sqrt(QUAD_ZERO) == QUAD_ZERO
        for negative in (QuadRational(-1), QuadRational(1, -1), QuadRational(-9, 0, 4)):
            with pytest.raises(ValueError, match="negative"):
                quad_sqrt(negative)

    def test_ordering(self):
        assert quad(0, 1) > quad(Fraction(7, 5), 0)
        assert quad(0, 1) < quad(Fraction(3, 2), 0)
        # each operator on a case where the field order and the tuple order
        # of the (a, b) fields disagree: 1 - sqrt(2) < 0 but (1, -1) > (0, 0)
        small, zero = quad(1, -1), quad(0)
        assert small < zero and small <= zero
        assert zero > small and zero >= small
        assert not (small > zero or small >= zero)
        assert not (zero < small or zero <= small)
        assert tuple(small) > tuple(zero)

    def test_order_of_a_value_with_itself(self):
        # one cross-multiplied sign per operator: zero for the same value
        for x in (QUAD_ZERO, quad(1, -1), QuadRational(-7, 3, 5), QuadRational(4, 0, 9)):
            assert not x < x and x <= x and not x > x and x >= x

    def test_order_of_unreduced_triples(self):
        # _make skips the reduction, so one value may come as two triples;
        # the order compares values, not triples
        for x, y in (
            (QuadRational(1, -2, 3), QuadRational._make((5, -10, 15))),
            (QuadRational(7), QuadRational._make((14, 0, 2))),
            (QUAD_ZERO, QuadRational._make((0, 0, 9))),
        ):
            assert tuple(x) != tuple(y)
            for a, b in ((x, y), (y, x), (y, y)):
                assert not a < b and a <= b and not a > b and a >= b
        below = QuadRational._make((-2, 2, 2))  # -1 + sqrt(2) < 1/2
        assert below < QuadRational(1, 0, 2) and not below >= QuadRational(1, 0, 2)

    @pytest.mark.parametrize("expression", [
        lambda x: x + 1,
        lambda x: x - 1,
        lambda x: x + (1, 0, 1),
        lambda x: x - (1, 0, 1),
        lambda x: (1, 0, 1) + x,
        lambda x: x < (2, 0, -1),
        lambda x: (2, 0, -1) > x,
        lambda x: x >= (2, 0, -1),
        lambda x: (2, 0, -1) <= x,
        lambda x: x <= 2,
        lambda x: 2 > x,
    ], ids=[
        "add-int", "sub-int", "add-tuple", "sub-tuple", "add-tuple-left",
        "lt-tuple", "gt-tuple-left", "ge-tuple", "le-tuple-left", "le-int",
        "gt-int-left",
    ])
    def test_operand_outside_the_field_refused(self, expression):
        # the arithmetic and the order take only field elements: an int is
        # not converted, and a plain tuple is neither concatenated, on
        # either side, nor read as a triple (as one, (2, 0, -1) is -2, yet
        # as a tuple it lies above 1 + sqrt(2))
        with pytest.raises(TypeError):
            expression(quad(1, 1))

    def test_rational_sqrt(self):
        assert rational_sqrt(Fraction(4, 9)) == Fraction(2, 3)
        assert rational_sqrt(Fraction(2)) is None


rationals = st.fractions(min_value=-10**6, max_value=10**6, max_denominator=10**4)
# 1 - sqrt(2) < 0 although its (a, b) = (1, -1) is above (0, 0) as a tuple
quads = st.tuples(rationals, rationals) | st.sampled_from(
    [(0, 0), (1, -1), (-1, 1), (3, -2), (-3, 2), (Fraction(1, 3), 0), (0, Fraction(-5, 7))]
)


def as_reference(x: QuadRational) -> FractionQuad:
    return FractionQuad(*quad_parts(x))


# elements (A + B*sqrt(2))/D with D > 1, whose squares are the inputs that
# quad_sqrt must find a root of; random (a, b) pairs are rarely squares
integer_quads = st.builds(
    QuadRational, st.integers(-10**6, 10**6), st.integers(-10**6, 10**6),
    st.integers(2, 10**4),
).filter(lambda r: r.D > 1)


class TestQuadRationalAgainstFractionPair:
    """The integer triple (A, B, D) against the Fraction pair it replaced."""

    @settings(max_examples=300)
    @given(quads, quads, rationals)
    def test_operations_match(self, xy, uv, f):
        x, y = quad(*xy), quad(*uv)
        rx, ry = FractionQuad.of(*xy), FractionQuad.of(*uv)
        assert as_reference(x) == rx
        assert as_reference(x + y) == rx + ry
        assert as_reference(x - y) == rx - ry
        assert as_reference(-x) == -rx
        assert as_reference(x * y) == rx * ry
        assert as_reference(x * quad(f)) == rx * f
        assert as_reference(quad(f) * x) == f * rx
        assert as_reference(x * 3) == rx * 3
        assert as_reference(3 * x) == 3 * rx
        assert (x < y, x <= y, x > y, x >= y) == (rx < ry, rx <= ry, rx > ry, rx >= ry)
        assert quad_sign(x) == fraction_quad_sign(rx)
        assert str(x) == str(rx)
        if x.B:
            with pytest.raises(ValueError):
                to_fraction(x)
        else:
            assert to_fraction(x) == rx.to_fraction()
        with pytest.raises(TypeError):
            x * f

    @settings(max_examples=300)
    @given(integer_quads, quads)
    def test_sqrt_matches(self, r, xy):
        # r^2 and 2 r^2 are squares in the field, with the roots |r| and
        # |r| sqrt(2); 3 r^2 is not, as 3 is no square in the field; x is
        # a random element, rarely a square
        x = quad(*xy)
        positive = r if quad_sign(r) > 0 else -r
        assert quad_sqrt(r * r) == positive
        assert quad_sqrt(r * r * 2) == positive * QuadRational(0, 1)
        assert quad_sqrt(r * r * 3) is None
        for value in (r * r, r * r * 2, r * r * 3, x):
            if quad_sign(value) < 0:
                continue
            root = quad_sqrt(value)
            ref_root = fraction_quad_sqrt(as_reference(value))
            assert (root is None) is (ref_root is None)
            if root is not None:
                assert as_reference(root) == ref_root

    def test_one_minus_sqrt2_below_zero(self):
        small, zero = quad(1, -1), quad(0)
        assert quad_sign(small) == fraction_quad_sign(FractionQuad.of(1, -1)) == -1
        assert small < zero and zero > small
        assert str(small) == str(FractionQuad.of(1, -1)) == "1 - 1*sqrt(2)"

    @given(st.integers(-10**9, 10**9), st.integers(-10**9, 10**9),
           st.integers(1, 10**9), st.integers(1, 10**4))
    def test_normalised(self, A, B, D, k):
        x = QuadRational(A, B, D)
        assert x.D > 0 and math.gcd(*x) == 1
        # equal values give equal triples, whatever the scale or sign
        assert QuadRational(k * A, k * B, k * D) == x
        assert QuadRational(-k * A, -k * B, -k * D) == x
        assert quad(*quad_parts(x)) == x
        assert x - x == QuadRational(0, 0, 1) == (0, 0, 1)

    def test_zero(self):
        assert QuadRational(0, 0, 7) == quad(0) == QUAD_ZERO == (0, 0, 1)
        assert QuadRational(0, 0, -7) == (0, 0, 1)
        with pytest.raises(ZeroDivisionError):
            QuadRational(1, 1, 0)


class TestEvalPoly:
    def test_root(self):
        assert eval_poly(poly([-1, 0, 1]), 1) == 0

    def test_q12_at_one(self):
        assert eval_poly(build_qpq(PQPair(1, 2)), 1) == 4032

    def test_constant_at_zero(self):
        P = poly([7, -3, 5])
        assert eval_poly(P, 0) == 7

    @settings(max_examples=200)
    @given(
        st.lists(st.integers(-10**6, 10**6), min_size=1, max_size=13),
        st.fractions(
            min_value=-100, max_value=100, max_denominator=997
        ),
    )
    def test_horner_matches_naive(self, coeffs, x):
        P = poly(coeffs)
        assert eval_poly(P, x) == naive_eval(P, x)


class TestEvalPolyQuad:
    def test_sqrt2_root(self):
        P = poly([-2, 0, 1])
        assert eval_poly_quad(P, quad(0, 1)) == quad(0, 0)

    def test_identity(self):
        x = quad(3, -2)
        assert eval_poly_quad(poly([0, 1]), x) == x

    def test_square_expansion(self):
        assert eval_poly_quad(
            poly([0, 0, 1]), quad(1, 1)
        ) == quad(3, 2)


class TestSturm:
    """The Fraction Sturm count that the certificate tests check against."""

    def test_single_root(self):
        assert fraction_sturm_count(poly([-2, 0, 1]), 0, 2) == 1

    def test_no_real_roots(self):
        assert fraction_sturm_count(poly([1, 0, 1]), -10, 10) == 0

    def test_q159_three_positive_roots(self):
        # independently confirmed by the numpy root finder below
        assert fraction_sturm_count(build_qpq(PQPair(1, 59)), 0, 10**6) == 3

    def test_q159_numpy_oracle(self):
        numpy = pytest.importorskip("numpy")
        coeffs = list(reversed(build_qpq(PQPair(1, 59))))
        roots = numpy.roots([float(c) for c in coeffs])
        real = [r.real for r in roots if abs(r.imag) < 1e-6]
        assert sum(1 for r in real if 0 < r < 10**6) == 3

    def test_endpoint_is_root_refused(self):
        with pytest.raises(ValueError):
            fraction_sturm_count(poly([-1, 0, 1]), 1, 2)

    def test_rational_endpoint_root_refused_with_shared_sequence(self):
        # (3t - 2)(7t + 5), one sequence for both counts
        P = poly([-10, 1, 21])
        seq = fraction_sturm_sequence(P)
        assert fraction_sturm_count(P, -1, 1, seq) == 2
        with pytest.raises(ValueError):
            fraction_sturm_count(P, Fraction(2, 3), 1, seq)
        with pytest.raises(ValueError):
            fraction_sturm_count(P, -1, Fraction(-5, 7), seq)

    def test_even_polynomial_rational_root_refused_with_shared_sequence(self):
        # (4t^2 - 9)(t^2 + 1): the root 3/2 is planted in an even polynomial
        P = poly([-9, 0, -5, 0, 4])
        seq = fraction_sturm_sequence(P)
        assert fraction_sturm_count(P, 0, 2, seq) == 1
        assert fraction_sturm_count(P, -2, 2, seq) == 2
        for lo, hi in ((Fraction(3, 2), 2), (-2, Fraction(-3, 2)), (0, Fraction(3, 2))):
            with pytest.raises(ValueError, match="3/2"):
                fraction_sturm_count(P, lo, hi, seq)
        # the same root as u = 9/4 of R(u) = (4u - 9)(u + 1), with Q(t) = R(t^2)
        R = poly([-9, -5, 4])
        with pytest.raises(ValueError, match="9/4"):
            fraction_sturm_count(R, Fraction(9, 4), 4)

    def test_shared_sequence_gives_same_counts(self):
        P = build_qpq(PQPair(3, 178))
        seq = fraction_sturm_sequence(P)
        for lo, hi in ((0, 10**7), (-(10**7), 10**7), (Fraction(1, 3), 9)):
            assert fraction_sturm_count(P, lo, hi, seq) == fraction_sturm_count(P, lo, hi)

    def test_additivity(self):
        rng = random.Random(7)
        for _ in range(20):
            P = poly([rng.randint(-50, 50) for _ in range(11)])
            if len(P) < 2:  # zero or constant
                continue
            pts = [Fraction(-17, 3), Fraction(1, 7), Fraction(23, 2)]
            try:
                parts = fraction_sturm_count(P, pts[0], pts[1]) + fraction_sturm_count(
                    P, pts[1], pts[2]
                )
                whole = fraction_sturm_count(P, pts[0], pts[2])
            except ValueError:
                continue
            assert parts == whole

    def test_multiple_roots_counted_once(self):
        # (t - 1)^2 (t + 2)
        P = poly([2, -3, 0, 1])
        assert fraction_sturm_count(P, 0, 5) == 1
        assert fraction_sturm_count(P, -5, 5) == 2

    def test_non_squarefree_ends_in_gcd(self):
        # the last term is the gcd of P and P', up to a positive scale
        seq = fraction_sturm_sequence(poly([2, -3, 0, 1]))
        assert seq[-1] == poly([-1, 1])


def _sign(x) -> int:
    return (x > 0) - (x < 0)


def _sign_at_sqrt2(P, A, B, D) -> int:
    """The production sign of P at (A + B*sqrt(2))/D."""
    return sqrt2_sign(*value_at_sqrt2(P, A, B, D))


def _rational_sign(P, x) -> int:
    """The production sign of P at a rational x: the pass with B = 0."""
    return _sign_at_sqrt2(P, x.numerator, 0, x.denominator)


# zeros are drawn often, so that sparse polynomials are common
int_polys = st.lists(
    st.one_of(st.just(0), st.integers(-1000, 1000)), min_size=1, max_size=12
).map(poly).filter(bool)


class TestSignAt:
    @settings(max_examples=200)
    @given(
        int_polys,
        st.fractions(min_value=-1000, max_value=1000, max_denominator=10**6),
    )
    def test_rational_matches_eval(self, P, x):
        assert _rational_sign(P, x) == _sign(eval_poly(P, x))

    def test_rational_roots_are_zero(self):
        # (3t - 2)(7t + 5)
        P = poly([-10, 1, 21])
        assert _rational_sign(P, Fraction(2, 3)) == 0
        assert _rational_sign(P, Fraction(-5, 7)) == 0
        assert _rational_sign(P, 0) == -1

    def test_integer_argument(self):
        assert _rational_sign(poly([-1, 0, 1]), 3) == 1
        assert _rational_sign(poly([5]), -4) == 1
        assert _rational_sign(poly([]), 2) == 0

    def test_zero_polynomial_and_constants(self):
        # on both passes: B = 0 and B != 0
        for A, B, D in ((0, 0, 1), (3, 0, 7), (-3, 0, 7), (1, 1, 1), (-5, 2, 3)):
            assert value_at_sqrt2((), A, B, D) == (0, 0)
            for c in (-9, 1, 4):
                assert _sign_at_sqrt2((c,), A, B, D) == _sign(c)

    @settings(max_examples=200)
    @given(
        int_polys,
        st.integers(-10**15, 10**15),
        st.integers(1, 10**13),
        st.integers(1, 50),
    )
    def test_rational_pass_matches_fraction_oracle(self, P, A, D, k):
        # the single-integer pass at B = 0, at sizes like those of the roots
        # certificate at p = 10^12 (D^10 near 10^130), unreduced (kA, kD) too
        expected = _sign(eval_poly(P, Fraction(A, D)))
        assert _sign_at_sqrt2(P, A, 0, D) == expected
        assert _sign_at_sqrt2(P, k * A, 0, k * D) == expected

    @settings(max_examples=200)
    @given(
        int_polys,
        st.fractions(min_value=-1000, max_value=1000, max_denominator=10**6),
        st.fractions(min_value=-1000, max_value=1000, max_denominator=10**6),
    )
    def test_quad_matches_eval(self, P, a, b):
        x = quad(a, b)
        assert sign_at_quad(P, x) == quad_sign(eval_poly_quad(P, x))

    @settings(max_examples=200)
    @given(
        int_polys,
        st.integers(-10**15, 10**15),
        st.integers(-10**15, 10**15),
        st.integers(1, 10**13),
    )
    def test_conjugate_point_gives_conjugate_value(self, P, A, B, D):
        # integer coefficients: P(conj x) = conj P(x), so one pass gives the
        # sign at both points, the one that certify_roots reuses
        u, v = value_at_sqrt2(P, A, B, D)
        assert value_at_sqrt2(P, A, -B, D) == (u, -v)
        x, y = QuadRational(A, B, D), QuadRational(A, -B, D)
        assert sqrt2_sign(u, v) == quad_sign(eval_poly_quad(P, x))
        assert sqrt2_sign(u, -v) == quad_sign(eval_poly_quad(P, y))

    def test_quad_roots_are_zero(self):
        assert sign_at_quad(poly([-2, 0, 1]), quad(0, 1)) == 0
        # t^2 - 2t - 1 has the root 1 + sqrt(2)
        P = poly([-1, -2, 1])
        assert sign_at_quad(P, quad(1, 1)) == 0
        assert sign_at_quad(P, quad(1, -1)) == 0
        assert sign_at_quad(P, quad(Fraction(5, 2), 0)) == 1

    def test_quad_on_cuboid_intervals(self):
        from cuboidsearch.asymptotics import asymptotic_intervals
        from oracles import imaginary_axis_poly

        pair = PQPair(7, 500)
        ipoly = imaginary_axis_poly(build_qpq(pair))
        for iv in asymptotic_intervals(pair)[3:]:
            for end in (iv.lo, iv.hi):
                assert sign_at_quad(ipoly, end) == quad_sign(eval_poly_quad(ipoly, end))


class TestQpqEvenness:
    def test_even_values(self):
        P = build_qpq(PQPair(3, 5))
        for x in (Fraction(1), Fraction(7, 3), Fraction(-22, 7)):
            assert eval_poly(P, x) == eval_poly(P, -x)

    def test_odd_coefficients_zero(self):
        assert is_even(build_qpq(PQPair(4, 9)))
