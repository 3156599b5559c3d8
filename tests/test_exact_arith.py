import math
import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cuboidsearch.exact_arith import (
    EndpointIsRoot,
    QUAD_ZERO,
    QuadRational,
    quad_sign,
    quad_sqrt,
    rational_sqrt,
    sqrt2_approx,
    sturm_count,
    sturm_sequence,
)
from cuboidsearch.cuboid_eqs import PQPair
from oracles import (
    FractionQuad,
    build_qpq,
    eval_poly,
    eval_poly_quad,
    fraction_quad_sign,
    fraction_quad_sqrt,
    fraction_sturm_sequence,
    is_even,
    poly,
    sign_at,
    sign_at_quad,
)


def naive_eval(P: tuple, x: Fraction) -> Fraction:
    return sum(Fraction(c) * x**i for i, c in enumerate(P))


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
            x = QuadRational.of(a, b)
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
        # each operator on a case where the field order and the tuple order
        # of the (a, b) fields disagree: 1 - sqrt(2) < 0 but (1, -1) > (0, 0)
        small, zero = QuadRational.of(1, -1), QuadRational.of(0)
        assert small < zero and small <= zero
        assert zero > small and zero >= small
        assert not (small > zero or small >= zero)
        assert not (zero < small or zero <= small)
        assert tuple(small) > tuple(zero)

    def test_rational_sqrt(self):
        assert rational_sqrt(Fraction(4, 9)) == Fraction(2, 3)
        assert rational_sqrt(Fraction(2)) is None


rationals = st.fractions(min_value=-10**6, max_value=10**6, max_denominator=10**4)
# 1 - sqrt(2) < 0 although its (a, b) = (1, -1) is above (0, 0) as a tuple
quads = st.tuples(rationals, rationals) | st.sampled_from(
    [(0, 0), (1, -1), (-1, 1), (3, -2), (-3, 2), (Fraction(1, 3), 0), (0, Fraction(-5, 7))]
)


def as_reference(x: QuadRational) -> FractionQuad:
    return FractionQuad(x.a, x.b)


class TestQuadRationalAgainstFractionPair:
    """The integer triple (A, B, D) against the Fraction pair it replaced."""

    @settings(max_examples=300)
    @given(quads, quads, rationals)
    def test_operations_match(self, xy, uv, f):
        x, y = QuadRational.of(*xy), QuadRational.of(*uv)
        rx, ry = FractionQuad.of(*xy), FractionQuad.of(*uv)
        assert as_reference(x) == rx
        assert as_reference(x + y) == rx + ry
        assert as_reference(x - y) == rx - ry
        assert as_reference(-x) == -rx
        assert as_reference(x * y) == rx * ry
        assert as_reference(x * f) == rx * f
        assert as_reference(f * x) == f * rx
        assert as_reference(x * 3) == rx * 3
        assert (x < y, x <= y, x > y, x >= y) == (rx < ry, rx <= ry, rx > ry, rx >= ry)
        assert quad_sign(x) == fraction_quad_sign(rx)
        assert str(x) == str(rx)
        if x.B:
            with pytest.raises(ValueError):
                x.to_fraction()
        else:
            assert x.to_fraction() == rx.to_fraction()

    @settings(max_examples=300)
    @given(quads, quads)
    def test_sqrt_matches(self, xy, uv):
        # x * x is a square in the field, so both must find its root
        x, y = QuadRational.of(*xy), QuadRational.of(*uv)
        rx, ry = FractionQuad.of(*xy), FractionQuad.of(*uv)
        for value, ref in ((x * x, rx * rx), (y * y * 2, ry * ry * 2), (x, rx)):
            if quad_sign(value) < 0:
                continue
            root, ref_root = quad_sqrt(value), fraction_quad_sqrt(ref)
            assert (root is None) is (ref_root is None)
            if root is not None:
                assert as_reference(root) == ref_root

    def test_one_minus_sqrt2_below_zero(self):
        small, zero = QuadRational.of(1, -1), QuadRational.of(0)
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
        assert QuadRational.of(x.a, x.b) == x
        assert x - x == QuadRational(0, 0, 1) == (0, 0, 1)

    def test_zero(self):
        assert QuadRational(0, 0, 7) == QuadRational.of(0) == QUAD_ZERO == (0, 0, 1)
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
        assert eval_poly_quad(P, QuadRational.of(0, 1)) == QuadRational.of(0, 0)

    def test_identity(self):
        x = QuadRational.of(3, -2)
        assert eval_poly_quad(poly([0, 1]), x) == x

    def test_square_expansion(self):
        assert eval_poly_quad(
            poly([0, 0, 1]), QuadRational.of(1, 1)
        ) == QuadRational.of(3, 2)


class TestSturm:
    def test_single_root(self):
        assert sturm_count(poly([-2, 0, 1]), 0, 2) == 1

    def test_no_real_roots(self):
        assert sturm_count(poly([1, 0, 1]), -10, 10) == 0

    def test_q159_three_positive_roots(self):
        # independently confirmed by the numpy root finder below
        assert sturm_count(build_qpq(PQPair(1, 59)), 0, 10**6) == 3

    def test_q159_numpy_oracle(self):
        numpy = pytest.importorskip("numpy")
        coeffs = list(reversed(build_qpq(PQPair(1, 59))))
        roots = numpy.roots([float(c) for c in coeffs])
        real = [r.real for r in roots if abs(r.imag) < 1e-6]
        assert sum(1 for r in real if 0 < r < 10**6) == 3

    def test_endpoint_is_root_refused(self):
        with pytest.raises(EndpointIsRoot):
            sturm_count(poly([-1, 0, 1]), 1, 2)

    def test_rational_endpoint_root_refused_with_shared_sequence(self):
        # (3t - 2)(7t + 5), one sequence for both counts
        P = poly([-10, 1, 21])
        seq = sturm_sequence(P)
        assert sturm_count(P, -1, 1, seq) == 2
        with pytest.raises(EndpointIsRoot):
            sturm_count(P, Fraction(2, 3), 1, seq)
        with pytest.raises(EndpointIsRoot):
            sturm_count(P, -1, Fraction(-5, 7), seq)

    def test_even_polynomial_rational_root_refused_with_shared_sequence(self):
        # (4t^2 - 9)(t^2 + 1): the root 3/2 is planted in an even polynomial;
        # the endpoint check reads the first entry of the shared sign vector
        P = poly([-9, 0, -5, 0, 4])
        seq = sturm_sequence(P)
        assert sturm_count(P, 0, 2, seq) == 1
        assert sturm_count(P, -2, 2, seq) == 2
        for lo, hi in ((Fraction(3, 2), 2), (-2, Fraction(-3, 2)), (0, Fraction(3, 2))):
            with pytest.raises(EndpointIsRoot, match="3/2"):
                sturm_count(P, lo, hi, seq)
        # the same root as u = 9/4 of R(u) = (4u - 9)(u + 1), with Q(t) = R(t^2)
        R = poly([-9, -5, 4])
        with pytest.raises(EndpointIsRoot, match="9/4"):
            sturm_count(R, Fraction(9, 4), 4, sturm_sequence(R))

    def test_shared_sequence_gives_same_counts(self):
        P = build_qpq(PQPair(3, 178))
        seq = sturm_sequence(P)
        for lo, hi in ((0, 10**7), (-(10**7), 10**7), (Fraction(1, 3), 9)):
            assert sturm_count(P, lo, hi, seq) == sturm_count(P, lo, hi)

    def test_additivity(self):
        rng = random.Random(7)
        for _ in range(20):
            P = poly([rng.randint(-50, 50) for _ in range(11)])
            if len(P) < 2:  # zero or constant
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
        P = poly([2, -3, 0, 1])
        assert sturm_count(P, 0, 5) == 1
        assert sturm_count(P, -5, 5) == 2


def _sign(x) -> int:
    return (x > 0) - (x < 0)


# zeros are drawn often, so that sparse polynomials, whose remainder
# sequences skip degrees, are common
int_polys = st.lists(
    st.one_of(st.just(0), st.integers(-1000, 1000)), min_size=1, max_size=12
).map(poly).filter(bool)


class TestIntegerSturmSequence:
    """The integer pseudo-remainder sequence equals the Fraction one."""

    # t^5 + t + 1: the remainder by 5t^4 + 1 drops from degree 4 to 1.
    # -t^3 + t: negative leading coefficients along the whole sequence.
    # (t - 1)^2 (t + 2) and (t^2 - 2)^2 t: not squarefree.
    SPECIAL = (
        poly([1, 1, 0, 0, 0, 1]),
        poly([0, 1, 0, -1]),
        poly([-7, 0, 3, 0, -2, 0, -5]),
        poly([2, -3, 0, 1]),
        poly([0, 4, 0, -4, 0, 1]),
    )

    def test_special_cases(self):
        drops = negative_divisor = 0
        for P in self.SPECIAL:
            seq = sturm_sequence(P)
            assert seq == fraction_sturm_sequence(P)
            degrees = [len(f) - 1 for f in seq]
            drops += any(a - b > 1 for a, b in zip(degrees, degrees[1:]))
            negative_divisor += any(f[-1] < 0 for f in seq[1:-1])
        # the cases above do exercise what they are there for
        assert drops and negative_divisor

    def test_non_squarefree_ends_in_gcd(self):
        # the last term is the gcd of P and P', up to a positive scale
        seq = sturm_sequence(poly([2, -3, 0, 1]))
        assert seq[-1] == poly([-1, 1])

    @settings(max_examples=200)
    @given(int_polys)
    def test_matches_fraction_sequence(self, P):
        assert sturm_sequence(P) == fraction_sturm_sequence(P)

    def test_matches_on_cuboid_polynomials(self):
        rng = random.Random(11)
        for _ in range(30):
            p = rng.randint(1, 50)
            q = rng.randint(59 * p, 118 * p)
            if math.gcd(p, q) == 1:
                P = build_qpq(PQPair(p, q))
                assert sturm_sequence(P) == fraction_sturm_sequence(P)


class TestSignAt:
    @settings(max_examples=200)
    @given(
        int_polys,
        st.fractions(min_value=-1000, max_value=1000, max_denominator=10**6),
    )
    def test_rational_matches_eval(self, P, x):
        assert sign_at(P, x) == _sign(eval_poly(P, x))

    def test_rational_roots_are_zero(self):
        # (3t - 2)(7t + 5)
        P = poly([-10, 1, 21])
        assert sign_at(P, Fraction(2, 3)) == 0
        assert sign_at(P, Fraction(-5, 7)) == 0
        assert sign_at(P, 0) == -1

    def test_integer_argument(self):
        assert sign_at(poly([-1, 0, 1]), 3) == 1
        assert sign_at(poly([5]), -4) == 1
        assert sign_at(poly([]), 2) == 0

    @settings(max_examples=200)
    @given(
        int_polys,
        st.fractions(min_value=-1000, max_value=1000, max_denominator=10**6),
        st.fractions(min_value=-1000, max_value=1000, max_denominator=10**6),
    )
    def test_quad_matches_eval(self, P, a, b):
        x = QuadRational.of(a, b)
        assert sign_at_quad(P, x) == quad_sign(eval_poly_quad(P, x))

    def test_quad_roots_are_zero(self):
        assert sign_at_quad(poly([-2, 0, 1]), QuadRational.of(0, 1)) == 0
        # t^2 - 2t - 1 has the root 1 + sqrt(2)
        P = poly([-1, -2, 1])
        assert sign_at_quad(P, QuadRational.of(1, 1)) == 0
        assert sign_at_quad(P, QuadRational.of(1, -1)) == 0
        assert sign_at_quad(P, QuadRational.of(Fraction(5, 2), 0)) == 1

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
