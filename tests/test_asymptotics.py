import math
import random
from fractions import Fraction

import pytest

from cuboidsearch.asymptotics import (
    AsymptoticInterval,
    CertificationFailed,
    DegenerateHull,
    NewtonNode,
    PreconditionViolated,
    asymptotic_intervals,
    build_newton_grid,
    certify_roots,
    check_disjoint,
    leading_coefficients,
    upper_hull,
)
from cuboidsearch.cuboid_eqs import PQPair
from cuboidsearch.exact_arith import QuadRational, quad_sign, sturm_sequence
from oracles import (
    asymptotic_intervals_by_sums,
    build_qpq,
    eval_int,
    imaginary_axis_poly,
    integer_point_report,
    integers_in_open_interval,
    interval_midpoint,
    interval_width,
    node_dominance_holds,
    poly,
    q_certify_roots,
    refine_interval,
)

GOLDEN_HULL = ((0, 10), (4, 10), (6, 8), (10, 0))
GOLDEN_SLOPES = (Fraction(0), Fraction(-1), Fraction(-2))
GOLDEN_EXPONENTS = (Fraction(0), Fraction(1), Fraction(2))


class TestNewtonGrid:
    def test_node_count_and_membership(self):
        nodes = build_newton_grid()
        keyed = {(n.m, n.r): n for n in nodes}
        assert len(nodes) == 18
        assert keyed[(10, 0)].coeff_p == (1,)
        assert keyed[(0, 10)].monomial() == (-1, 10)
        assert keyed[(8, 4)].monomial() == (6, 0)
        assert keyed[(6, 8)].monomial() == (1, 0)

    def test_hull_matches_golden(self):
        polygon = upper_hull(build_newton_grid())
        assert polygon.upper_hull == GOLDEN_HULL
        assert polygon.segment_slopes == GOLDEN_SLOPES
        assert polygon.exponents == GOLDEN_EXPONENTS

    def test_dominance(self):
        assert node_dominance_holds(upper_hull(build_newton_grid()))

    def test_two_node_hull(self):
        nodes = (
            NewtonNode(0, 0, (1,)),
            NewtonNode(1, 1, (1,)),
        )
        polygon = upper_hull(nodes)
        assert polygon.upper_hull == ((0, 0), (1, 1))
        assert polygon.segment_slopes == (Fraction(1),)
        assert polygon.exponents == (Fraction(-1),)

    def test_three_node_tent(self):
        nodes = (
            NewtonNode(0, 0, (1,)),
            NewtonNode(1, 5, (1,)),
            NewtonNode(2, 0, (1,)),
        )
        polygon = upper_hull(nodes)
        assert polygon.upper_hull == ((0, 0), (1, 5), (2, 0))
        assert set(polygon.segment_slopes) == {Fraction(5), Fraction(-5)}
        assert polygon.exponents == (Fraction(-5), Fraction(5))

    def test_degenerate(self):
        with pytest.raises(DegenerateHull):
            upper_hull((NewtonNode(3, 0, (1,)), NewtonNode(3, 7, (1,))))


class TestLeadingTerms:
    def test_exponent_two(self):
        polygon = upper_hull(build_newton_grid())
        terms = leading_coefficients(polygon, Fraction(2))
        assert len(terms) == 2
        assert all(t.axis == "IMAGINARY" for t in terms)
        assert all(t.p_power == 0 for t in terms)
        mags = {t.magnitude for t in terms}
        # magnitudes sqrt(2) + 1 and sqrt(2) - 1, squares 3 +/- 2 sqrt(2)
        assert mags == {QuadRational.of(1, 1), QuadRational.of(-1, 1)}
        assert {m * m for m in mags} == {
            QuadRational.of(3, 2),
            QuadRational.of(3, -2),
        }

    def test_exponent_one(self):
        polygon = upper_hull(build_newton_grid())
        terms = leading_coefficients(polygon, Fraction(1))
        assert len(terms) == 1
        (term,) = terms
        assert term.axis == "REAL"
        assert term.magnitude == QuadRational.of(1)
        assert term.p_power == 1
        assert term.multiplicity == 1

    def test_exponent_zero(self):
        polygon = upper_hull(build_newton_grid())
        terms = leading_coefficients(polygon, Fraction(0))
        assert len(terms) == 1
        (term,) = terms
        assert term.axis == "REAL"
        assert term.magnitude == QuadRational.of(1)
        assert term.p_power == 2
        assert term.multiplicity == 2

    def test_bad_exponent(self):
        polygon = upper_hull(build_newton_grid())
        with pytest.raises(ValueError):
            leading_coefficients(polygon, Fraction(3))


class TestIntervals:
    def test_p1_q59_values(self):
        ivs = {iv.label: iv for iv in asymptotic_intervals(PQPair(1, 59))}
        t1 = ivs["T1"]
        assert t1.lo == QuadRational.of(Fraction(54, 59))
        assert t1.hi == QuadRational.of(1)
        t2 = ivs["T2"]
        assert t2.lo == QuadRational.of(1)
        assert t2.hi == QuadRational.of(Fraction(64, 59))
        t3 = ivs["T3"]
        assert t3.lo == QuadRational.of(Fraction(204430, 3481))
        assert t3.hi == QuadRational.of(Fraction(204440, 3481))
        t4 = ivs["T4"]
        assert interval_midpoint(t4) == QuadRational.of(3479, 3482)
        assert interval_width(t4) == QuadRational.of(Fraction(10, 59))
        t5 = ivs["T5"]
        assert interval_midpoint(t5) == QuadRational.of(-3479, 3482)
        assert t5.axis == "IMAGINARY"

    def test_precondition(self):
        with pytest.raises(PreconditionViolated):
            asymptotic_intervals(PQPair(1, 58))
        assert len(asymptotic_intervals(PQPair(1, 59))) == 5

    def test_closed_forms_equal_fraction_sums(self):
        rng = random.Random(909)
        large = []  # p beyond the audit range, q up to 10^6 p
        while len(large) < 100:
            p = rng.randint(51, 10**4)
            q = rng.randint(59 * p, 10**6 * p)
            if math.gcd(p, q) == 1:
                large.append(PQPair(p, q))
        for pair in [PQPair(1, 59)] + _audit_range_pairs(200, 909) + large:
            intervals = asymptotic_intervals(pair)
            assert intervals == asymptotic_intervals_by_sums(pair)
            for iv in intervals:
                assert all(type(x) is Fraction for x in (iv.lo.a, iv.lo.b, iv.hi.a, iv.hi.b))

    def test_margin_invariants(self):
        # frozen lower bounds on positions and separations, scaled by p^2
        for p, q in ((1, 59), (2, 119), (3, 178), (5, 296), (7, 415)):
            ivs = {iv.label: iv for iv in asymptotic_intervals(PQPair(p, q))}
            p2 = Fraction(p * p)
            assert ivs["T1"].lo >= QuadRational.of(
                Fraction(54, 59) * p2
            )
            assert ivs["T3"].lo > QuadRational.of(58 * p2)
            gap_23 = ivs["T3"].lo - ivs["T2"].hi
            assert quad_sign(gap_23) > 0
            assert ivs["T5"].lo > QuadRational.of(1445 * p2)
            assert ivs["T4"].lo > QuadRational.of(8403 * p2)
            gap_45 = ivs["T4"].lo - ivs["T5"].hi
            assert gap_45 >= QuadRational.of(Fraction(410512, 59) * p2)
            assert gap_45 > QuadRational.of(6957 * p2)


class TestDisjointness:
    def test_valid_pairs(self):
        for p, q in ((1, 59), (2, 121), (3, 178)):
            report = check_disjoint(asymptotic_intervals(PQPair(p, q)))
            assert report.ok
            assert report.adjacency_ok
            assert quad_sign(report.real_gap) > 0
            assert quad_sign(report.imaginary_gap) > 0

    def test_fabricated_overlap_detected(self):
        ivs = asymptotic_intervals(PQPair(1, 59))
        broken = []
        for iv in ivs:
            if iv.label == "T3":
                broken.append(
                    AsymptoticInterval(
                        iv.label, iv.axis, QuadRational.of(1), iv.hi
                    )
                )
            else:
                broken.append(iv)
        report = check_disjoint(broken)
        assert not report.ok
        assert quad_sign(report.real_gap) < 0


class TestImaginaryAxisPoly:
    def test_alternating_signs(self):
        P = poly([1, 0, 1, 0, 1])
        assert imaginary_axis_poly(P) == (1, 0, -1, 0, 1)

    def test_odd_rejected(self):
        with pytest.raises(ValueError):
            imaginary_axis_poly(poly([0, 1]))

    def test_consistency_with_squares(self):
        # P(iy) real for even P: compare via t^2 -> -y^2 on a sample
        P = build_qpq(PQPair(1, 2))
        Q = imaginary_axis_poly(P)
        for y in (1, 2, 5):
            direct = sum(
                c * (-(y * y)) ** (k // 2)
                for k, c in enumerate(P)
                if k % 2 == 0
            )
            assert eval_int(Q, y) == direct


class TestCertificates:
    def test_p1_q59(self):
        certs = certify_roots(PQPair(1, 59))
        assert len(certs) == 5
        assert all(c.passed for c in certs)
        real = [c for c in certs if c.axis == "REAL"]
        assert all(c.sturm_roots == 1 for c in real)
        assert all(c.sign_lo * c.sign_hi == -1 for c in certs)

    def test_p3_q178(self):
        assert all(c.passed for c in certify_roots(PQPair(3, 178)))

    def test_invalid_pairs_rejected_at_construction(self):
        with pytest.raises(ValueError):
            certify_roots(PQPair(2, 118))
        with pytest.raises(ValueError):
            certify_roots(PQPair(3, 177))

    def test_total_root_counts(self):
        from cuboidsearch.exact_arith import sturm_count

        P = build_qpq(PQPair(1, 59))
        B = 10**6
        assert sturm_count(P, 0, B) == 3
        assert sturm_count(P, -B, B) == 6


def _audit_range_pairs(count, seed):
    """`count` seeded coprime pairs with p <= 50 and 59p <= q <= 118p."""
    rng = random.Random(seed)
    pairs = []
    while len(pairs) < count:
        p = rng.randint(1, 50)
        q = rng.randint(59 * p, 118 * p)
        if math.gcd(p, q) == 1:
            pairs.append(PQPair(p, q))
    return pairs


def _replaced(intervals, label, lo, hi):
    return [
        AsymptoticInterval(iv.label, iv.axis, lo, hi) if iv.label == label else iv
        for iv in intervals
    ]


class TestCertificateOnR:
    """certify_roots runs on R(u) with Q(t) = R(t^2); the oracle runs on Q."""

    def test_equals_q_oracle(self):
        # q = 59p is coprime to p only for p = 1; for p > 1 the smallest
        # admissible q is 59p + 1
        boundary = [PQPair(1, 59)] + [PQPair(p, 59 * p + 1) for p in range(2, 51)]
        for pair in _audit_range_pairs(200, 808) + boundary:
            intervals = asymptotic_intervals(pair)
            certs = certify_roots(pair, intervals)
            assert certs == q_certify_roots(pair, intervals)
            assert all(c.passed for c in certs)

    @pytest.mark.parametrize("p, q", [(1, 59), (7, 500), (13, 1000), (50, 5901)])
    def test_shifted_intervals_fail_alike(self, p, q):
        pair = PQPair(p, q)
        ivs = asymptotic_intervals(pair)
        t1, t2, t3, _, t5 = ivs
        shifted = [
            # T1 and T2 merged: both roots near p^2
            (_replaced(ivs, "T1", t1.lo, t2.hi), "T1: sign(-1,-1), sturm=2"),
            # T3 moved up by its width, past its root
            (_replaced(ivs, "T3", t3.hi, t3.hi * 2 - t3.lo), "T3: sign(1,1), sturm=0"),
            # T5 moved down, below its root
            (_replaced(ivs, "T5", t5.lo * Fraction(1, 2), t5.lo), "T5: sign(-1,-1)"),
        ]
        for intervals, failure in shifted:
            with pytest.raises(CertificationFailed) as on_r:
                certify_roots(pair, intervals)
            with pytest.raises(CertificationFailed) as on_q:
                q_certify_roots(pair, intervals)
            assert str(on_r.value) == str(on_q.value) == f"(p={p}, q={q}): {failure}"

    def test_sequence_of_q_rejected(self):
        pair = PQPair(1, 59)
        with pytest.raises(ValueError, match="degree-5 R"):
            certify_roots(pair, None, sturm_sequence(build_qpq(pair)))

    def test_negative_real_lower_end_refused(self):
        pair = PQPair(1, 59)
        ivs = asymptotic_intervals(pair)
        for lo in (QuadRational.of(-1), QuadRational.of(Fraction(-1, 3))):
            bad = _replaced(ivs, "T1", lo, ivs[0].hi)
            with pytest.raises(CertificationFailed, match=r"T1: lo = -1(/3)? < 0"):
                certify_roots(pair, bad)


class TestIntegerPoints:
    def test_integers_in_open_interval(self):
        assert integers_in_open_interval(Fraction(1, 2), Fraction(7, 2)) == [1, 2, 3]
        assert integers_in_open_interval(Fraction(1), Fraction(2)) == []
        assert integers_in_open_interval(Fraction(-3, 2), Fraction(3, 2)) == [-1, 0, 1]

    def test_p1_q59(self):
        report = integer_point_report(PQPair(1, 59))
        assert report.narrow_hypothesis
        assert report.at_most_one_hypothesis
        assert report.t3_empty_hypothesis
        assert all(not pts for pts in report.search_candidates.values())
        assert report.t3_in_unit_bracket is True
        assert report.conclusion == "SEARCH_SKIP"

    def test_t1_t2_never_contain_candidates(self):
        # T1, T2 sit near p^2 while candidates must exceed q^2 >= (59 p)^2
        for p, q in ((1, 60), (2, 119), (4, 333)):
            report = integer_point_report(PQPair(p, q))
            assert report.search_candidates["T1"] == []
            assert report.search_candidates["T2"] == []
            assert report.search_candidates["T3"] == []


class TestRefine:
    def test_t3_midpoint_accuracy(self):
        pair = PQPair(1, 59)
        qpoly = build_qpq(pair)
        t3 = next(
            iv
            for iv in asymptotic_intervals(pair)
            if iv.label == "T3"
        )
        mid = refine_interval(qpoly, t3.lo, t3.hi, Fraction(1, 10**12))
        width_bound = Fraction(1, 10**12) * mid.to_fraction()
        # value changes sign within width_bound of the returned midpoint
        from oracles import eval_poly

        m = mid.to_fraction()
        assert eval_poly(qpoly, m - width_bound) * eval_poly(
            qpoly, m + width_bound
        ) <= 0
