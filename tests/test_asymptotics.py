import math
import random
from fractions import Fraction

import pytest

from cuboidsearch import asymptotics
from cuboidsearch.asymptotics import (
    LEADING_TERMS,
    NEWTON_HULL,
    AsymptoticInterval,
    CertificationFailed,
    LeadingTerm,
    NewtonNode,
    PreconditionViolated,
    asymptotic_intervals,
    build_newton_grid,
    certify_newton,
    certify_roots,
    check_disjoint,
)
from cuboidsearch.cuboid_eqs import PQPair, build_rpq
from cuboidsearch.exact_arith import QUAD_ZERO, QuadRational, sqrt2_sign
from oracles import (
    QPQ_TERMS,
    asymptotic_intervals_by_sums,
    build_qpq,
    eval_int,
    eval_poly_quad,
    fraction_sturm_count,
    fraction_sturm_sequence,
    imaginary_axis_poly,
    integer_point_report,
    integers_in_open_interval,
    interval_midpoint,
    interval_width,
    node_dominance_holds,
    poly,
    q_certify_roots,
    quad,
    refine_interval,
    to_fraction,
)

GOLDEN_HULL = ((0, 10), (4, 10), (6, 8), (10, 0))
GOLDEN_SLOPES = (Fraction(0), Fraction(-1), Fraction(-2))
GOLDEN_EXPONENTS = (Fraction(0), Fraction(1), Fraction(2))


class TestNewtonGrid:
    def test_node_count_and_membership(self):
        nodes = build_newton_grid()
        keyed = {(n.m, n.r): n for n in nodes}
        assert len(nodes) == 18
        assert keyed[(10, 0)] == NewtonNode(m=10, r=0, c=1, e=0)
        assert (keyed[(0, 10)].c, keyed[(0, 10)].e) == (-1, 10)
        assert (keyed[(8, 4)].c, keyed[(8, 4)].e) == (6, 0)
        assert (keyed[(6, 8)].c, keyed[(6, 8)].e) == (1, 0)

    def test_grid_matches_oracle_table(self):
        # the grid read off qpq_coefficients is the paper's term table
        table = sorted(
            NewtonNode(m, r, c, e)
            for m, terms in QPQ_TERMS.items() for e, r, c in terms
        )
        assert len(table) == 18
        assert list(build_newton_grid()) == table

    def test_two_powers_of_p_at_one_node_raise(self, monkeypatch):
        # t^8 q^2 with the coefficient p^2 - p^4: not one monomial in p, and
        # p^4 q^2 t^8 is not of Q's degree
        def coefficients(p, q):
            return (-(p * q) ** 10, 0, 0, 0, p**2 * q**2 - p**4 * q**2)

        monkeypatch.setattr(asymptotics, "qpq_coefficients", coefficients)
        with pytest.raises(ValueError, match=r"term -1\*p\^4\*q\^2\*t\^8 breaks homogeneity"):
            build_newton_grid()

    def test_hull_matches_golden(self):
        # the claimed hull is certified, with the paper's slopes
        certify_newton(build_newton_grid(), NEWTON_HULL, LEADING_TERMS)
        assert NEWTON_HULL == GOLDEN_HULL
        slopes = tuple(
            Fraction(r2 - r1, m2 - m1)
            for (m1, r1), (m2, r2) in zip(NEWTON_HULL, NEWTON_HULL[1:])
        )
        assert slopes == GOLDEN_SLOPES
        assert tuple(-k for k in slopes) == GOLDEN_EXPONENTS
        assert {t.exponent for t in LEADING_TERMS} == set(GOLDEN_EXPONENTS)

    def test_dominance(self):
        assert node_dominance_holds(build_newton_grid(), NEWTON_HULL)

    def test_two_node_hull(self):
        # -4 + s: one real root gamma = 2 on the segment of exponent -1
        nodes = (NewtonNode(0, 0, -4, 0), NewtonNode(2, 2, 1, 0))
        certify_newton(nodes, ((0, 0), (2, 2)), (LeadingTerm(-1, quad(2), 0, "REAL", 1),))
        with pytest.raises(CertificationFailed, match="does not run from m = 0 to m = 2"):
            certify_newton(nodes, ((0, 0),), ())

    def test_three_node_tent(self):
        # -1 + s on the left segment and 1 - s on the right: gamma = 1 on each
        nodes = (NewtonNode(0, 0, -1, 0), NewtonNode(2, 10, 1, 0), NewtonNode(4, 0, -1, 0))
        terms = (LeadingTerm(-5, quad(1), 0, "REAL", 1), LeadingTerm(5, quad(1), 0, "REAL", 1))
        certify_newton(nodes, ((0, 0), (2, 10), (4, 0)), terms)
        assert node_dominance_holds(nodes, ((0, 0), (2, 10), (4, 0)))
        with pytest.raises(CertificationFailed, match=r"node \(2, 10\) lies above"):
            certify_newton(nodes, ((0, 0), (4, 0)), terms)

    def test_degenerate(self):
        # all nodes share one t-power: no claimed hull has a segment
        nodes = (NewtonNode(3, 0, 1, 0), NewtonNode(3, 7, 1, 0))
        for hull in (((3, 7),), ((3, 0), (3, 7))):
            with pytest.raises(CertificationFailed, match="does not run from m = 3 to m = 3"):
                certify_newton(nodes, hull, ())


def _terms_at(exponent):
    return [t for t in LEADING_TERMS if t.exponent == exponent]


def _refusal(nodes, hull, terms):
    """certify_newton's failure text for these claims, or None if they hold."""
    try:
        certify_newton(nodes, hull, terms)
    except CertificationFailed as failed:
        return str(failed)
    return None


class TestLeadingTerms:
    """The claimed terms of each hull segment, which the certificate needs
    all of: without them the segment's roots are not accounted for."""

    def test_exponent_two(self):
        terms = _terms_at(2)
        assert len(terms) == 2
        assert all(t.axis == "IMAGINARY" for t in terms)
        assert all(t.p_power == 0 for t in terms)
        mags = {t.magnitude for t in terms}
        # magnitudes sqrt(2) + 1 and sqrt(2) - 1, squares 3 +/- 2 sqrt(2)
        assert mags == {quad(1, 1), quad(-1, 1)}
        assert {m * m for m in mags} == {
            quad(3, 2),
            quad(3, -2),
        }
        for term in terms:
            rest = [t for t in LEADING_TERMS if t != term]
            assert "(6, 8) - (10, 0) has multiplicities summing to 1" in _refusal(
                build_newton_grid(), NEWTON_HULL, rest
            )

    def test_exponent_one(self):
        terms = _terms_at(1)
        assert len(terms) == 1
        (term,) = terms
        assert term.axis == "REAL"
        assert term.magnitude == quad(1)
        assert term.p_power == 1
        assert term.multiplicity == 1
        rest = [t for t in LEADING_TERMS if t != term]
        assert "(4, 10) - (6, 8) has multiplicities summing to 0" in _refusal(
            build_newton_grid(), NEWTON_HULL, rest
        )

    def test_exponent_zero(self):
        terms = _terms_at(0)
        assert len(terms) == 1
        (term,) = terms
        assert term.axis == "REAL"
        assert term.magnitude == quad(1)
        assert term.p_power == 2
        assert term.multiplicity == 2
        rest = [t for t in LEADING_TERMS if t != term]
        assert "(0, 10) - (4, 10) has multiplicities summing to 0" in _refusal(
            build_newton_grid(), NEWTON_HULL, rest
        )

    def test_bad_exponent(self):
        off = LeadingTerm(3, quad(1), 0, "REAL", 1)
        assert _refusal(build_newton_grid(), NEWTON_HULL, LEADING_TERMS + (off,)) == (
            "exponent 3 is not a hull exponent"
        )

    def test_fractional_p_weight(self):
        # the ends' powers of p differ by 1 over a segment two t-powers wide,
        # so no integer p_power is the segment's p-weight
        nodes = (NewtonNode(0, 0, 1, 1), NewtonNode(2, 2, -1, 0))
        for p_power in (0, 1):
            term = LeadingTerm(-1, quad(1), p_power, "REAL", 1)
            assert _refusal(nodes, ((0, 0), (2, 2)), (term,)).endswith(
                f"has a p-weight other than p_power {p_power}"
            )

    def test_odd_offset(self):
        # a node one t-power from the segment's left end: not even in gamma
        nodes = (NewtonNode(0, 0, 1, 2), NewtonNode(1, 1, 1, 1), NewtonNode(2, 2, -1, 0))
        term = LeadingTerm(-1, quad(1), 1, "REAL", 1)
        assert _refusal(nodes, ((0, 0), (2, 2)), (term,)).endswith("is not even in gamma")


def _with(index, **fields):
    """LEADING_TERMS with the term at `index` changed in `fields`."""
    terms = list(LEADING_TERMS)
    terms[index] = terms[index]._replace(**fields)
    return tuple(terms)


class TestNewtonCertificate:
    """Each claim the certificate checks, broken alone, is refused by name."""

    @pytest.mark.parametrize("hull, message", [
        (((0, 10), (6, 8), (10, 0)), "grid node (2, 10) lies above the hull"),
        (((0, 10), (2, 10), (4, 10), (6, 8), (10, 0)),
         "hull vertex (2, 10) is not a strict corner"),
        (((0, 10), (4, 10), (6, 8), (8, 4)),
         "hull does not run from m = 0 to m = 10 in increasing m"),
        (((0, 10), (4, 10), (6, 8), (10, 1)), "hull vertex (10, 1) is not a grid node"),
        (((0, 10), (2, 10), (6, 8), (10, 0)), "grid node (4, 10) lies above the hull"),
        (((0, 10), (4, 10), (10, 0)), "grid node (6, 8) lies above the hull"),
    ], ids=["dropped-vertex", "non-corner-vertex", "moved-end", "end-off-grid",
            "node-above", "dropped-last-corner"])
    def test_hull_mutation_refused(self, hull, message):
        assert _refusal(build_newton_grid(), hull, LEADING_TERMS) == (
            message
        )

    @pytest.mark.parametrize("terms, message", [
        (LEADING_TERMS[:3], "segment (6, 8) - (10, 0) has multiplicities summing to 1, "
         "not its degree"),
        (LEADING_TERMS + LEADING_TERMS[1:2],
         "segment (4, 10) - (6, 8) has two terms at one point s"),
        (LEADING_TERMS + (LeadingTerm(1, quad(2), 1, "REAL", 1),),
         "segment (4, 10) - (6, 8) has no root of multiplicity 1 at s = 4"),
        (_with(1, magnitude=quad(2)),
         "segment (4, 10) - (6, 8) has no root of multiplicity 1 at s = 4"),
        (_with(3, magnitude=quad(1, -1)),
         "term 1 - 1*sqrt(2) of multiplicity 1 at exponent 2 is not positive"),
        (_with(1, magnitude=quad(-1)),
         "term -1 of multiplicity 1 at exponent 1 is not positive"),
        (_with(1, p_power=2), "segment (4, 10) - (6, 8) has a p-weight other than p_power 2"),
        (_with(1, axis="IMAGINARY"),
         "segment (4, 10) - (6, 8) has no root of multiplicity 1 at s = -1"),
        (_with(2, axis="REAL"),
         "segment (6, 8) - (10, 0) has no root of multiplicity 1 at s = 3 - 2*sqrt(2)"),
        (_with(0, multiplicity=1),
         "segment (0, 10) - (4, 10) has multiplicities summing to 1, not its degree"),
        (_with(1, multiplicity=2),
         "segment (4, 10) - (6, 8) has no root of multiplicity 2 at s = 1"),
        (_with(0, multiplicity=0), "term 1 of multiplicity 0 at exponent 0 is not positive"),
        (_with(1, exponent=3), "exponent 3 is not a hull exponent"),
        (_with(1, exponent=Fraction(1, 2)), "exponent 1/2 is not a hull exponent"),
    ], ids=["dropped", "extra-same-point", "extra-off-root", "magnitude",
            "magnitude-conjugate", "negative-magnitude", "p-power", "axis-real",
            "axis-imaginary", "multiplicity-low", "multiplicity-high",
            "multiplicity-zero", "exponent-off-hull", "exponent-fractional"])
    def test_term_mutation_refused(self, terms, message):
        assert _refusal(build_newton_grid(), NEWTON_HULL, terms) == (
            message
        )


class TestIntervals:
    def test_p1_q59_values(self):
        ivs = {iv.label: iv for iv in asymptotic_intervals(PQPair(1, 59))}
        t1 = ivs["T1"]
        assert t1.lo == quad(Fraction(54, 59))
        assert t1.hi == quad(1)
        t2 = ivs["T2"]
        assert t2.lo == quad(1)
        assert t2.hi == quad(Fraction(64, 59))
        t3 = ivs["T3"]
        assert t3.lo == quad(Fraction(204430, 3481))
        assert t3.hi == quad(Fraction(204440, 3481))
        t4 = ivs["T4"]
        assert interval_midpoint(t4) == quad(3479, 3482)
        assert interval_width(t4) == quad(Fraction(10, 59))
        t5 = ivs["T5"]
        assert interval_midpoint(t5) == quad(-3479, 3482)
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
                assert all(type(x) is int for x in (*iv.lo, *iv.hi))

    def test_margin_invariants(self):
        # frozen lower bounds on positions and separations, scaled by p^2
        for p, q in ((1, 59), (2, 119), (3, 178), (5, 296), (7, 415)):
            ivs = {iv.label: iv for iv in asymptotic_intervals(PQPair(p, q))}
            p2 = Fraction(p * p)
            assert ivs["T1"].lo >= quad(
                Fraction(54, 59) * p2
            )
            assert ivs["T3"].lo > quad(58 * p2)
            gap_23 = ivs["T3"].lo - ivs["T2"].hi
            assert gap_23 > QUAD_ZERO
            assert ivs["T5"].lo > quad(1445 * p2)
            assert ivs["T4"].lo > quad(8403 * p2)
            gap_45 = ivs["T4"].lo - ivs["T5"].hi
            assert gap_45 >= quad(Fraction(410512, 59) * p2)
            assert gap_45 > quad(6957 * p2)


class TestDisjointness:
    def test_valid_pairs(self):
        for p, q in ((1, 59), (2, 121), (3, 178)):
            report = check_disjoint(asymptotic_intervals(PQPair(p, q)))
            assert report.broken is None
            assert report.real_gap > QUAD_ZERO
            assert report.imaginary_gap > QUAD_ZERO

    def test_fabricated_overlap_detected(self):
        ivs = asymptotic_intervals(PQPair(1, 59))
        broken = []
        for iv in ivs:
            if iv.label == "T3":
                broken.append(
                    AsymptoticInterval(
                        iv.label, iv.axis, quad(1), iv.hi
                    )
                )
            else:
                broken.append(iv)
        report = check_disjoint(broken)
        assert report.broken == "T2.hi < T3.lo"
        assert report.real_gap < QUAD_ZERO

    @pytest.mark.parametrize("label", ["T1", "T2", "T3", "T4", "T5"])
    def test_swapped_ends_detected(self, label):
        # the degree count needs every end in order, not only the gaps
        pair = PQPair(1, 59)
        ivs = asymptotic_intervals(pair)
        iv = ivs[int(label[1]) - 1]
        swapped = _replaced(ivs, label, iv.hi, iv.lo)
        report = check_disjoint(swapped)
        assert label in report.broken
        with pytest.raises(CertificationFailed, match=f"order fails at .*{label}"):
            certify_roots(pair, swapped, check_disjoint(swapped))

    def test_passed_report_is_the_intervals_own(self):
        # certify_roots reads the order off the check_disjoint report it is
        # given, the report of the same intervals: each swapped list, passed
        # its own report, is refused by name
        pair = PQPair(7, 500)
        ivs = asymptotic_intervals(pair)
        for iv in ivs:
            swapped = _replaced(ivs, iv.label, iv.hi, iv.lo)
            report = check_disjoint(swapped)
            with pytest.raises(CertificationFailed) as failed:
                certify_roots(pair, swapped, report)
            assert iv.label in report.broken
            assert str(failed.value) == f"(p=7, q=500): order fails at {report.broken}"


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
        certs = _certify(PQPair(1, 59))
        assert len(certs) == 5
        assert all(c.sign_lo * c.sign_hi == -1 for c in certs)

    def test_p3_q178(self):
        certs = _certify(PQPair(3, 178))
        assert len(certs) == 5
        assert all(c.sign_lo * c.sign_hi == -1 for c in certs)

    def test_invalid_pairs_rejected_at_construction(self):
        with pytest.raises(ValueError):
            _certify(PQPair(2, 118))
        with pytest.raises(ValueError):
            _certify(PQPair(3, 177))

    def test_total_root_counts(self):
        P = build_qpq(PQPair(1, 59))
        B = 10**6
        seq = fraction_sturm_sequence(P)
        assert fraction_sturm_count(P, 0, B, seq) == 3
        assert fraction_sturm_count(P, -B, B, seq) == 6


def _certify(pair):
    intervals = asymptotic_intervals(pair)
    return certify_roots(pair, intervals, check_disjoint(intervals))


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


def _per_end_sign(pair, axis, x):
    """The sign of R at x^2 (real axis) or -x^2 (imaginary axis), found for
    that end alone by Horner's scheme over QuadRational."""
    u = x * x if axis == "REAL" else -(x * x)
    value = eval_poly_quad(build_rpq(pair), u)
    return sqrt2_sign(value.A, value.B)


def _per_end_certificates(pair, intervals):
    """(label, axis, sign_lo, sign_hi) of each interval, from _per_end_sign."""
    return [
        (iv.label, iv.axis, _per_end_sign(pair, iv.axis, iv.lo),
         _per_end_sign(pair, iv.axis, iv.hi))
        for iv in intervals
    ]


def _outcome(pair, intervals):
    """certify_roots's certificates as plain tuples, or its failure text."""
    try:
        certs = certify_roots(pair, intervals, check_disjoint(intervals))
    except CertificationFailed as failed:
        return str(failed)
    return [tuple(c) for c in certs]


def _per_end_outcome(pair, intervals):
    """_outcome as the per-end signs and the order decide it."""
    certs = _per_end_certificates(pair, intervals)
    failures = [f"{label}: sign({lo},{hi})" for label, _, lo, hi in certs if lo * hi != -1]
    broken = check_disjoint(intervals).broken
    if not failures and broken:
        failures.append(f"order fails at {broken}")
    return f"(p={pair.p}, q={pair.q}): " + "; ".join(failures) if failures else certs


# the p = 10^12 pair of the roots goldens
GOLDEN_BIG = PQPair(10**12, 59 * 10**12 + 1)

# q = 59p is coprime to p only for p = 1; for p > 1 the smallest admissible
# q is 59p + 1
BOUNDARY_PAIRS = [PQPair(1, 59)] + [PQPair(p, 59 * p + 1) for p in range(2, 51)]


def _replaced(intervals, label, lo, hi):
    return [
        AsymptoticInterval(iv.label, iv.axis, lo, hi) if iv.label == label else iv
        for iv in intervals
    ]


class TestCertificateOnR:
    """certify_roots runs on R(u) with Q(t) = R(t^2); the oracle runs on Q."""

    def test_equals_q_oracle(self):
        for pair in _audit_range_pairs(200, 808) + BOUNDARY_PAIRS:
            intervals = asymptotic_intervals(pair)
            certs = certify_roots(pair, intervals, check_disjoint(intervals))
            assert certs == q_certify_roots(pair, intervals)
            assert all(c.sign_lo * c.sign_hi == -1 for c in certs)

    def test_degree_count_agrees_with_sturm(self):
        # what the degree count concludes, recounted by Sturm's theorem: one
        # root of Q in each real interval, and five real roots of R in all,
        # below the Cauchy bound 1 + max |c_i| of the monic R
        for pair in _audit_range_pairs(200, 808) + BOUNDARY_PAIRS:
            intervals = asymptotic_intervals(pair)
            certify_roots(pair, intervals, check_disjoint(intervals))
            qpoly = build_qpq(pair)
            seq = fraction_sturm_sequence(qpoly)
            for iv in intervals[:3]:
                lo, hi = to_fraction(iv.lo), to_fraction(iv.hi)
                assert fraction_sturm_count(qpoly, lo, hi, seq) == 1
            rpoly = build_rpq(pair)
            bound = 1 + max(abs(c) for c in rpoly)
            assert fraction_sturm_count(rpoly, -bound, bound) == 5

    def test_t5_ends_are_conjugates_of_t4_ends(self):
        # T5.lo = -conj(T4.hi) and T5.hi = -conj(T4.lo), as reduced triples
        for pair in _audit_range_pairs(100, 4242) + BOUNDARY_PAIRS + [GOLDEN_BIG]:
            t4, t5 = asymptotic_intervals(pair)[3:]
            assert tuple(t5.lo) == (-t4.hi.A, t4.hi.B, t4.hi.D)
            assert tuple(t5.hi) == (-t4.lo.A, t4.lo.B, t4.lo.D)

    def test_memoised_signs_equal_per_end_signs(self):
        # each of the nine ends evaluated on its own, by Horner's scheme in
        # the field's own arithmetic, at x^2 or -x^2
        for pair in _audit_range_pairs(40, 1717) + [GOLDEN_BIG]:
            intervals = asymptotic_intervals(pair)
            certs = certify_roots(pair, intervals, check_disjoint(intervals))
            assert [tuple(c) for c in certs] == _per_end_certificates(pair, intervals)

    @pytest.mark.parametrize("p, q", [(1, 59), (7, 500), (50, 5901)])
    def test_memo_on_moved_t4_and_t5(self, p, q, monkeypatch):
        # each end not met before, nor as a conjugate, costs one more Horner
        # pass, and every sign, and so the verdict, is the end's own
        pair = PQPair(p, q)
        ivs = asymptotic_intervals(pair)
        t4, t5 = ivs[3:]
        width = t5.hi - t5.lo
        mid4, mid5 = interval_midpoint(t4), interval_midpoint(t5)
        assert tuple(mid5) == (-mid4.A, mid4.B, mid4.D)
        # at the centres R's signs differ, so a sign carried over to the
        # conjugate end unchanged would be wrong there
        assert _per_end_sign(pair, "IMAGINARY", mid4) != _per_end_sign(pair, "IMAGINARY", mid5)
        passes = []
        real = asymptotics.value_at_sqrt2

        def counted(*args):
            passes.append(args)
            return real(*args)

        monkeypatch.setattr(asymptotics, "value_at_sqrt2", counted)
        for intervals, expected in (
            (ivs, 7),
            # widened on both sides: neither end a conjugate of a T4 end
            (_replaced(ivs, "T5", t5.lo - width, t5.hi + width), 9),
            # moved down below its root: only its upper end is one
            (_replaced(ivs, "T5", t5.lo * QuadRational(1, 0, 2), t5.lo), 8),
            # halves of T4 and T5 that are still conjugates, ends and centres
            (_replaced(_replaced(ivs, "T4", t4.lo, mid4), "T5", mid5, t5.hi), 7),
            (_replaced(_replaced(ivs, "T4", mid4, t4.hi), "T5", t5.lo, mid5), 7),
        ):
            passes.clear()
            assert _outcome(pair, intervals) == _per_end_outcome(pair, intervals)
            assert len(passes) == expected

    @pytest.mark.parametrize("p, q", [(1, 59), (7, 500), (13, 1000), (50, 5901)])
    def test_shifted_intervals_fail_alike(self, p, q):
        pair = PQPair(p, q)
        ivs = asymptotic_intervals(pair)
        t1, t2, t3, _, t5 = ivs
        shifted = [
            # T1 and T2 merged: both roots near p^2
            (_replaced(ivs, "T1", t1.lo, t2.hi), "T1: sign(-1,-1)", ", sturm=2"),
            # T3 moved up by its width, past its root
            (_replaced(ivs, "T3", t3.hi, t3.hi * 2 - t3.lo), "T3: sign(1,1)", ", sturm=0"),
            # T5 moved down, below its root
            (
                _replaced(ivs, "T5", t5.lo * QuadRational(1, 0, 2), t5.lo),
                "T5: sign(-1,-1)",
                "",
            ),
        ]
        for intervals, failure, sturm in shifted:
            with pytest.raises(CertificationFailed) as on_r:
                certify_roots(pair, intervals, check_disjoint(intervals))
            with pytest.raises(CertificationFailed) as on_q:
                q_certify_roots(pair, intervals)
            assert str(on_r.value) == f"(p={p}, q={q}): {failure}"
            assert str(on_q.value) == f"(p={p}, q={q}): {failure}{sturm}"

    def test_negative_real_lower_end_refused(self):
        # at lo = -1 = -hi the two ends have one square, so the signs fail;
        # at lo = -1/3 they change, and the order 0 < T1.lo is what fails
        pair = PQPair(1, 59)
        ivs = asymptotic_intervals(pair)
        for lo, failure in (
            (quad(-1), "T1: sign(1,1)"),
            (quad(Fraction(-1, 3)), "order fails at 0 < T1.lo"),
        ):
            bad = _replaced(ivs, "T1", lo, ivs[0].hi)
            with pytest.raises(CertificationFailed) as failed:
                certify_roots(pair, bad, check_disjoint(bad))
            assert str(failed.value) == f"(p=1, q=59): {failure}"


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
        width_bound = Fraction(1, 10**12) * to_fraction(mid)
        # value changes sign within width_bound of the returned midpoint
        from oracles import eval_poly

        m = to_fraction(mid)
        assert eval_poly(qpoly, m - width_bound) * eval_poly(
            qpoly, m + width_bound
        ) <= 0
