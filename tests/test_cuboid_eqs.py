import math
import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cuboidsearch import cli, cuboid_eqs
from cuboidsearch.asymptotics import balanced_digits
from cuboidsearch.cuboid_eqs import (
    CASES,
    CuboidWitness,
    DegenerateDenominator,
    NotARoot,
    PQPair,
    VerificationFailed,
    compute_z,
    factorization_check,
    full_eq_coefficients,
    param_ratios,
    qpq_coefficients,
    qpq_value,
    reconstruct_cuboid,
)
from oracles import (
    QPQ_TERMS,
    build_full_eq,
    build_qpq,
    build_qpq_from_grid,
    eval_int,
    intpoly_factorization_check,
    is_even,
    literal_full_eq,
    poly,
    poly_mul,
)


class TestPQPair:
    def test_valid(self):
        pair = PQPair(3, 178)
        assert (pair.p, pair.q) == (3, 178)

    def test_equal_rejected(self):
        with pytest.raises(ValueError):
            PQPair(1, 1)

    def test_common_factor_rejected(self):
        with pytest.raises(ValueError):
            PQPair(2, 118)
        with pytest.raises(ValueError):
            PQPair(3, 177)

    def test_nonpositive_rejected(self):
        with pytest.raises(ValueError):
            PQPair(0, 5)
        with pytest.raises(ValueError):
            PQPair(3, -7)


class TestBuildQpq:
    def test_p1_q2_coefficients(self):
        P = build_qpq(PQPair(1, 2))
        assert P == (-1024, 0, 1920, 0, 2140, 0, 905, 0, 90, 0, 1)

    def test_value_at_one(self):
        assert qpq_value(1, 2, 1) == eval_int(build_qpq(PQPair(1, 2)), 1) == 4032

    def test_value_equals_oracle(self):
        # qpq_value, R(t^2) by Horner, against the 11 coefficients of Q, on
        # seeded pairs in either order and t from 0 to beyond (pq)^2
        rng = random.Random(2121)
        checked = 0
        while checked < 300:
            p, q = rng.randint(1, 500), rng.randint(1, 500)
            if p == q or math.gcd(p, q) != 1:
                continue
            P = build_qpq(PQPair(p, q))
            for t in (0, 1, rng.randint(2, 10**6), rng.randint(1, 2 * (p * q) ** 2)):
                assert qpq_value(p, q, t) == eval_int(P, t)
            assert qpq_value(p, q, 0) == -((p * q) ** 10)
            checked += 1

    def test_monic_even_degree_ten(self):
        P = build_qpq(PQPair(5, 7))
        assert len(P) - 1 == 10
        assert P[10] == 1
        assert is_even(P)

    def test_constant_term(self):
        for p, q in ((1, 2), (3, 4), (5, 8)):
            assert build_qpq(PQPair(p, q))[0] == -(p**10) * q**10

    def test_r_of_t_squared(self):
        for p, q in ((1, 2), (5, 7), (3, 178), (50, 5901)):
            P, R = build_qpq(PQPair(p, q)), qpq_coefficients(p, q) + (1,)
            assert len(R) - 1 == 5
            assert R == P[::2]
            for t in (1, 3, p * q):
                assert eval_int(R, t * t) == eval_int(P, t) == qpq_value(p, q, t)

    def test_grid_cross_check(self):
        for p, q in ((1, 2), (2, 3), (3, 178), (7, 415)):
            pair = PQPair(p, q)
            assert build_qpq(pair) == build_qpq_from_grid(pair)

    def test_grid_extreme_nodes(self):
        # highest monomial of each t-power row in the (p, q) grid
        assert QPQ_TERMS[10] == [(0, 0, 1)]
        assert (10, 10, -1) in QPQ_TERMS[0]
        assert (0, 4, 6) in QPQ_TERMS[8]
        assert (0, 8, 1) in QPQ_TERMS[6]


class TestFullEq:
    def test_monic_even_degree_twelve(self):
        P = build_full_eq(2, 3, 5)
        assert len(P) - 1 == 12
        assert P[12] == 1
        assert is_even(P)

    def test_constant_term(self):
        assert build_full_eq(2, 1, 4)[0] == (2 * 1 * 4) ** 4

    def test_unit_parameters(self):
        P = build_full_eq(1, 1, 1)
        assert P == (1, 0, 2, 0, -1, 0, -4, 0, -1, 0, 2, 0, 1)

    @settings(max_examples=200)
    @given(
        st.integers(min_value=1, max_value=10**6),
        st.integers(min_value=1, max_value=10**6),
        st.integers(min_value=1, max_value=10**6),
        st.booleans(),
    )
    def test_coefficients_match_literal_expansion(self, a, b, u, equal):
        if equal:
            b = a
        coeffs = full_eq_coefficients(a, b, u)
        literal = literal_full_eq(a, b, u)
        assert coeffs == literal[::2]
        assert build_full_eq(a, b, u) == literal
        # a and b enter only through a^2 + b^2 and a^2 b^2
        assert full_eq_coefficients(b, a, u) == coeffs

    def test_case_substitutions_give_one_polynomial(self):
        for p, q in ((1, 2), (2, 3), (3, 178), (41, 60)):
            polys = {
                full_eq_coefficients(p * q, p * p, q * q),
                full_eq_coefficients(p * p, p * q, q * q),
            }
            assert len(polys) == 1


# signed integers, with 0 and +-1 drawn often
signed = st.one_of(st.sampled_from([0, 1, -1]), st.integers(-10**12, 10**12))


class TestCoefficientFormulas:
    """The factored formulas against the term-by-term forms of tests/oracles:
    both are polynomial identities, so they hold on any integers, zero and
    negative ones included, not only on the pairs and parameters the
    package passes."""

    @settings(max_examples=300)
    @given(signed, signed)
    def test_qpq_matches_term_table(self, p, q):
        assert qpq_coefficients(p, q) == tuple(
            sum(c * p**i * q**j for i, j, c in QPQ_TERMS[m]) for m in range(0, 10, 2)
        )

    @settings(max_examples=300)
    @given(signed, signed, signed)
    def test_full_eq_matches_literal(self, a, b, u):
        assert full_eq_coefficients(a, b, u) == literal_full_eq(a, b, u)[::2]


class TestFactorization:
    def test_small_pairs(self):
        for p, q in ((1, 2), (2, 3), (1, 59), (3, 178)):
            assert factorization_check(p, q)

    def test_equals_intpoly_oracle(self):
        pairs = [
            PQPair(p, q)
            for q in range(2, 61) for p in range(1, q) if math.gcd(p, q) == 1
        ]
        assert len(pairs) == 1101
        rng = random.Random(707)
        while len(pairs) < 1101 + 200:
            p, q = rng.randint(1, 10**4), rng.randint(1, 10**4)
            if p != q and math.gcd(p, q) == 1:
                pairs.append(PQPair(p, q))
        for pair in pairs:
            assert factorization_check(*pair) is intpoly_factorization_check(pair) is True

    def test_identity_for_all_pairs_by_homogeneity(self):
        """README's theorem.  The t^(2k) coefficient of each side of the
        identity is homogeneous of degree 24 - 4k in (p, q), so their
        difference is H_k(p, q) = p^(24 - 4k) H_k(1, q/p), and the 25 pairs
        (1, q) with q = 2..26 prove the identity for every p != 0 and q.

        The degrees are read off exactly, as build_newton_grid reads Q's:
        at p = B^25 and q = B, with every coefficient below B/2 in absolute
        value and every power of q at most 24, the term c p^e q^r is the
        balanced base-B digit c at position 25e + r."""
        B = 2**16
        p, q = B**25, B
        Q = poly(x for c in qpq_coefficients(p, q) + (1,) for x in (c, 0))
        sides = {
            "(t^2 - p^2 q^2) Q": poly_mul(poly([-((p * q) ** 2), 0, 1]), Q)[::2],
            "degree-12 equation": full_eq_coefficients(p * q, p * p, q * q),
        }
        for side, coefficients in sides.items():
            assert len(coefficients) == 7
            for k, value in enumerate(coefficients):
                for e, chunk in balanced_digits(value, B**25):
                    for r, c in balanced_digits(chunk, B):
                        assert e + r == 24 - 4 * k, (side, k, c, e, r)
        assert all(factorization_check(1, q) for q in range(2, 27))

    @pytest.mark.parametrize("index", range(5))
    def test_altered_coefficient_detected(self, monkeypatch, index):
        real = cuboid_eqs.qpq_coefficients

        def altered(p, q):
            coeffs = list(real(p, q))
            coeffs[index] += 1
            return tuple(coeffs)

        monkeypatch.setattr(cuboid_eqs, "qpq_coefficients", altered)
        assert not factorization_check(1, 2)
        assert not intpoly_factorization_check(PQPair(1, 2))

    def test_both_cases_used(self, monkeypatch):
        """Each case reconstructs through its own (a, b): bu = a^2 from
        (pq, p^2) and au = b^2 from (p^2, pq), both with u = q^2.  A root
        t = 12 is planted for (3, 2), where pq != p^2, and the equation
        check is waived, so the witnesses are the parametrization's."""
        p, q, t = 3, 2, 12
        real = cuboid_eqs.qpq_coefficients
        monkeypatch.setattr(
            cuboid_eqs, "qpq_coefficients",
            lambda p_, q_: (-144, -575, -860, -570, -140)
            if (p_, q_) == (p, q) else real(p_, q_),
        )
        monkeypatch.setattr(cuboid_eqs, "_check_cuboid_equations", lambda *v: True)
        ratios = {}
        for case, (a, b) in zip(CASES, ((p * q, p * p), (p * p, p * q))):
            alpha, beta, upsilon = Fraction(a, t), Fraction(b, t), Fraction(q * q, t)
            expected = param_ratios(upsilon, compute_z(upsilon, alpha, beta), alpha, beta)
            w = reconstruct_cuboid(p, q, t, case)
            assert (w.p, w.q, w.t, w.case) == (p, q, t, case)
            ratios[case] = tuple(Fraction(v, w.L) for v in w.septuple()[:6])
            assert ratios[case] == expected
        assert ratios["BU_EQ_A2"] != ratios["AU_EQ_B2"]


class TestParamRatios:
    def test_basic_values(self):
        x1, _, _, d1, _, _ = param_ratios(
            Fraction(1, 2), Fraction(1, 3), Fraction(0), Fraction(0)
        )
        assert x1 == Fraction(4, 5)
        assert d1 == Fraction(3, 5)

    def test_pythagorean_identities_random(self):
        rng = random.Random(99)
        checked = 0
        while checked < 100:
            vals = [
                Fraction(rng.randint(-20, 20), rng.randint(1, 20)) for _ in range(4)
            ]
            upsilon, z, alpha, beta = vals
            if 1 + upsilon**2 == 0 or 1 + z**2 == 0:
                continue
            x1, x2, x3, d1, _, _ = param_ratios(upsilon, z, alpha, beta)
            assert x2**2 + x3**2 == d1**2
            assert x1**2 + d1**2 == 1
            checked += 1


class TestComputeZ:
    def test_example(self):
        z = compute_z(Fraction(1, 2), Fraction(1, 3), Fraction(1, 5))
        expected = (
            Fraction(5, 4)
            * Fraction(24, 25)
            * Fraction(10, 9)
            / (2 * Fraction(26, 25) * Fraction(35, 36))
        )
        assert z == expected

    def test_zero_parameters(self):
        assert compute_z(Fraction(0), Fraction(0), Fraction(0)) == Fraction(1, 2)

    def test_degenerate(self):
        with pytest.raises(DegenerateDenominator):
            compute_z(Fraction(1), Fraction(1), Fraction(1, 7))
        with pytest.raises(DegenerateDenominator):
            compute_z(Fraction(3), Fraction(1, 3), Fraction(0))


class TestCuboidPredicate:
    """The three checks of a candidate (p, q, t), as `verify` makes them."""

    @staticmethod
    def verify(capsys, p, q, t):
        code = cli.main(["verify", "--p", str(p), "--q", str(q), "--t", str(t)])
        captured = capsys.readouterr()
        return code, captured.out, captured.err

    def test_no_roots_small_range(self, capsys):
        for t in range(5, 61):
            code, out, _ = self.verify(capsys, 1, 2, t)
            assert code == cli.EXIT_OK
            assert out.startswith("Q(t) = ") and "(nonzero: not a root)\n" in out
            assert out.endswith("verdict: not a perfect cuboid\n")

    def test_below_q_squared_rejected(self, capsys):
        # even a root of the polynomial would be rejected below q^2
        code, out, _ = self.verify(capsys, 1, 8, 60)
        assert code == cli.EXIT_OK
        assert "lower bounds t > p^2, pq, q^2: FAIL\n" in out
        assert out.endswith("verdict: not a perfect cuboid\n")

    def test_positive_t_required(self, capsys):
        code, out, err = self.verify(capsys, 1, 2, 0)
        assert code == cli.EXIT_BAD_FLAGS
        assert out == "" and err == "error: t must be positive\n"


class TestReconstruct:
    def test_not_a_root(self):
        # t = pq kills the discarded quadratic factor, not the degree-10 one
        with pytest.raises(NotARoot):
            reconstruct_cuboid(1, 2, 2, "BU_EQ_A2")
        with pytest.raises(NotARoot):
            reconstruct_cuboid(1, 2, 7, "AU_EQ_B2")

    @pytest.mark.parametrize("case", ["XX", "bu_eq_a2", "", None, []],
                             ids=["unknown", "lower-case", "empty", "null", "list"])
    def test_unknown_case_refused(self, case):
        # checked before the root (NotARoot is a ValueError too)
        with pytest.raises(ValueError, match="case must be one of"):
            reconstruct_cuboid(3, 2, 12, case)

    @pytest.mark.parametrize("t", [0, -12])
    def test_positive_t_required(self, t):
        with pytest.raises(ValueError, match="^t must be positive$"):
            reconstruct_cuboid(3, 2, t, "BU_EQ_A2")

    @pytest.mark.parametrize("case", CASES)
    def test_failed_equations_refused(self, monkeypatch, planted, case):
        # a root whose scaled septuple fails the cuboid equations
        monkeypatch.setattr(cuboid_eqs, "_check_cuboid_equations", lambda *e: False)
        message = rf"^septuple for \(p=3, q=2, t=12, {case}\) violates the cuboid"
        with pytest.raises(VerificationFailed, match=message):
            reconstruct_cuboid(3, 2, 12, case)

    def test_reduced_divides_out_the_common_factor(self):
        witness = CuboidWitness(3, 2, 12, "BU_EQ_A2", 6, 12, 18, 24, 30, 36, 42)
        assert witness.septuple() == (6, 12, 18, 24, 30, 36, 42)
        assert witness.reduced() == (1, 2, 3, 4, 5, 6, 7)
        assert witness._replace(x1=5).reduced() == (5, 12, 18, 24, 30, 36, 42)

    def test_checker_detects_fake_septuple(self):
        from cuboidsearch.cuboid_eqs import _check_cuboid_equations

        assert _check_cuboid_equations(44, 117, 240, 267, 244, 125, 270) is False
        # the smallest Euler brick: all but the space diagonal hold
        assert _check_cuboid_equations(44, 117, 240, 267, 244, 125, 271) is False

    # The perfect body cuboid: edges 104, 153 and 672, space diagonal 697,
    # face diagonals 185 (104, 153) and 680 (104, 672).  Its 153-672 face
    # diagonal, about 689.2, is irrational, so a septuple that gives it as
    # 689 fails that face's equation, and only that one.  The Euler brick
    # above fails the first equation alone.
    @pytest.mark.parametrize("septuple, clause", [
        ((104, 153, 672, 689, 680, 185, 698), 1),
        ((104, 153, 672, 689, 680, 185, 697), 2),
        ((153, 104, 672, 680, 689, 185, 697), 3),
        ((153, 672, 104, 680, 185, 689, 697), 4),
    ], ids=["space-diagonal", "d1", "d2", "d3"])
    def test_checker_fails_at_each_clause(self, septuple, clause):
        x1, x2, x3, d1, d2, d3, L = septuple
        holds = [
            x1**2 + x2**2 + x3**2 == L**2,
            x2**2 + x3**2 == d1**2,
            x3**2 + x1**2 == d2**2,
            x1**2 + x2**2 == d3**2,
        ]
        assert holds.index(False) + 1 == clause
        assert cuboid_eqs._check_cuboid_equations(*septuple) is False

    def test_checker_passes_a_degenerate_cuboid(self):
        assert cuboid_eqs._check_cuboid_equations(0, 3, 4, 5, 4, 3, 5) is True
