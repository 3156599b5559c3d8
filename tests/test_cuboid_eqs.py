import math
import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cuboidsearch import cli, cuboid_eqs
from cuboidsearch.cuboid_eqs import (
    QPQ_TERMS,
    CaseTag,
    DegenerateDenominator,
    FullEqParams,
    NotARoot,
    PQPair,
    build_rpq,
    compute_z,
    factorization_check,
    full_eq_coefficients,
    param_ratios,
    qpq_value,
    reconstruct_cuboid,
)
from oracles import (
    build_full_eq,
    build_qpq,
    build_qpq_from_grid,
    eval_int,
    intpoly_factorization_check,
    is_even,
    literal_full_eq,
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
            P, R = build_qpq(PQPair(p, q)), build_rpq(PQPair(p, q))
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
        P = build_full_eq(FullEqParams(2, 3, 5))
        assert len(P) - 1 == 12
        assert P[12] == 1
        assert is_even(P)

    def test_constant_term(self):
        assert build_full_eq(FullEqParams(2, 1, 4))[0] == (2 * 1 * 4) ** 4

    def test_unit_parameters(self):
        P = build_full_eq(FullEqParams(1, 1, 1))
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
        literal = literal_full_eq(FullEqParams(a, b, u))
        assert coeffs == literal[::2]
        assert build_full_eq(FullEqParams(a, b, u)) == literal
        # a and b enter only through a^2 + b^2 and a^2 b^2
        assert full_eq_coefficients(b, a, u) == coeffs

    def test_case_substitutions_give_one_polynomial(self):
        for p, q in ((1, 2), (2, 3), (3, 178), (41, 60)):
            polys = {full_eq_coefficients(*tag.params(p, q)) for tag in CaseTag}
            assert len(polys) == 1


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

    def test_both_cases_used(self):
        p, q = 2, 5
        params = {tag: tag.params(p, q) for tag in CaseTag}
        assert params[CaseTag.BU_EQ_A2].a == p * q
        assert params[CaseTag.BU_EQ_A2].b == p * p
        assert params[CaseTag.AU_EQ_B2].a == p * p
        assert params[CaseTag.AU_EQ_B2].b == p * q
        assert all(pr.u == q * q for pr in params.values())


class TestParamRatios:
    def test_basic_values(self):
        r = param_ratios(Fraction(1, 2), Fraction(1, 3), Fraction(0), Fraction(0))
        assert r.x1 == Fraction(4, 5)
        assert r.d1 == Fraction(3, 5)

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
            r = param_ratios(upsilon, z, alpha, beta)
            assert r.x2**2 + r.x3**2 == r.d1**2
            assert r.x1**2 + r.d1**2 == 1
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
            reconstruct_cuboid(1, 2, 2, CaseTag.BU_EQ_A2)
        with pytest.raises(NotARoot):
            reconstruct_cuboid(1, 2, 7, CaseTag.AU_EQ_B2)

    def test_checker_detects_fake_septuple(self):
        from cuboidsearch.cuboid_eqs import _check_cuboid_equations

        assert _check_cuboid_equations(44, 117, 240, 267, 244, 125, 270) is False
        # the classic body cuboid: all but the space diagonal hold
        assert _check_cuboid_equations(44, 117, 240, 267, 244, 125, 271) is False
