import errno
import json
import math
import os
import random
import signal
import tracemalloc
from itertools import accumulate
from types import SimpleNamespace

import pytest

from cuboidsearch import cli, search
from cuboidsearch.cuboid_eqs import CASES, PQPair, qpq_coefficients
from cuboidsearch.search import (
    CHECKPOINT_VERSION,
    OBSTRUCTION_PRIMES,
    ResumeMismatch,
    SearchCheckpoint,
    SearchConfig,
    SearchTally,
    pair_candidates,
    pair_count,
    pair_count_sum,
    q_limit,
    ratio_table,
    run_search,
    sieve_pairs,
    t_bounds,
    use_pool,
)
from oracles import (
    admissible_hits,
    bisect_q_limit,
    brute_ratio_table,
    build_qpq,
    divisor_candidates,
    eval_int,
    eval_mod,
    exact_prime_powers,
    literal_t_bounds,
    modular_sieve,
    obstruction_witness,
    oracle_candidates,
    oracle_hits,
    oracle_roots,
    pairs_for_p,
    poly_sub,
    q_cap,
    scan_pair,
    sieve_survivors,
    slice_sieve_pairs,
    valuation_candidates,
)


def make_config(tmp_path, name="a", **kw):
    defaults = dict(
        p_min=1,
        p_max=5,
        checkpoint_path=str(tmp_path / f"{name}.ckpt"),
        output_path=str(tmp_path / f"{name}.jsonl"),
    )
    defaults.update(kw)
    return SearchConfig(**defaults)


def valuation(n, prime):
    """v_prime(n) for n != 0."""
    v = 0
    while n % prime == 0:
        n //= prime
        v += 1
    return v


def hit_key(w):
    return (w.p, w.q, w.t, w.case)


def kernel_counts(p):
    """(pairs_examined, pairs_nonempty, pairs_obstructed,
    candidates_evaluated, hits) of the search kernel for one p."""
    _, tally = search._scan_p(p)
    return (*tally[:4], tuple(tally.hits))


def capped_pairs(p):
    """The nonempty pairs of p: coprime q < q_cap(p), q != p."""
    return [
        PQPair(p, q)
        for q in range(1, q_cap(p))
        if q != p and math.gcd(p, q) == 1
    ]


class TestBounds:
    def test_empty_range(self):
        assert t_bounds(1, 2) is None
        assert t_bounds(1, 8) is None

    def test_p3_q2(self):
        assert t_bounds(3, 2) == (10, 17)

    def test_upper_bound_exact(self):
        # largest t with (2t - p^2 - pq)^2 < p^2 (p^2 + 6pq + q^2)
        p, q = 3, 2
        _, hi = t_bounds(p, q)
        D = p * p * (p * p + 6 * p * q + q * q)

        def strict(t):
            lhs = 2 * t - p * p - p * q
            return lhs < 0 or lhs * lhs < D

        assert strict(hi) and not strict(hi + 1)

    def test_lower_bound_dominates(self):
        lo, hi = t_bounds(5, 4)
        assert lo == 26
        assert hi <= 61 * 25 - 1

    def test_closed_form_matches_definition_p_le_60(self):
        # lo = max(p^2, pq, q^2) + 1 and hi the largest t with
        # 2t - A < 0 or (2t - A)^2 < D; strict() is monotone in t, so a
        # None range means it already fails at lo.  For (2, 3),
        # p^2 + 6pq + q^2 = 49: (A + isqrt(D)) // 2 = 12 would admit t = 12,
        # where (2t - A)^2 = D.
        assert t_bounds(2, 3) == (10, 11)
        for p in range(1, 61):
            for pair in pairs_for_p(p):
                q = pair.q
                A = p * p + p * q
                D = p * p * (p * p + 6 * p * q + q * q)

                def strict(t):
                    return 2 * t - A < 0 or (2 * t - A) ** 2 < D

                lo = max(p * p, p * q, q * q) + 1
                bounds = t_bounds(p, q)
                if bounds is None:
                    assert not strict(lo)
                else:
                    assert bounds[0] == lo
                    assert strict(bounds[1]) and not strict(bounds[1] + 1)

    def test_literal_bound_never_binds_p_le_200(self):
        # every walked pair has q < 2p and a range inside the paper's
        # literal one, and the search inequality holds at both ends of the
        # range.  It holds exactly on (r_-, r(q)) with r_- < 0, so it holds
        # on the whole range and the kernel does not re-check it.
        for p in range(1, 201):
            for pair in capped_pairs(p):
                q = pair.q
                lo, hi = t_bounds(p, q)
                assert q < 2 * p
                literal_lo, literal_hi = literal_t_bounds(p, q)
                assert literal_lo == lo and hi <= literal_hi
                for t in (lo, hi):
                    assert (p * p + t) * (p * q + t) > 2 * t * t


class TestSieve:
    """The residue sieves survive as a test oracle (tests/oracles.py)."""

    def test_mod2(self):
        assert modular_sieve(PQPair(1, 2), 2) == frozenset({0, 1})

    def test_size_bounded(self):
        for m in (7, 25, 64):
            assert len(modular_sieve(PQPair(3, 4), m)) <= m

    def test_soundness_against_fabricated_root(self):
        # an integer root of any integer polynomial survives every sieve
        qpoly = build_qpq(PQPair(3, 2))
        shifted = poly_sub(qpoly, (eval_int(qpoly, 12),))
        assert eval_int(shifted, 12) == 0
        for m in (7, 11, 64):
            residues = frozenset(
                r for r in range(m) if eval_mod(shifted, r, m) == 0
            )
            assert 12 % m in residues

    def test_rejects_modulus_one(self):
        with pytest.raises(ValueError):
            modular_sieve(PQPair(1, 2), 1)


class TestDivisorCandidates:
    """The divisor generator survives as a test oracle (tests/oracles.py)."""

    def test_p3_q2_range(self):
        assert divisor_candidates(PQPair(3, 2), 10, 17) == [12, 16]

    def test_contains_all_divisors_in_range(self):
        p, q = 2, 5
        n = (p * q) ** 10
        expected = [t for t in range(30, 200) if n % t == 0]
        assert divisor_candidates(PQPair(p, q), 30, 199) == expected


class TestValuationCandidates:
    def test_exact_prime_powers(self):
        assert exact_prime_powers(1) == []
        assert exact_prime_powers(360) == [8, 9, 5]

    def test_p3_q2_range(self):
        # 6 = 2 * 3: products of {1, 2, 4} and {1, 3, 9} in [10, 17]
        assert valuation_candidates(exact_prime_powers(6), 10, 17) == [12]

    def test_divisors_with_admissible_valuations(self):
        # exactly the divisors of (pq)^10 in range whose l-adic valuation
        # is 0, e or 2e for every l^e exactly dividing pq
        for p in range(1, 31):
            for pair in capped_pairs(p):
                lo, hi = literal_t_bounds(pair.p, pair.q)
                factors = search._prime_factors(pair.p * pair.q)
                expected = [
                    t for t in divisor_candidates(pair, lo, hi)
                    if all(
                        valuation(t, prime) in (0, e, 2 * e)
                        for prime, e in factors.items()
                    )
                ]
                parts = exact_prime_powers(pair.p * pair.q)
                assert valuation_candidates(parts, lo, hi) == expected

    def test_other_divisors_provably_not_roots(self):
        # For a divisor t of (pq)^10 with v_l(t) outside {0, e, 2e}, the
        # smallest valuation among the terms c_i t^i is attained once, so
        # v_l(Q(t)) equals it and Q(t) != 0.  Checked on every such divisor.
        checked = 0
        for p in range(1, 21):
            for pair in capped_pairs(p):
                lo, hi = t_bounds(pair.p, pair.q)
                coeffs = build_qpq(pair)
                keep = set(valuation_candidates(
                    exact_prime_powers(pair.p * pair.q), lo, hi
                ))
                for t in divisor_candidates(pair, lo, hi):
                    if t in keep:
                        continue
                    factors = search._prime_factors(pair.p * pair.q)
                    prime = next(
                        l for l, e in factors.items()
                        if valuation(t, l) not in (0, e, 2 * e)
                    )
                    terms = [
                        valuation(c, prime) + i * valuation(t, prime)
                        for i, c in enumerate(coeffs) if c
                    ]
                    least = min(terms)
                    assert terms.count(least) == 1
                    assert valuation(eval_int(build_qpq(pair), t), prime) == least
                    checked += 1
        assert checked > 100


class TestKernel:
    def test_candidates_match_oracle_p_le_120(self):
        # the kernel's candidates equal the per-pair generator on every
        # coprime pair with p <= 120
        nonempty = 0
        for p in range(1, 121):
            for q in range(1, 59 * p):
                if q == p or math.gcd(p, q) != 1:
                    continue
                bounds = t_bounds(p, q)
                if bounds is None:
                    continue
                nonempty += 1
                got = pair_candidates(p, q, *bounds)
                assert sorted(got) == valuation_candidates(
                    exact_prime_powers(p) + exact_prime_powers(q), *bounds
                )
        assert nonempty > 8000

    def test_recorded_counters(self, tmp_path, monkeypatch):
        # without the obstruction sieve every nonempty pair gets candidates
        monkeypatch.setattr(search, "OBSTRUCTION_PRIMES", ())
        report = run_search(make_config(tmp_path, p_max=200))
        assert (
            report.pairs_examined, report.pairs_nonempty,
            report.candidates_evaluated, len(report.hits),
        ) == (721_686, 22_496, 42_826, 0)
        assert report.pairs_obstructed == 0

    def test_recorded_sieved_counters(self, tmp_path):
        # the sieve rules out every nonempty pair with p <= 200
        report = run_search(make_config(tmp_path, p_max=200))
        assert (
            report.pairs_examined, report.pairs_nonempty,
            report.pairs_obstructed, report.candidates_evaluated,
            len(report.hits),
        ) == (721_686, 22_496, 22_496, 0, 0)


class TestNewtonHull:
    def test_coefficient_valuations_p_le_200(self):
        # exact v_l(c_i) for every walked pair with p <= 200 and every prime
        # l | pq, and their lower hull: vertices (0, 10e), (4, 2e), (6, 0),
        # (10, 0), slopes -2e, -e, 0
        hulls = 0
        for p in range(1, 201):
            for pair in capped_pairs(p):
                c = build_qpq(pair)
                for prime, e in search._prime_factors(pair.p * pair.q).items():
                    in_p = pair.p % prime == 0
                    v = {i: valuation(c[i], prime) for i in range(0, 11, 2)}
                    assert v == {
                        0: 10 * e,
                        2: 6 * e + (prime == 2) + (prime == 3 and not in_p),
                        4: 2 * e,
                        6: 0,
                        8: (prime == 2) + (prime == 3 and in_p),
                        10: 0,
                    }
                    hull = {0: 10 * e, 2: 6 * e, 4: 2 * e, 6: 0, 8: 0, 10: 0}
                    assert all(v[i] >= hull[i] for i in v)
                    hulls += 1
        assert hulls > 40000


class TestQCap:
    def test_same_nonempty_pairs_as_full_walk(self):
        for p in range(1, 121):
            full = [pair for pair in pairs_for_p(p) if t_bounds(pair.p, pair.q)]
            capped = [pair for pair in capped_pairs(p) if t_bounds(pair.p, pair.q)]
            assert capped == full
            assert q_cap(p) < 59 * p
            assert kernel_counts(p)[1] == len(full)

    def test_tribonacci_ratio(self):
        # q_cap / p approaches the real root 1.8393 of c^3 = c^2 + c + 1
        assert all(q_cap(p) <= 1.84 * p + 1 for p in range(1, 400))
        assert q_cap(1000) == 1840


def odd_primes_below(n):
    return [
        l for l in range(3, n, 2)
        if all(l % d for d in range(3, math.isqrt(l) + 1, 2))
    ]


def q_poly(p, q):
    """Q(t; p, q) as a coefficient tuple, for any integers p and q."""
    c0, c2, c4, c6, c8 = qpq_coefficients(p, q)
    return (c0, 0, c2, 0, c4, 0, c6, 0, c8, 0, 1)


class TestObstruction:
    def test_prime_list(self):
        assert OBSTRUCTION_PRIMES == tuple(odd_primes_below(200))

    def test_homogeneity(self):
        # the t^(2k) coefficient is homogeneous of degree 20 - 4k in (p, q),
        # so Q(p^2 tau; p, p x) = p^20 Q(tau; 1, x)
        for p in range(1, 30):
            for x in range(-5, 40):
                base = qpq_coefficients(1, x)
                assert qpq_coefficients(p, p * x) == tuple(
                    p ** (20 - 4 * k) * c for k, c in enumerate(base)
                )

    def test_tables_match_direct_evaluation_l_lt_100(self):
        # x is in B_l exactly when Q(tau; 1, x) has no root mod l, with Q
        # evaluated at every residue tau
        for l in odd_primes_below(100):
            polys = {x: q_poly(1, x) for x in range(1, l)}
            no_root = tuple(
                x for x, poly in polys.items()
                if all(eval_mod(poly, tau, l) for tau in range(l))
            )
            assert ratio_table(l) == no_root
        assert [len(ratio_table(l)) for l in (3, 5, 7, 11, 13)] == [0, 0, 0, 8, 4]

    def test_tables_match_brute_force(self):
        # the stored masks and the tables read off them against R evaluated
        # at every nonzero square for every x; on a mismatch the message is
        # the line to paste into search._RATIO_MASKS
        for l in OBSTRUCTION_PRIMES:
            table = brute_ratio_table(l)
            mask = sum(1 << x for x in table)
            line = f"    {l}: {mask:#x},"
            assert search._RATIO_MASKS[l] == mask, line
            assert ratio_table(l) == table, line

    def test_stored_masks(self):
        # bit x stands for x in 1..l-1: bit 0 is clear (0 is never in B_l)
        # and no bit reaches l; B_3, B_5 and B_7 are empty
        for l, mask in search._RATIO_MASKS.items():
            assert mask & 1 == 0 and mask >> l == 0, l
        assert [search._RATIO_MASKS[l] for l in (3, 5, 7)] == [0, 0, 0]
        assert [ratio_table(l) for l in (3, 5, 7)] == [(), (), ()]

    def test_tables_decide_each_pair_p_le_12(self):
        # for l not dividing p, q / p mod l is in B_l exactly when
        # Q(t; p, q) has no root mod l
        cases = 0
        for p in range(1, 13):
            for pair in capped_pairs(p):
                for l in OBSTRUCTION_PRIMES:
                    if p % l:
                        x = pair.q * pow(p, -1, l) % l
                        assert (x in ratio_table(l)) == (not modular_sieve(pair, l))
                        cases += 1
        assert cases > 3000

    def test_witnesses_large_p(self):
        # a seeded sample of nonempty pairs with p in 10^4..10^5, checked
        # with no table and no homogeneity: Q(t; p, q) mod l, evaluated at
        # every t, has no root for some l in the list, and for each l up to
        # that witness that does not divide p the table agrees with it
        rng = random.Random(1999)
        witnesses = []
        while len(witnesses) < 200:
            p = rng.randrange(10**4, 10**5 + 1)
            q = rng.randrange(1, q_limit(p) + 1)
            if q == p or math.gcd(p, q) != 1:
                continue
            pair = PQPair(p, q)
            assert t_bounds(p, q)
            witness = obstruction_witness(pair, OBSTRUCTION_PRIMES)
            assert witness is not None and p % witness
            for l in OBSTRUCTION_PRIMES[:OBSTRUCTION_PRIMES.index(witness) + 1]:
                if p % l:
                    x = q * pow(p, -1, l) % l
                    assert (x in ratio_table(l)) == (not modular_sieve(pair, l))
            witnesses.append(witness)
        assert len(set(witnesses)) > 3

    def test_split_r_has_a_square_root(self):
        # R(u; 1, x) is monic of degree 5 with constant term -x^10, so its
        # roots, with multiplicity, multiply to x^10, a square.  When R
        # splits into 5 linear factors mod l, its roots cannot all be
        # nonsquares, so Q(tau; 1, x) has a root mod l and x is not in B_l.
        # The roots are found by synthetic division, with no table.
        split = distinct = 0
        for l in OBSTRUCTION_PRIMES:
            squares = {u * u % l for u in range(1, l)}
            for x in range(1, l):
                c0, c2, c4, c6, c8 = (c % l for c in qpq_coefficients(1, x))
                assert c0 == -x**10 % l != 0
                poly, roots = [1, c8, c6, c4, c2, c0], []
                for u in range(1, l):
                    if (((((u + c8) * u + c6) * u + c4) * u + c2) * u + c0) % l:
                        continue
                    while True:
                        *quotient, rem = accumulate(
                            poly, lambda acc, c: (acc * u + c) % l
                        )
                        if rem:
                            break
                        poly = quotient
                        roots.append(u)
                if len(roots) == 5:
                    split += 1
                    distinct += len(set(roots)) == 5
                    assert squares.intersection(roots)
                    assert x not in ratio_table(l)
        assert split > distinct > 0

    def test_tables_closed_under_inverse(self):
        # checked on the brute-force tables, which use no symmetry
        for l in OBSTRUCTION_PRIMES:
            table = set(brute_ratio_table(l))
            assert {pow(x, -1, l) for x in table} == table

    def test_tables_closed_under_negation(self):
        # Q depends on q only through q^2, so B_l is closed under x -> l - x;
        # checked on the brute-force tables, which use no symmetry
        for l in OBSTRUCTION_PRIMES:
            table = set(brute_ratio_table(l))
            assert {l - x for x in table} == table
        for x in range(-20, 21):
            assert qpq_coefficients(3, x) == qpq_coefficients(3, -x)

    def test_swap_symmetry(self):
        # the identity behind the closure of B_l under x -> 1/x:
        # Q(t; q, p) = -t^10 Q((pq)^2 / t; p, q) / (pq)^10, so with
        # Q(t; p, q) = sum a_j t^j the coefficient of t^(10 - j) in
        # Q(t; q, p) is -a_j (pq)^(2j - 10)
        checked = 0
        for p in range(1, 16):
            for q in range(1, 16):
                if p == q or math.gcd(p, q) != 1:
                    continue
                a = build_qpq(PQPair(p, q))
                b = build_qpq(PQPair(q, p))
                m = p * q
                for j in range(11):
                    assert b[10 - j] * m**10 == -a[j] * m ** (2 * j)
                checked += 1
        assert checked > 100

    def test_q_limit(self):
        assert q_limit(1) == 1
        assert all(q_limit(p) == q_cap(p) - 1 for p in range(1, 401))

    def test_q_limit_matches_bisection(self):
        # q_limit walks from 1.839286755214161 p rounded down; the sample
        # must take the walk down (the start one too high, as at p = 6 and
        # 56) and the walk up (the start too low, only from about p = 10^15)
        rng = random.Random(1771)
        sample = list(range(1, 10**4 + 1))
        sample += [rng.randrange(10**4, 10**7 + 1) for _ in range(300)]
        sample += [10**16 + 7, 10**18 + 3]
        down = up = 0
        for p in sample:
            cap = bisect_q_limit(p)
            assert q_limit(p) == cap, p
            start = p * 1839286755214161 // 10**15
            down += start > cap
            up += start < cap
        assert down > 0 and up > 0

    @pytest.mark.parametrize("primes", [OBSTRUCTION_PRIMES, (3, 5, 7, 11, 13)],
                             ids=["all", "short"])
    def test_survivors_match_oracle_p_le_200(self, monkeypatch, primes):
        monkeypatch.setattr(search, "OBSTRUCTION_PRIMES", primes)
        survived = 0
        for p in range(1, 201):
            nonempty, survivors = sieve_pairs(p, search._prime_factors(p))
            assert nonempty == len(capped_pairs(p))
            assert survivors == sieve_survivors(p, primes)
            assert (nonempty, survivors) == slice_sieve_pairs(p, primes)
            survived += len(survivors)
        assert survived == (0 if primes == OBSTRUCTION_PRIMES else 5350)

    def test_sieve_matches_slice_oracle_large_p(self, monkeypatch):
        # with the short list over a thousand q survive each p, so the
        # survivors are read out of a live int of up to about 1.8 * 10^5 bits
        rng = random.Random(1913)
        sample = sorted(rng.sample(range(1000, 100001), 12))
        for p in sample:
            assert sieve_pairs(p, search._prime_factors(p)) == slice_sieve_pairs(
                p, OBSTRUCTION_PRIMES
            )
        short = (3, 5, 7, 11, 13)
        monkeypatch.setattr(search, "OBSTRUCTION_PRIMES", short)
        survived = []
        for p in sample:
            nonempty, survivors = sieve_pairs(p, search._prime_factors(p))
            assert (nonempty, survivors) == slice_sieve_pairs(p, short)
            survived.append(len(survivors))
        assert min(survived) > 1000

    def test_pairs_left_by_primes_below_100(self, monkeypatch):
        # two mirror pairs, the only ones up to p = 10^4 that the primes
        # below 100 leave; l = 101 rules both out
        primes = tuple(odd_primes_below(100))
        monkeypatch.setattr(search, "OBSTRUCTION_PRIMES", primes)
        for p, q in [(6831, 7553), (7553, 6831)]:
            nonempty, survivors = sieve_pairs(p, search._prime_factors(p))
            assert survivors == [q]
            assert (nonempty, survivors) == slice_sieve_pairs(p, primes)
            assert obstruction_witness(PQPair(p, q), OBSTRUCTION_PRIMES) == 101

    def test_survivors_get_candidates(self, tmp_path, monkeypatch):
        # with a short prime list some pairs survive, and exactly their
        # valuation candidates are evaluated
        monkeypatch.setattr(search, "OBSTRUCTION_PRIMES", (3, 5, 7, 11))
        report = run_search(make_config(tmp_path, p_max=40))
        survivors = [
            PQPair(p, q) for p in range(1, 41)
            for q in sieve_survivors(p, (3, 5, 7, 11))
        ]
        assert report.pairs_obstructed == report.pairs_nonempty - len(survivors)
        assert report.candidates_evaluated == sum(
            len(valuation_candidates(
                exact_prime_powers(pair.p * pair.q), *t_bounds(pair.p, pair.q)
            ))
            for pair in survivors
        ) > 0

    def test_every_pair_of_p_3_ruled_out(self):
        assert sieve_pairs(3, [3]) == (len(capped_pairs(3)), [])

    def test_no_table_fetched_once_no_q_is_left(self, monkeypatch):
        # the last l whose table is fetched is the one that leaves no q: a
        # resumed run must not decode tables that the sieve no longer needs
        fetched = []
        real_table = search.ratio_table
        monkeypatch.setattr(
            search, "ratio_table", lambda l: fetched.append(l) or real_table(l)
        )
        assert sieve_pairs(1, []) == (0, []) and fetched == []
        for p in range(2, 61):
            fetched.clear()
            primes = search._prime_factors(p)
            assert sieve_pairs(p, primes)[1] == []
            last = OBSTRUCTION_PRIMES.index(fetched[-1])
            for cut, left in ((last, True), (last + 1, False)):
                monkeypatch.setattr(
                    search, "OBSTRUCTION_PRIMES", OBSTRUCTION_PRIMES[:cut]
                )
                assert bool(sieve_pairs(p, primes)[1]) == left, (p, cut)
            monkeypatch.setattr(search, "OBSTRUCTION_PRIMES", OBSTRUCTION_PRIMES)
        fetched.clear()
        for p in range(27, 41):
            sieve_pairs(p, search._prime_factors(p))
        assert max(fetched) == 29


class TestPairCount:
    def test_closed_form(self):
        for p in range(1, 201):
            assert pair_count(p, search._prime_factors(p)) == len(pairs_for_p(p))

    def test_sum_matches_each_p(self):
        # the segmented totient sieve against pair_count p by p, on ranges
        # from p = 1 (where 57 replaces 59), within one block and across
        # the block edge at 2^16
        rng = random.Random(3301)
        ranges = [(1, 1), (1, 26), (5, 777), (99801, 99900), (65530, 65542)]
        for _ in range(20):
            lo = rng.randrange(1, 2 * 10**5)
            ranges.append((lo, lo + rng.randrange(0, 400)))
        for lo, hi in ranges:
            assert pair_count_sum(lo, hi) == sum(
                pair_count(p, search._prime_factors(p)) for p in range(lo, hi + 1)
            ), (lo, hi)


class TestScanPair:
    def test_empty_pair(self):
        result = scan_pair(PQPair(1, 2))
        assert (result.nonempty, result.candidates_evaluated, result.hits) == (
            False, 0, ()
        )

    def test_counts_add_up(self, tmp_path, monkeypatch):
        # without the obstruction sieve, the kernel's counters equal those
        # of the full pairs_for_p walk
        monkeypatch.setattr(search, "OBSTRUCTION_PRIMES", ())
        report = run_search(make_config(tmp_path, p_max=12))
        scans = [
            scan_pair(pair)
            for p in range(1, 13)
            for pair in pairs_for_p(p)
        ]
        assert report.pairs_examined == len(scans)
        assert report.pairs_nonempty == sum(s.nonempty for s in scans)
        assert report.candidates_evaluated == sum(
            s.candidates_evaluated for s in scans
        )
        assert report.candidates_evaluated == sum(
            len(valuation_candidates(
                exact_prime_powers(pair.p * pair.q), *t_bounds(pair.p, pair.q)
            ))
            for p in range(1, 13)
            for pair in capped_pairs(p)
        )

    def test_mode_equivalence_small(self):
        # kernel and per-pair pipeline against the old scan and divisor
        # paths, sieved
        for p in range(1, 6):
            expected = []
            for pair in pairs_for_p(p):
                hits = scan_pair(pair).hits
                assert oracle_hits(pair, "scan") == hits
                assert oracle_hits(pair, "divisor") == hits
                expected.extend(hits)
            assert kernel_counts(p)[-1] == tuple(sorted(expected, key=hit_key))

    def test_sieve_soundness_small(self):
        # the sieves drop no root, and sieved candidates stay a superset of
        # the pipeline's roots
        for p in range(1, 5):
            for pair in pairs_for_p(p):
                assert oracle_roots(pair, "scan") == oracle_roots(pair, "scan", ())
                bounds = t_bounds(pair.p, pair.q)
                if bounds is None:
                    continue
                sieved = set(oracle_candidates(pair, "scan"))
                qpoly = build_qpq(pair)
                roots = [
                    t for t in valuation_candidates(
                        exact_prime_powers(pair.p * pair.q), *bounds
                    )
                    if eval_int(qpoly, t) == 0
                ]
                assert sieved.issuperset(roots)


class TestOracleEquivalence:
    def test_divisor_oracle_p_le_50(self, tmp_path):
        report = run_search(make_config(tmp_path, p_max=50))
        expected = []
        pairs = 0
        for p in range(1, 51):
            for pair in pairs_for_p(p):
                pairs += 1
                expected.extend(oracle_hits(pair, "divisor", ()))
        assert report.pairs_examined == pairs
        assert report.hits == expected

    def test_scan_oracle_p_le_15(self, tmp_path):
        report = run_search(make_config(tmp_path, p_max=15))
        expected = []
        pairs = 0
        for p in range(1, 16):
            for pair in pairs_for_p(p):
                pairs += 1
                expected.extend(oracle_hits(pair, "scan", ()))
        assert report.pairs_examined == pairs
        assert report.hits == expected


class TestPairsForP:
    def test_p1(self):
        pairs = pairs_for_p(1)
        assert len(pairs) == 57  # q in 2..58
        assert pairs[0] == PQPair(1, 2)
        assert pairs[-1] == PQPair(1, 58)

    def test_coprime_only(self):
        assert all(
            pair.q % 2 == 1 for pair in pairs_for_p(2)
        )


class TestConfig:
    def test_validation(self):
        with pytest.raises(ValueError):
            SearchConfig(p_min=0, p_max=3)
        with pytest.raises(ValueError):
            SearchConfig(p_min=5, p_max=3)
        with pytest.raises(ValueError):
            SearchConfig(p_min=1, p_max=3, worker_count=0)
        # the mode, sieve and range settings are gone with the one pipeline
        with pytest.raises(TypeError):
            SearchConfig(p_min=1, p_max=3, mode="divisor")
        with pytest.raises(TypeError):
            SearchConfig(p_min=1, p_max=3, sieve_moduli=(7,))
        with pytest.raises(TypeError):
            SearchConfig(p_min=1, p_max=3, faithful=True)

    def test_checkpoint_ignores_workers_and_paths(self, tmp_path, monkeypatch):
        # the checkpoint holds the p range and the counters after the last
        # merged p, so an interrupted run leaves the same bytes in-process,
        # at four workers and on a pool of two
        def interrupted(name, workers):
            config = make_config(tmp_path, name, p_max=6, worker_count=workers)
            with pytest.raises(KeyboardInterrupt):
                run_search(config, abort_after_p=3)
            return (tmp_path / f"{name}.ckpt").read_bytes()

        one = interrupted("one", 1)
        assert interrupted("four", 4) == one
        monkeypatch.setattr(search, "POOL_MIN_WORK", 0)
        monkeypatch.setattr(search, "available_cpus", lambda: 2)
        assert interrupted("pool", 2) == one

    def test_checkpoint_tracks_range(self, tmp_path):
        for name, p_min, p_max in (("a", 1, 5), ("b", 1, 6), ("c", 2, 5)):
            config = make_config(tmp_path, name, p_min=p_min, p_max=p_max)
            run_search(config)
            ckpt = SearchCheckpoint.read(config.checkpoint_path)
            assert (ckpt.p_min, ckpt.p_max, ckpt.last_completed_p) == (
                p_min, p_max, p_max
            )


class TestRunSearch:
    def test_no_hits_small(self, tmp_path):
        config = make_config(tmp_path)
        report = run_search(config)
        assert report.hits == []
        assert report.pairs_examined == sum(
            len(pairs_for_p(p)) for p in range(1, 6)
        )
        lines = (tmp_path / "a.jsonl").read_text().splitlines()
        assert len(lines) == 1
        summary = json.loads(lines[0])
        assert summary == {
            "summary": True,
            "pairs_examined": report.pairs_examined,
            "pairs_nonempty": report.pairs_nonempty,
            "pairs_obstructed": report.pairs_obstructed,
            "candidates_evaluated": report.candidates_evaluated,
            "hits": 0,
        }

    def test_summary_line_is_the_json_of_its_counters(self):
        # formatted without json, it must keep json's compact bytes
        rng = random.Random(2904)
        names = SearchTally._fields
        for _ in range(200):
            counts = [rng.choice((0, rng.randint(1, 10**6), rng.randint(2**64, 2**200)))
                      for _ in names]
            obj = {"summary": True, **dict(zip(names, counts))}
            line = search._summary_line(counts)
            assert line == json.dumps(obj, separators=(",", ":")) + "\n"
            assert json.loads(line) == obj

    def test_pending_p_not_held_in_memory(self, tmp_path):
        # the p still to search are a range, not a list of a million ints
        config = SearchConfig(1, 10**6, 1, None, str(tmp_path / "a.jsonl"))
        tracemalloc.start()
        try:
            with pytest.raises(KeyboardInterrupt):
                run_search(config, abort_after_p=1)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 10**6

    def test_checkpoint_file_format(self, tmp_path):
        config = make_config(tmp_path)
        report = run_search(config)
        counters = (
            report.pairs_examined, report.pairs_nonempty,
            report.pairs_obstructed, report.candidates_evaluated,
        )
        assert (tmp_path / "a.ckpt").read_text() == (
            "version=5\np_min=1\np_max=5\nlast_completed_p=5\n"
            "candidates_found=0\npairs_examined=%d\npairs_nonempty=%d\n"
            "pairs_obstructed=%d\ncandidates_evaluated=%d\n" % counters
        )
        ckpt = SearchCheckpoint.read(config.checkpoint_path)
        assert ckpt == (CHECKPOINT_VERSION, 1, 5, 5, 0, *counters)

    def test_faithful_mode_same_hits(self, tmp_path):
        # every t of the paper's literal range for p <= 4, filtered by the
        # oracle's own inequality check, gives the production run's hits
        report = run_search(make_config(tmp_path, p_max=4))
        literal = []
        for p in range(1, 5):
            for pair in pairs_for_p(p):
                bounds = literal_t_bounds(pair.p, pair.q)
                if bounds is None:
                    continue
                qpoly = build_qpq(pair)
                roots = [
                    t for t in range(bounds[0], bounds[1] + 1)
                    if eval_int(qpoly, t) == 0
                ]
                literal.extend(admissible_hits(pair, roots))
        assert report.hits == literal

    def test_worker_count_irrelevant(self, tmp_path):
        one = make_config(tmp_path, "one", worker_count=1)
        four = make_config(tmp_path, "four", worker_count=4)
        r1 = run_search(one)
        r4 = run_search(four)
        assert (r1.pairs_examined, r1.pairs_nonempty, r1.candidates_evaluated) == (
            r4.pairs_examined,
            r4.pairs_nonempty,
            r4.candidates_evaluated,
        )
        assert (tmp_path / "one.jsonl").read_bytes() == (
            tmp_path / "four.jsonl"
        ).read_bytes()

    def test_use_pool(self, monkeypatch):
        monkeypatch.setattr(search, "available_cpus", lambda: 2)
        big = list(range(1, 4473))
        assert sum(big) >= search.POOL_MIN_WORK
        assert not use_pool(2, big[:-1])
        assert use_pool(2, big)
        assert not use_pool(1, big)
        assert not use_pool(2, [search.POOL_MIN_WORK])
        assert not use_pool(4, list(range(27, 41)))
        # one available CPU runs in-process
        monkeypatch.setattr(search, "available_cpus", lambda: 1)
        assert not use_pool(2, big)

    def test_available_cpus(self, monkeypatch):
        # the CPUs this process may run on, not the host's; where the
        # platform has no affinity set, the host's, or 1 if it cannot tell
        monkeypatch.setattr(os, "cpu_count", lambda: 64)
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {3}, raising=False)
        assert search.available_cpus() == 1
        monkeypatch.delattr(os, "sched_getaffinity")
        assert search.available_cpus() == 64
        monkeypatch.setattr(os, "cpu_count", lambda: None)
        assert search.available_cpus() == 1

    def test_pool_output_matches_in_process(self, tmp_path, monkeypatch):
        import concurrent.futures

        started = []
        real = concurrent.futures.ProcessPoolExecutor

        def recording(*args, **kwargs):
            started.append(kwargs)
            return real(*args, **kwargs)

        serial = make_config(tmp_path, "serial", p_max=8, worker_count=2)
        run_search(serial)
        assert started == []
        monkeypatch.setattr(search, "POOL_MIN_WORK", 0)
        monkeypatch.setattr(search, "available_cpus", lambda: 2)
        monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", recording)
        pooled = make_config(tmp_path, "pooled", p_max=8, worker_count=2)
        with pytest.raises(KeyboardInterrupt):
            run_search(pooled, abort_after_p=4)
        run_search(pooled)
        # the workers ignore SIGINT; Ctrl-C is the parent's to handle
        workers = dict(
            max_workers=2, initializer=signal.signal,
            initargs=(signal.SIGINT, signal.SIG_IGN),
        )
        assert started == [workers, workers]
        assert (tmp_path / "pooled.jsonl").read_bytes() == (
            tmp_path / "serial.jsonl"
        ).read_bytes()

    @pytest.fixture
    def fake_pool(self, monkeypatch):
        """ProcessPoolExecutor replaced by a fake that records each pool's
        size, the runs of p submitted to it, the most futures held at once
        (submitted, result not yet taken) and each shutdown's
        cancel_futures, and runs each task in-process as it is submitted."""
        import concurrent.futures

        record = SimpleNamespace(sizes=[], runs=[], held=0, peak=0, shutdowns=[])

        class Done:
            def __init__(self, value):
                self.value = value

            def result(self):
                record.held -= 1
                return self.value

        class FakePool:
            def __init__(self, max_workers, initializer=None, initargs=()):
                record.sizes.append(max_workers)
                record.runs.append([])

            def submit(self, fn, ps):
                record.runs[-1].append(ps)
                record.held += 1
                record.peak = max(record.peak, record.held)
                return Done(fn(ps))

            def shutdown(self, cancel_futures=False):
                record.shutdowns.append(cancel_futures)

        monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", FakePool)
        return record

    def test_pool_size_capped_by_p_left(self, tmp_path, monkeypatch, fake_pool):
        # a fork-started pool forks all its workers at once, so it gets no
        # more workers than there are p left
        serial = make_config(tmp_path, "serial", p_max=8)
        run_search(serial)
        monkeypatch.setattr(search, "POOL_MIN_WORK", 0)
        monkeypatch.setattr(search, "available_cpus", lambda: 64)  # the CPUs cap nothing here
        run_search(make_config(tmp_path, "few", p_max=3, worker_count=64))
        run_search(make_config(tmp_path, "two", p_max=8, worker_count=2))
        resumed = make_config(tmp_path, "resumed", p_max=8, worker_count=64)
        with pytest.raises(KeyboardInterrupt):
            run_search(resumed, abort_after_p=5)
        run_search(resumed)
        assert fake_pool.sizes == [3, 2, 8, 3]
        assert [len(runs[0]) for runs in fake_pool.runs] == [1, 1, 1, 1]
        # about four runs of consecutive p per worker, at most POOL_CHUNK long
        run_search(make_config(tmp_path, "runs", p_max=40, worker_count=2))
        run_search(make_config(tmp_path, "long", p_max=1100, worker_count=2))
        assert [len(runs[0]) for runs in fake_pool.runs[4:]] == [5, search.POOL_CHUNK]
        assert [p for run in fake_pool.runs[5] for p in run] == list(range(1, 1101))
        for name in ("two", "resumed"):
            assert (tmp_path / f"{name}.jsonl").read_bytes() == (
                tmp_path / "serial.jsonl"
            ).read_bytes()

    def test_pool_size_capped_by_cpus(self, tmp_path, monkeypatch, fake_pool):
        # --threads beyond the CPU count starts one worker per CPU, however
        # many values of p are left
        run_search(make_config(tmp_path, "one", p_max=40))
        monkeypatch.setattr(search, "POOL_MIN_WORK", 1)
        monkeypatch.setattr(search, "available_cpus", lambda: 2)
        run_search(make_config(tmp_path, "many", p_max=40, worker_count=64))
        assert fake_pool.sizes == [2]
        for suffix in ("jsonl", "ckpt"):
            assert (tmp_path / f"many.{suffix}").read_bytes() == (
                tmp_path / f"one.{suffix}"
            ).read_bytes()

    @pytest.mark.parametrize("pooled", [False, True], ids=["in-process", "pool"])
    @pytest.mark.parametrize("abort_after_p", [None, 4], ids=["fresh", "resumed"])
    def test_tallies_add_up(self, tmp_path, monkeypatch, fake_pool, planted,
                            pooled, abort_after_p):
        # the tallies that progress gets, one per p, add up field by field
        # to the run's tally and its summary line, with the hits in p order,
        # across an interruption after p = 4 and its resume as well
        if pooled:
            monkeypatch.setattr(search, "POOL_MIN_WORK", 0)
            monkeypatch.setattr(search, "available_cpus", lambda: 2)
        config = make_config(tmp_path, p_max=6, worker_count=2 if pooled else 1)
        tallies = []

        def progress(p, tally):
            tallies.append((p, tally))

        if abort_after_p:
            with pytest.raises(KeyboardInterrupt):
                run_search(config, progress=progress, abort_after_p=abort_after_p)
        total = run_search(config, progress=progress)
        assert [p for p, _ in tallies] == list(range(1, 7))
        assert total == SearchTally(
            *(sum(tally[i] for _, tally in tallies) for i in range(4)),
            [w for _, tally in tallies for w in tally.hits],
        )
        assert [(w.p, w.q, w.t) for w in total.hits] == [(3, 2, 12)] * 2
        summary = json.loads((tmp_path / "a.jsonl").read_text().splitlines()[-1])
        assert summary == {
            "summary": True, **dict(zip(SearchTally._fields, total.counts()))
        }
        assert fake_pool.sizes == ([2] * (1 + bool(abort_after_p)) if pooled else [])

    def test_pool_futures_bounded(self, tmp_path, monkeypatch, fake_pool):
        # a pool holds at most POOL_WINDOW runs per worker submitted and not
        # yet merged, not one future per run of the whole range, and the p
        # still merge in order
        monkeypatch.setattr(search, "POOL_MIN_WORK", 0)
        monkeypatch.setattr(search, "available_cpus", lambda: 2)
        monkeypatch.setattr(
            search, "_scan_p", lambda p: (p, SearchTally(0, 0, 0, 0, []))
        )
        merged = []
        config = SearchConfig(1, 10**4, 2, None, str(tmp_path / "a.jsonl"))
        run_search(config, progress=lambda p, tally: merged.append(p))
        assert merged == list(range(1, 10**4 + 1))
        assert len(fake_pool.runs[0]) == math.ceil(10**4 / search.POOL_CHUNK)
        assert fake_pool.peak == search.POOL_WINDOW * 2
        assert fake_pool.held == 0

    def test_one_cpu_of_many_runs_in_process(self, tmp_path, monkeypatch, fake_pool):
        # a process that may run on one CPU of a 64-CPU host searches
        # in-process, however many workers it asks for
        monkeypatch.setattr(os, "cpu_count", lambda: 64)
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0}, raising=False)
        monkeypatch.setattr(search, "POOL_MIN_WORK", 1)
        run_search(make_config(tmp_path, "pinned", p_max=40, worker_count=64))
        assert fake_pool.sizes == []

    def test_failed_checkpoint_write_shuts_the_pool(
        self, tmp_path, monkeypatch, fake_pool
    ):
        # a periodic checkpoint write that fails is not tried again on the
        # way out, and the pool is shut down all the same
        attempts = []

        def full(self, path):
            attempts.append(self.last_completed_p)
            raise OSError(errno.ENOSPC, os.strerror(errno.ENOSPC), path + ".tmp")

        monkeypatch.setattr(search, "POOL_MIN_WORK", 0)
        monkeypatch.setattr(search, "CHECKPOINT_MIN_WORK", 0)
        monkeypatch.setattr(search, "available_cpus", lambda: 2)
        monkeypatch.setattr(SearchCheckpoint, "write", full)
        with pytest.raises(OSError) as raised:
            run_search(make_config(tmp_path, p_max=8, worker_count=2))
        assert raised.value.errno == errno.ENOSPC
        assert attempts == [1]
        assert fake_pool.sizes == [2] and fake_pool.shutdowns == [True]

    def test_checkpoint_written_by_work(self, tmp_path, monkeypatch):
        written = []
        real = SearchCheckpoint.write

        def recording(self, path):
            written.append(self.last_completed_p)
            real(self, path)

        monkeypatch.setattr(SearchCheckpoint, "write", recording)
        run_search(make_config(tmp_path, "short"))
        assert written == [5]
        written.clear()
        monkeypatch.setattr(search, "CHECKPOINT_MIN_WORK", 6)
        run_search(make_config(tmp_path, "long"))
        # work merged 1, 3, 6 (write), 4, 9 (write); nothing left at the end
        assert written == [3, 5]

    @pytest.fixture
    def saves(self, monkeypatch):
        """Record each fsync of a file, as ("fsync", lines in the file), and
        each replace of a checkpoint, as ("replace", its candidates_found).
        The lines are counted when `saves.output`, set before the run, is
        the file's path, and are None otherwise.  At an fsync of the output
        the summary line is not written yet, so its lines are hit lines."""
        record = SimpleNamespace(events=[], output=None)
        real_fsync, real_replace = os.fsync, os.replace

        def fsync(fd):
            lines = None
            if record.output and os.path.samestat(
                os.fstat(fd), os.stat(record.output)
            ):
                with open(record.output, encoding="utf-8") as fh:
                    lines = len(fh.readlines())
            record.events.append(("fsync", lines))
            real_fsync(fd)

        def replace(src, dst):
            record.events.append(
                ("replace", SearchCheckpoint.read(src).candidates_found)
            )
            real_replace(src, dst)

        monkeypatch.setattr(os, "fsync", fsync)
        monkeypatch.setattr(os, "replace", replace)
        return record

    @staticmethod
    def assert_hits_on_disk(events):
        # every replace of the checkpoint finds each hit line it counts
        # fsynced, and every fsync is of the output and follows a new hit
        # line
        synced = 0
        for kind, n in events:
            if kind == "fsync":
                assert n is not None and n > synced
                synced = n
            else:
                assert n <= synced

    @pytest.mark.parametrize("min_work, abort_after_p", [(6, None), (10**9, 4)])
    def test_output_fsynced_before_each_checkpoint(
        self, tmp_path, monkeypatch, planted, saves, min_work, abort_after_p
    ):
        # the periodic writes (after p = 3 and 5) and the one on
        # interruption alike: the first write after the hits of p = 3 comes
        # after an fsync of the output, and a later write with no new hit
        # line makes none
        config = make_config(tmp_path)
        saves.output = config.output_path
        monkeypatch.setattr(search, "CHECKPOINT_MIN_WORK", min_work)
        if abort_after_p is None:
            run_search(config)
            assert saves.events == [("fsync", 2), ("replace", 2), ("replace", 2)]
        else:
            with pytest.raises(KeyboardInterrupt):
                run_search(config, abort_after_p=abort_after_p)
            assert saves.events == [("fsync", 2), ("replace", 2)]
        self.assert_hits_on_disk(saves.events)

    def test_resume_fsyncs_the_kept_hits(self, tmp_path, planted, saves):
        # a resume rewrites the kept hit lines into a new file, so its first
        # checkpoint write comes after an fsync
        config = make_config(tmp_path, p_max=6)
        saves.output = config.output_path
        with pytest.raises(KeyboardInterrupt):
            run_search(config, abort_after_p=4)
        saves.events.clear()
        run_search(config)
        assert saves.events == [("fsync", 2), ("replace", 2)]
        self.assert_hits_on_disk(saves.events)

    def test_hitless_runs_never_fsync(self, tmp_path, monkeypatch, saves):
        # the benchmark's resume (p 27..40 from the library's interrupted
        # run, through the CLI on two threads), fresh with periodic writes,
        # and interrupted then resumed: no fsync, the same bytes
        def written(name):
            return [(tmp_path / f"{name}.{suffix}").read_bytes()
                    for suffix in ("jsonl", "ckpt")]

        def uninterrupted(name, p_max):
            run_search(make_config(tmp_path, name, p_max=p_max))
            return written(name)

        bench = make_config(tmp_path, "bench", p_max=40)
        with pytest.raises(KeyboardInterrupt):
            run_search(bench, abort_after_p=26)
        code = cli.main([
            "search", "--p-max", "40", "--threads", "2",
            "--out", bench.output_path, "--checkpoint", bench.checkpoint_path,
        ])
        assert code == cli.EXIT_OK
        assert saves.events == [("replace", 0), ("replace", 0)]
        assert written("bench") == uninterrupted("bench-base", 40)

        monkeypatch.setattr(search, "CHECKPOINT_MIN_WORK", 6)
        saves.events.clear()
        run_search(make_config(tmp_path, "periodic"))
        assert saves.events == [("replace", 0), ("replace", 0)]
        assert written("periodic") == uninterrupted("periodic-base", 5)

        saves.events.clear()
        broken = make_config(tmp_path, "broken")
        with pytest.raises(KeyboardInterrupt):
            run_search(broken, abort_after_p=4)
        run_search(broken)
        assert saves.events == [("replace", 0), ("replace", 0), ("replace", 0)]
        assert written("broken") == written("periodic")

    def test_failed_fsync_merges_no_hit(self, tmp_path, monkeypatch, planted):
        # the hit lines of p = 3 cannot be fsynced, so p = 3 is not merged:
        # the checkpoint written on the way out stops at p = 2, and a rerun
        # with fsync working gives the bytes of an uninterrupted run
        real_fsync = os.fsync

        def failing(fd):
            raise OSError(errno.EIO, os.strerror(errno.EIO))

        config = make_config(tmp_path)
        monkeypatch.setattr(os, "fsync", failing)
        with pytest.raises(OSError) as info:
            run_search(config)
        assert info.value.errno == errno.EIO
        assert info.value.filename == config.output_path
        ckpt = SearchCheckpoint.read(config.checkpoint_path)
        assert (ckpt.last_completed_p, ckpt.candidates_found) == (2, 0)
        monkeypatch.setattr(os, "fsync", real_fsync)
        run_search(config)
        run_search(make_config(tmp_path, "base"))
        for suffix in ("jsonl", "ckpt"):
            assert (tmp_path / f"a.{suffix}").read_bytes() == (
                tmp_path / f"base.{suffix}"
            ).read_bytes()

    def test_failure_writes_checkpoint(self, tmp_path):
        config = make_config(tmp_path, p_max=6)

        def failing(p, *counts):
            if p == 4:
                raise RuntimeError("progress sink failed")

        with pytest.raises(RuntimeError):
            run_search(config, progress=failing)
        assert SearchCheckpoint.read(str(tmp_path / "a.ckpt")).last_completed_p == 4
        run_search(config)
        baseline = make_config(tmp_path, "base", p_max=6)
        run_search(baseline)
        assert (tmp_path / "a.jsonl").read_bytes() == (
            tmp_path / "base.jsonl"
        ).read_bytes()

    def test_interrupt_and_resume(self, tmp_path):
        baseline = make_config(tmp_path, "base")
        run_search(baseline)

        broken = make_config(tmp_path, "broken")
        with pytest.raises(KeyboardInterrupt):
            run_search(broken, abort_after_p=3)
        ckpt = SearchCheckpoint.read(str(tmp_path / "broken.ckpt"))
        assert ckpt.last_completed_p == 3

        resumed = run_search(broken)
        full = run_search(baseline)
        assert (tmp_path / "broken.jsonl").read_bytes() == (
            tmp_path / "base.jsonl"
        ).read_bytes()
        assert resumed.pairs_examined == full.pairs_examined
        assert resumed.pairs_nonempty == full.pairs_nonempty
        assert resumed.candidates_evaluated == full.candidates_evaluated

    def test_resume_scans_only_the_rest(self, tmp_path, monkeypatch):
        # the completed prefix's counters come from the checkpoint
        config = make_config(tmp_path, p_max=6)
        with pytest.raises(KeyboardInterrupt):
            run_search(config, abort_after_p=4)
        scanned = []
        real = search._scan_p

        def recording(p):
            scanned.append(p)
            return real(p)

        monkeypatch.setattr(search, "_scan_p", recording)
        resumed = run_search(config)
        assert scanned == [5, 6]
        assert resumed.pairs_examined == sum(
            pair_count(p, search._prime_factors(p)) for p in range(1, 7)
        )

    def test_resume_mismatch(self, tmp_path):
        config = make_config(tmp_path)
        with pytest.raises(KeyboardInterrupt):
            run_search(config, abort_after_p=2)
        altered = SearchConfig(
            p_min=1,
            p_max=9,
            checkpoint_path=config.checkpoint_path,
            output_path=config.output_path,
        )
        with pytest.raises(ResumeMismatch, match=r"p 1\.\.5, not the configured p 1\.\.9"):
            run_search(altered)
        with pytest.raises(ResumeMismatch, match=r"p 1\.\.5, not the configured p 2\.\.5"):
            run_search(altered._replace(p_min=2, p_max=5))

    def test_resume_detects_tampered_output(self, tmp_path):
        config = make_config(tmp_path)
        with pytest.raises(KeyboardInterrupt):
            run_search(config, abort_after_p=2)
        with open(config.output_path, "a", encoding="utf-8") as fh:
            fh.write('{"p":1,"q":2,"t":5,"case":"BU_EQ_A2"}\n')
        with pytest.raises(ResumeMismatch):
            run_search(config)

    EXTRA = "damaged: a line is extra, repeated, out of order or not as written"

    @pytest.mark.parametrize("edit, message", [
        (lambda text: text.replace("last_completed_p=2\n", ""),
         "missing field 'last_completed_p'"),
        (lambda text: text.replace("pairs_nonempty=", "pairs_nonempty=x"),
         "invalid literal"),
        (lambda text: text.replace(f"version={CHECKPOINT_VERSION}", "version=1"),
         "has version 1"),
        (lambda text: text.replace(f"version={CHECKPOINT_VERSION}", "version=2"),
         "has version 2"),
        (lambda text: text.replace(f"version={CHECKPOINT_VERSION}", "version=3"),
         "has version 3, expected 5"),
        (lambda text: text.replace(f"version={CHECKPOINT_VERSION}", "version=4"),
         "has version 4, expected 5"),
        # p 1..2 have 57 + 59 pairs; the count is checked in closed form
        (lambda text: text.replace("pairs_examined=116\n", "pairs_examined=5\n"),
         r"pairs_examined=5, but p 1\.\.2 has 116 pairs"),
        # the output holds no hit line
        (lambda text: text.replace("candidates_found=0\n", "candidates_found=1\n"),
         r"^output holds 0 hits for p <= 2 but checkpoint recorded 1$"),
        (lambda text: text.replace("last_completed_p=2", "last_completed_p=0"),
         r"last_completed_p=0 lies outside p 1\.\.5"),
        (lambda text: text.replace("last_completed_p=2", "last_completed_p=6"),
         r"last_completed_p=6 lies outside p 1\.\.5"),
        (lambda text: text.replace("last_completed_p=2", "last_completed_p=400"),
         r"last_completed_p=400 lies outside p 1\.\.5"),
        (lambda text: "", r"^checkpoint .* is damaged: missing field 'version'$"),
        (lambda text: "\udcff" + text,
         r"^checkpoint .* is damaged: invalid start byte$"),
        # each field is read, but the text is not what the state writes
        (lambda text: text.replace("p_max=5\n", "p_max=5\np_max=5\n"), EXTRA),
        (lambda text: text.replace("p_max=5\n", "p_max=5\np_max=9\n"), EXTRA),
        (lambda text: text + f"version={CHECKPOINT_VERSION}\ngarbage line\n", EXTRA),
        (lambda text: text.replace("p_min=1\np_max=5\n", "p_max=5\np_min=1\n"),
         EXTRA),
        (lambda text: text.replace("p_max=5\n", "p_max=5\n\n"), EXTRA),
        (lambda text: text.replace("pairs_examined=116", "pairs_examined= 116"),
         EXTRA),
        (lambda text: text.replace("pairs_examined=116", "pairs_examined=0116"),
         EXTRA),
    ], ids=["missing-field", "bad-number", "old-version", "version-2", "version-3",
            "version-4", "pairs-examined", "hits-found", "last-p-0",
            "last-p-past-range", "last-p-400", "empty", "not-utf8", "duplicate",
            "duplicate-altered", "unknown", "reordered", "blank-line",
            "spaced-number", "leading-zero"])
    def test_damaged_checkpoint(self, tmp_path, edit, message):
        config = make_config(tmp_path)
        with pytest.raises(KeyboardInterrupt):
            run_search(config, abort_after_p=2)
        path = tmp_path / "a.ckpt"
        path.write_bytes(edit(path.read_text()).encode("utf-8", "surrogateescape"))
        with pytest.raises(ResumeMismatch, match=message):
            run_search(config)

    def test_torn_final_line_dropped(self, tmp_path):
        baseline = make_config(tmp_path, "base")
        run_search(baseline)
        config = make_config(tmp_path)
        run_search(config)
        path = tmp_path / "a.jsonl"
        path.write_bytes(path.read_bytes()[:-7])
        run_search(config)
        assert path.read_bytes() == (tmp_path / "base.jsonl").read_bytes()

    def test_output_not_utf8_named(self, tmp_path):
        # the message says which file is damaged, as every resume message does
        config = make_config(tmp_path)
        run_search(config)
        (tmp_path / "a.jsonl").write_bytes(b"\xff\n")
        with pytest.raises(
            ResumeMismatch, match=r"^output .*a\.jsonl is damaged: invalid start byte$"
        ):
            run_search(config)

    @pytest.mark.parametrize("line", ['{"p":1,', "[1]", '{"q":2}'])
    def test_unparsable_inner_line_refused(self, tmp_path, line):
        config = make_config(tmp_path)
        run_search(config)
        path = tmp_path / "a.jsonl"
        path.write_text(line + "\n" + path.read_text())
        with pytest.raises(ResumeMismatch):
            run_search(config)


class TestPlantedRoot:
    """The hit path end to end, on a root planted through monkeypatch."""

    @pytest.fixture(params=["in-process", "pool"])
    def workers(self, request, monkeypatch):
        if request.param == "pool":
            monkeypatch.setattr(search, "POOL_MIN_WORK", 0)
            monkeypatch.setattr(search, "available_cpus", lambda: 2)
            return 2
        return 1

    def test_planted_pair_passes_the_real_sieve(self, planted):
        # without the fixture the sieve rules out every pair of p = 3; with
        # it, (3, 2) is the only pair of p = 3 left after every l
        assert sieve_pairs(3, [3]) == (len(capped_pairs(3)), [2])

    def test_fresh_run(self, tmp_path, planted, workers, capsys):
        config = make_config(tmp_path, p_max=6, worker_count=workers)
        report = run_search(config)
        text = (tmp_path / "a.jsonl").read_text()
        lines = [json.loads(line) for line in text.splitlines()]
        assert [(h["p"], h["q"], h["t"], h["case"]) for h in lines[:-1]] == sorted(
            (3, 2, 12, case) for case in CASES
        )
        assert lines[-1]["hits"] == len(report.hits) == 2
        code = cli.main([
            "search", "--p-max", "6", "--threads", str(workers),
            "--out", str(tmp_path / "cli.jsonl"),
        ])
        assert code == cli.EXIT_CUBOID_FOUND
        assert (tmp_path / "cli.jsonl").read_bytes() == (
            tmp_path / "a.jsonl"
        ).read_bytes()

    def test_interrupted_then_resumed(self, tmp_path, planted, workers, capsys):
        fresh = make_config(tmp_path, "fresh", p_max=6)
        run_search(fresh)
        for name in ("lib", "cli"):
            config = make_config(tmp_path, name, p_max=6, worker_count=workers)
            with pytest.raises(KeyboardInterrupt):
                run_search(config, abort_after_p=4)
            ckpt = SearchCheckpoint.read(config.checkpoint_path)
            assert (ckpt.last_completed_p, ckpt.candidates_found) == (4, 2)
        report = run_search(make_config(tmp_path, "lib", p_max=6, worker_count=workers))
        summary = json.loads((tmp_path / "lib.jsonl").read_text().splitlines()[-1])
        assert len(report.hits) == summary["hits"] == 2
        assert [w.t for w in report.hits] == [12, 12]
        code = cli.main([
            "search", "--p-max", "6", "--threads", str(workers),
            "--out", str(tmp_path / "cli.jsonl"),
            "--checkpoint", str(tmp_path / "cli.ckpt"),
        ])
        assert code == cli.EXIT_CUBOID_FOUND
        assert "hits=2 " in capsys.readouterr().err
        for name in ("lib", "cli"):
            assert (tmp_path / f"{name}.jsonl").read_bytes() == (
                tmp_path / "fresh.jsonl"
            ).read_bytes()

    @pytest.mark.parametrize("abort_after_p", [None, 4], ids=["finished", "interrupted"])
    def test_blank_lines_skipped_on_resume(self, tmp_path, planted, abort_after_p):
        # a blank line after each line: between the hit lines, and before
        # the summary line or where it would come
        run_search(make_config(tmp_path, "fresh", p_max=6))
        config = make_config(tmp_path, p_max=6)
        if abort_after_p:
            with pytest.raises(KeyboardInterrupt):
                run_search(config, abort_after_p=abort_after_p)
        else:
            run_search(config)
        path = tmp_path / "a.jsonl"
        lines = path.read_text().splitlines(keepends=True)
        assert len(lines) == (2 if abort_after_p else 3)
        path.write_text("".join(line + "\n" for line in lines))
        run_search(config)
        for suffix in ("jsonl", "ckpt"):
            assert (tmp_path / f"a.{suffix}").read_bytes() == (
                tmp_path / f"fresh.{suffix}"
            ).read_bytes()

    def test_altered_hit_line_refused(self, tmp_path, planted):
        config = make_config(tmp_path, p_max=6)
        with pytest.raises(KeyboardInterrupt):
            run_search(config, abort_after_p=4)
        path = tmp_path / "a.jsonl"
        path.write_text(path.read_text().replace('"x1":1', '"x1":9', 1))
        with pytest.raises(ResumeMismatch):
            run_search(config)

    @pytest.mark.parametrize("edit", [
        lambda hit: hit.update(case="XX"),
        lambda hit: hit.update(case=[]),
        lambda hit: hit.update(case=None),
        lambda hit: hit.pop("case"),
    ], ids=["unknown", "list", "null", "missing"])
    def test_hit_line_with_a_bad_case_refused(self, tmp_path, planted, capsys, edit):
        config = make_config(tmp_path, p_max=6)
        with pytest.raises(KeyboardInterrupt):
            run_search(config, abort_after_p=4)
        path = tmp_path / "a.jsonl"
        first, rest = path.read_text().split("\n", 1)
        hit = json.loads(first)
        edit(hit)
        path.write_text(json.dumps(hit, separators=(",", ":")) + "\n" + rest)
        code = cli.main([
            "search", "--p-max", "6", "--threads", "1", "--out", str(path),
            "--checkpoint", config.checkpoint_path,
        ])
        err = capsys.readouterr().err
        assert code == cli.EXIT_RESUME_MISMATCH
        assert err.count("\n") == 1
        assert err.startswith(f"error: output {path} line 1 is not a verified hit: ")
