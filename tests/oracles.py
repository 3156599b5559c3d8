"""Reference paths that the tests compare the production code against.

These are the search's earlier candidate generators, kept unchanged in
substance: the per-pair pipeline (`scan_pair`, with the separate `q_cap`
walk and `valuation_candidates` built from trial-divided prime powers), the
full scan of every t in range, the divisors of p^10 q^10 in range, and the
residue sieves that pruned either.  Beside them stand the certificate's
earlier arithmetic: Horner evaluation over Fraction and over the sqrt(2)
field, and the Sturm sequence built from Fraction remainders.  They are
slow, which is why the production path replaced them, and simple, which is
why they stay as oracles.
"""

import math
from dataclasses import dataclass
from fractions import Fraction
from typing import FrozenSet, List, Sequence

from cuboidsearch.cuboid_eqs import CaseTag, PQPair, build_qpq, reconstruct_cuboid
from cuboidsearch.exact_arith import IntPoly, QuadRational, QUAD_ZERO
from cuboidsearch.search import SearchConfig, _prime_factors, t_bounds


def q_cap(p: int, faithful: bool = False) -> int:
    """First q > p whose t range is empty; every larger q has an empty
    range too (see the search module docstring), so the walk covers
    q < q_cap."""
    q = p + 1
    while t_bounds(p, q, faithful) is not None:
        q += 1
    return q


def exact_prime_powers(n: int) -> List[int]:
    """The prime powers l^e with l^e exactly dividing n, in increasing l."""
    return [prime**exp for prime, exp in _prime_factors(n).items()]


def valuation_candidates(prime_powers: Sequence[int], lo: int, hi: int) -> List[int]:
    """Sorted t in [lo, hi] that are products of one factor from
    {1, l^e, l^(2e)} for each l^e in `prime_powers`: the only possible
    positive integer roots of Q when the l^e are the exact prime powers of
    pq (see the search module docstring)."""
    products = [1]
    for step in prime_powers:
        products = [
            c * f for c in products for f in (1, step, step * step) if c * f <= hi
        ]
    return sorted(t for t in products if t >= lo)


@dataclass(frozen=True)
class PairScan:
    nonempty: bool
    candidates_evaluated: int
    hits: tuple


def scan_pair(pair: PQPair, config: SearchConfig) -> PairScan:
    """Evaluate Q exactly at every valuation candidate in the pair's t
    range and reconstruct a cuboid from each admissible root."""
    p, q = pair.p, pair.q
    bounds = t_bounds(p, q, config.faithful)
    if bounds is None:
        return PairScan(False, 0, ())
    candidates = valuation_candidates(
        exact_prime_powers(p) + exact_prime_powers(q), *bounds
    )
    if not candidates:
        return PairScan(True, 0, ())
    poly = build_qpq(pair)
    hits = []
    for t in candidates:
        if poly.eval_int(t) != 0:
            continue
        if (p * p + t) * (p * q + t) <= 2 * t * t:
            continue
        for tag in CaseTag:
            hits.append(reconstruct_cuboid(p, q, t, tag))
    return PairScan(True, len(candidates), tuple(hits))


def eval_poly(P: IntPoly, x) -> Fraction:
    """Exact P(x) by Horner's scheme over the rationals."""
    acc = Fraction(0)
    for c in reversed(P.coeffs):
        acc = acc * x + c
    return acc


def eval_poly_quad(P: IntPoly, x: QuadRational) -> QuadRational:
    """Exact P(x) for x in the sqrt(2) field, by Horner's scheme."""
    acc = QUAD_ZERO
    for c in reversed(P.coeffs):
        acc = acc * x + QuadRational.of(c)
    return acc


def _frac_primitive(coeffs: Sequence[Fraction]) -> IntPoly:
    """Scale by a positive rational to primitive integer coefficients."""
    fracs = [Fraction(c) for c in coeffs]
    while fracs and fracs[-1] == 0:
        fracs.pop()
    if not fracs:
        return IntPoly(())
    den = math.lcm(*(f.denominator for f in fracs))
    ints = [int(f * den) for f in fracs]
    g = math.gcd(*ints)
    return IntPoly(tuple(c // g for c in ints))


def _frac_rem(f: Sequence[Fraction], g: Sequence[Fraction]) -> list:
    """Remainder of f by g over the rationals (dense coefficient lists)."""
    r = [Fraction(c) for c in f]
    dg = len(g) - 1
    lg = g[-1]
    while len(r) - 1 >= dg and any(c != 0 for c in r):
        while r and r[-1] == 0:
            r.pop()
        if len(r) - 1 < dg:
            break
        k = len(r) - 1 - dg
        factor = r[-1] / lg
        for i in range(dg + 1):
            r[k + i] -= factor * g[i]
        r.pop()
    while r and r[-1] == 0:
        r.pop()
    return r


def fraction_sturm_sequence(P: IntPoly) -> list:
    """Signed remainder sequence of P from Fraction remainders, each term
    scaled to a primitive integer polynomial by a positive rational."""
    seq = [_frac_primitive(P.coeffs)]
    d = P.derivative()
    if d.is_zero():
        return seq
    seq.append(_frac_primitive(d.coeffs))
    while seq[-1].degree > 0:
        rem = _frac_rem(seq[-2].coeffs, seq[-1].coeffs)
        if not rem:
            break
        seq.append(_frac_primitive([-c for c in rem]))
    return seq

SIEVE_MODULI = (64, 81, 25, 7, 11, 13)


def modular_sieve(pair: PQPair, m: int) -> FrozenSet[int]:
    """Residues rho mod m with Q(rho) = 0 mod m; any t outside them cannot
    be an integer root."""
    if m <= 1:
        raise ValueError("modulus must exceed 1")
    poly = build_qpq(pair)
    return frozenset(r for r in range(m) if poly.eval_mod(r, m) == 0)


def _divisors_of_tenth_power(n: int, limit: int) -> List[int]:
    """Sorted divisors of n^10 not exceeding limit."""
    divs = [1]
    for prime, exp in _prime_factors(n).items():
        new = []
        for d in divs:
            v = d
            for _ in range(10 * exp + 1):
                if v > limit:
                    break
                new.append(v)
                v *= prime
        divs = new
    return sorted(divs)


def divisor_candidates(pair: PQPair, lo: int, hi: int) -> List[int]:
    """Integer-root candidates in [lo, hi] by divisor pruning: the
    polynomial is monic with constant term -p^10 q^10, so integer roots
    divide p^10 q^10 = d1 * d2 with d1 | p^10 and d2 | q^10."""
    p_divs = _divisors_of_tenth_power(pair.p, hi)
    q_divs = _divisors_of_tenth_power(pair.q, hi)
    out = set()
    for d1 in p_divs:
        for d2 in q_divs:
            t = d1 * d2
            if t > hi:
                break
            if t >= lo:
                out.add(t)
    return sorted(out)


def oracle_candidates(pair: PQPair, mode: str, sieve_moduli=SIEVE_MODULI,
                      faithful: bool = False) -> List[int]:
    """The t values the old search evaluated: the whole range ("scan") or
    its divisors of p^10 q^10 ("divisor"), minus those a sieve rejects."""
    bounds = t_bounds(pair.p, pair.q, faithful)
    if bounds is None:
        return []
    lo, hi = bounds
    if mode == "divisor":
        candidates = divisor_candidates(pair, lo, hi)
    elif mode == "scan":
        candidates = range(lo, hi + 1)
    else:
        raise ValueError(f"unknown mode {mode!r}")
    sieves = [(m, modular_sieve(pair, m)) for m in sieve_moduli]
    return [t for t in candidates if all(t % m in rs for m, rs in sieves)]


def oracle_roots(pair: PQPair, mode: str, sieve_moduli=SIEVE_MODULI,
                 faithful: bool = False) -> List[int]:
    """Integer roots of Q among the oracle's candidates."""
    poly = build_qpq(pair)
    return [
        t for t in oracle_candidates(pair, mode, sieve_moduli, faithful)
        if poly.eval_int(t) == 0
    ]


def oracle_hits(pair: PQPair, mode: str, sieve_moduli=SIEVE_MODULI,
                faithful: bool = False) -> tuple:
    """Verified witnesses the old search produced for one pair."""
    p, q = pair.p, pair.q
    hits = []
    for t in oracle_roots(pair, mode, sieve_moduli, faithful):
        if t <= p * p or t <= p * q or t <= q * q:
            continue
        if (p * p + t) * (p * q + t) <= 2 * t * t:
            continue
        for tag in CaseTag:
            hits.append(reconstruct_cuboid(p, q, t, tag))
    return tuple(hits)
