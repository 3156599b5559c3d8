"""Reference search paths that the tests compare the production pipeline
against.

These are the search's earlier candidate generators, kept unchanged in
substance: the full scan of every t in range, the divisors of p^10 q^10 in
range, and the residue sieves that pruned either.  They are slow, which is
why the production path replaced them, and simple, which is why they stay
as oracles.
"""

from typing import FrozenSet, List

from cuboidsearch.cuboid_eqs import CaseTag, PQPair, build_qpq, reconstruct_cuboid
from cuboidsearch.search import _prime_factors, t_bounds

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
