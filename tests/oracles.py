"""Reference paths that the tests compare the production code against.

These are the search's earlier candidate generators, kept unchanged in
substance: the paper's literal t range (`literal_t_bounds`), the q cap
found by bisection (`bisect_q_limit`), the per-pair pipeline
(`scan_pair`, with the separate `q_cap` walk and `valuation_candidates`
built from trial-divided prime powers), the full scan of every t in range,
the divisors of p^10 q^10 in range, the residue sieves that pruned either,
the obstruction sieve done pair by pair, by evaluating Q at every residue
(`obstruction_witness`), the ratio tables computed from every x
(`brute_ratio_table`, from which the stored masks were made) and the
obstruction sieve by slice assignment alone (`slice_sieve_pairs`).  Beside
them stand the certificate's earlier arithmetic: Horner evaluation over
Fraction and over the sqrt(2) field, the Sturm sequence built from
Fraction remainders and the root count over it, the sqrt(2) field held as two Fractions
(`FractionQuad`), with its sign and square root, and the rational view
of the integer field (`quad` from two rationals, `quad_parts` and
`to_fraction` back, `rational_sqrt`, `sqrt2_approx`).  Then the
audit path's earlier forms: the degree-12 identity checked as a polynomial
product against the literal expansion of the degree-12 equation, the
decimal display computed through Fraction, the root certificate computed
on the degree-10 Q and its imaginary-axis restriction, and the root
intervals with endpoints built as Fraction sums.  They are slow, which is
why the production path replaced them, and simple, which is why they stay
as oracles.  Last come names that only the tests use: a polynomial as a
tuple of integer coefficients with no trailing zero (`poly`), its integer
value by Horner's scheme, the difference and product of two polynomials,
Q as its 11 coefficients (`build_qpq`), the expanded-grid build of Q, the
degree-12 polynomial built from its closed-form coefficients, modular Horner
evaluation, the covered pair set, the hull dominance check, interval
bisection, interval width and midpoint, the evenness test, the signs of one
polynomial at a rational or sqrt(2)-field point, and the integer-point
exclusion report for the real root intervals.
"""

import functools
import itertools
import math
from dataclasses import dataclass
from decimal import Context, Decimal
from fractions import Fraction
from typing import FrozenSet, List, NamedTuple, Optional, Sequence, Tuple, Union

from cuboidsearch import cuboid_eqs
from cuboidsearch.asymptotics import (
    AsymptoticInterval,
    CertificationFailed,
    NewtonPolygon,
    PreconditionViolated,
    RootCertificate,
    asymptotic_intervals,
)
from cuboidsearch.cli import APPROX_DIGITS
from cuboidsearch.cuboid_eqs import (
    CASES,
    PQPair,
    full_eq_coefficients,
    qpq_coefficients,
    reconstruct_cuboid,
)
from cuboidsearch.exact_arith import (
    Poly,
    QuadRational,
    QUAD_ZERO,
    quad_sign,
    sqrt2_sign,
    value_at_sqrt2,
)
from cuboidsearch.search import _prime_factors, t_bounds

RatLike = Union[int, Fraction]


def pairs_for_p(p: int) -> List[PQPair]:
    """All admissible q for a fixed p: 1 <= q <= 59p - 1, q != p, coprime.
    The specification of the covered pair set; the search walks only the
    part of it below the q cap, where a t range can be nonempty."""
    return [
        PQPair(p, q)
        for q in range(1, 59 * p)
        if q != p and math.gcd(p, q) == 1
    ]


def literal_t_bounds(p: int, q: int) -> Optional[Tuple[int, int]]:
    """The paper's literal t range max(p^2, pq, q^2) < t < 61 p^2, as an
    inclusive (lo, hi), or None when it is empty.  It contains the range of
    `t_bounds`, and its t beyond that range fail the search inequality."""
    lo = max(p * p, p * q, q * q) + 1
    hi = 61 * p * p - 1
    return (lo, hi) if lo <= hi else None


def bisect_q_limit(p: int) -> int:
    """`search.q_limit` by bisection on `t_bounds` over (p, 2p): the range
    is nonempty at q = p and empty at q = 2p, and the q > p with a nonempty
    range are an interval, so log2(p) steps find its end."""
    lo, hi = p, 2 * p
    while hi - lo > 1:
        mid = (lo + hi) // 2
        if t_bounds(p, mid) is None:
            hi = mid
        else:
            lo = mid
    return lo


def q_cap(p: int) -> int:
    """First q > p whose t range is empty; every larger q has an empty
    range too (see the search module docstring), so the walk covers
    q < q_cap."""
    q = p + 1
    while t_bounds(p, q) is not None:
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


def scan_pair(pair: PQPair) -> PairScan:
    """Evaluate Q exactly at every valuation candidate in the pair's t
    range and reconstruct a cuboid from each admissible root."""
    p, q = pair.p, pair.q
    bounds = t_bounds(p, q)
    if bounds is None:
        return PairScan(False, 0, ())
    candidates = valuation_candidates(
        exact_prime_powers(p) + exact_prime_powers(q), *bounds
    )
    if not candidates:
        return PairScan(True, 0, ())
    qpoly = build_qpq(pair)
    hits = []
    for t in candidates:
        if eval_int(qpoly, t) != 0:
            continue
        if (p * p + t) * (p * q + t) <= 2 * t * t:
            continue
        for case in CASES:
            hits.append(reconstruct_cuboid(p, q, t, case))
    return PairScan(True, len(candidates), tuple(hits))


def poly(coeffs) -> Poly:
    """The polynomial with these coefficients, lowest power first, as a
    tuple of ints with the trailing zeros stripped; () is zero."""
    cs = [int(c) for c in coeffs]
    while cs and cs[-1] == 0:
        cs.pop()
    return tuple(cs)


def eval_int(P: Poly, x: int) -> int:
    """P(x) for an integer x, by Horner's scheme."""
    acc = 0
    for c in reversed(P):
        acc = acc * x + c
    return acc


def build_qpq(pair: PQPair) -> Poly:
    """The even, monic, degree-10 Q for the pair as its 11 coefficients,
    the odd ones zero.  The coefficients are looked up in cuboid_eqs at each
    call, so a test that alters them there alters this Q too."""
    c0, c2, c4, c6, c8 = cuboid_eqs.qpq_coefficients(pair.p, pair.q)
    return poly([c0, 0, c2, 0, c4, 0, c6, 0, c8, 0, 1])


def poly_sub(P: Poly, Q: Poly) -> Poly:
    """P - Q, coefficient by coefficient."""
    return poly(a - b for a, b in itertools.zip_longest(P, Q, fillvalue=0))


def poly_mul(P: Poly, Q: Poly) -> Poly:
    """P * Q by the schoolbook product."""
    if not P or not Q:
        return ()
    out = [0] * (len(P) + len(Q) - 1)
    for i, ci in enumerate(P):
        if ci == 0:
            continue
        for j, cj in enumerate(Q):
            out[i + j] += ci * cj
    return poly(out)


def is_even(P: Poly) -> bool:
    """Whether P has only even powers of t."""
    return all(c == 0 for c in P[1::2])


def sign_at(P: Poly, x: RatLike) -> int:
    """Exact sign of P(x) for rational x, by Horner's scheme over Fraction."""
    value = eval_poly(P, x)
    return (value > 0) - (value < 0)


def sign_at_quad(P: Poly, x: QuadRational) -> int:
    """Exact sign of P(x) for x in the sqrt(2) field; see value_at_sqrt2."""
    return sqrt2_sign(*value_at_sqrt2(P, x.A, x.B, x.D))


def eval_poly(P: Poly, x) -> Fraction:
    """Exact P(x) by Horner's scheme over the rationals."""
    acc = Fraction(0)
    for c in reversed(P):
        acc = acc * x + c
    return acc


def eval_poly_quad(P: Poly, x: QuadRational) -> QuadRational:
    """Exact P(x) for x in the sqrt(2) field, by Horner's scheme."""
    acc = QUAD_ZERO
    for c in reversed(P):
        acc = acc * x + QuadRational(c)
    return acc


def _frac_primitive(coeffs: Sequence[Fraction]) -> Poly:
    """Scale by a positive rational to primitive integer coefficients."""
    fracs = [Fraction(c) for c in coeffs]
    while fracs and fracs[-1] == 0:
        fracs.pop()
    if not fracs:
        return ()
    den = math.lcm(*(f.denominator for f in fracs))
    ints = [int(f * den) for f in fracs]
    g = math.gcd(*ints)
    return tuple(c // g for c in ints)


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


def fraction_sturm_sequence(P: Poly) -> list:
    """Signed remainder sequence of P from Fraction remainders, each term
    scaled to a primitive integer polynomial by a positive rational."""
    seq = [_frac_primitive(P)]
    d = [i * c for i, c in enumerate(P)][1:]
    if not any(d):
        return seq
    seq.append(_frac_primitive(d))
    while len(seq[-1]) - 1 > 0:
        rem = _frac_rem(seq[-2], seq[-1])
        if not rem:
            break
        seq.append(_frac_primitive([-c for c in rem]))
    return seq


def fraction_sturm_count(P: Poly, lo: RatLike, hi: RatLike, seq=None) -> int:
    """Number of distinct real roots of P in (lo, hi) by Sturm's theorem,
    for rational ends that are not roots of P (ValueError otherwise).
    `seq` is P's fraction_sturm_sequence when the caller has built it."""
    if seq is None:
        seq = fraction_sturm_sequence(P)

    def variations(x) -> int:
        signs = [s for s in (sign_at(f, x) for f in seq) if s]
        return sum(a != b for a, b in zip(signs, signs[1:]))

    for end in (lo, hi):
        if sign_at(P, end) == 0:
            raise ValueError(f"P({end}) = 0")
    return variations(lo) - variations(hi)


def rational_sqrt(x: Fraction) -> Optional[Fraction]:
    """Exact square root of a nonnegative rational, or None if irrational."""
    if x < 0:
        return None
    num, den = x.numerator, x.denominator
    rn, rd = math.isqrt(num), math.isqrt(den)
    if rn * rn == num and rd * rd == den:
        return Fraction(rn, rd)
    return None


def sqrt2_approx(digits: int = 50) -> Fraction:
    """Rational lower approximation of sqrt(2), accurate to `digits` decimals."""
    scale = 10**digits
    return Fraction(math.isqrt(2 * scale * scale), scale)


def quad(a: RatLike, b: RatLike = 0) -> QuadRational:
    """a + b*sqrt(2) from two rationals, as one integer triple (A, B, D)."""
    a, b = Fraction(a), Fraction(b)
    D = math.lcm(a.denominator, b.denominator)
    return QuadRational(
        a.numerator * (D // a.denominator), b.numerator * (D // b.denominator), D
    )


def quad_parts(x: QuadRational) -> Tuple[Fraction, Fraction]:
    """The rationals a and b of x = a + b*sqrt(2)."""
    return Fraction(x.A, x.D), Fraction(x.B, x.D)


def to_fraction(x: QuadRational) -> Fraction:
    """x as a Fraction; ValueError if it has a sqrt(2) part."""
    if x.B:
        raise ValueError("value has a nonzero sqrt(2) part")
    return Fraction(x.A, x.D)


class FractionQuad(NamedTuple):
    """The number a + b*sqrt(2) as two Fractions, as QuadRational held it
    before it held the integers (A, B, D).  Unique because sqrt(2) is
    irrational, so the tuple __eq__ is exact."""

    a: Fraction
    b: Fraction

    @staticmethod
    def of(a: RatLike, b: RatLike = 0) -> "FractionQuad":
        return FractionQuad(Fraction(a), Fraction(b))

    def __add__(self, other: "FractionQuad") -> "FractionQuad":
        return FractionQuad(self.a + other.a, self.b + other.b)

    def __sub__(self, other: "FractionQuad") -> "FractionQuad":
        return FractionQuad(self.a - other.a, self.b - other.b)

    def __neg__(self) -> "FractionQuad":
        return FractionQuad(-self.a, -self.b)

    def __mul__(self, other) -> "FractionQuad":
        if isinstance(other, FractionQuad):
            return FractionQuad(
                self.a * other.a + 2 * self.b * other.b,
                self.a * other.b + self.b * other.a,
            )
        return FractionQuad(self.a * other, self.b * other)

    __rmul__ = __mul__

    def __lt__(self, other: "FractionQuad") -> bool:
        return fraction_quad_sign(self - other) < 0

    def __le__(self, other: "FractionQuad") -> bool:
        return fraction_quad_sign(self - other) <= 0

    def __gt__(self, other: "FractionQuad") -> bool:
        return fraction_quad_sign(self - other) > 0

    def __ge__(self, other: "FractionQuad") -> bool:
        return fraction_quad_sign(self - other) >= 0

    def to_fraction(self) -> Fraction:
        if self.b != 0:
            raise ValueError("value has a nonzero sqrt(2) part")
        return self.a

    def __str__(self) -> str:
        if self.b == 0:
            return str(self.a)
        if self.a == 0:
            return f"{self.b}*sqrt(2)"
        op = "+" if self.b > 0 else "-"
        return f"{self.a} {op} {abs(self.b)}*sqrt(2)"


def fraction_quad_sign(x: FractionQuad) -> int:
    """Sign of a + b*sqrt(2): the signs of a and b, and a^2 against 2 b^2
    when they differ."""
    a, b = x.a, x.b
    sa, sb = (a > 0) - (a < 0), (b > 0) - (b < 0)
    if sb == 0 or sa == sb:
        return sa or sb
    if sa == 0:
        return sb
    cmp = a * a - 2 * b * b  # |a| against |b| sqrt(2)
    return sa if cmp > 0 else -sa if cmp < 0 else 0


def fraction_quad_sqrt(x: FractionQuad) -> Optional[FractionQuad]:
    """Positive square root of x >= 0 inside the field, or None."""
    if fraction_quad_sign(x) < 0:
        raise ValueError("square root of a negative value")
    if fraction_quad_sign(x) == 0:
        return FractionQuad.of(0)
    A, B = x.a, x.b
    if B == 0:
        r = rational_sqrt(A)
        if r is not None:
            return FractionQuad.of(r)
        r = rational_sqrt(A / 2)
        return None if r is None else FractionQuad.of(0, r)
    disc = A * A - 2 * B * B
    s = rational_sqrt(disc) if disc >= 0 else None
    if s is None:
        return None
    for u2 in ((A + s) / 2, (A - s) / 2):
        u = rational_sqrt(u2)
        if u is None or u == 0:
            continue
        for cand in (FractionQuad(u, B / (2 * u)), FractionQuad(-u, -B / (2 * u))):
            if cand * cand == x and fraction_quad_sign(cand) > 0:
                return cand
    return None


def eval_mod(P: Poly, x: int, m: int) -> int:
    """P(x) mod m by Horner's scheme, reducing after every step."""
    acc = 0
    for c in reversed(P):
        acc = (acc * x + c) % m
    return acc


SIEVE_MODULI = (64, 81, 25, 7, 11, 13)


def modular_sieve(pair: PQPair, m: int) -> FrozenSet[int]:
    """Residues rho mod m with Q(rho) = 0 mod m; any t outside them cannot
    be an integer root."""
    if m <= 1:
        raise ValueError("modulus must exceed 1")
    qpoly = build_qpq(pair)
    return frozenset(r for r in range(m) if eval_mod(qpoly, r, m) == 0)


def obstruction_witness(pair: PQPair, primes: Sequence[int]) -> Optional[int]:
    """The first l in primes for which Q has no root mod l, found by
    evaluating Q at every residue t mod l, with no ratio table and no
    homogeneity; None when Q has a root mod each of them."""
    qpoly = build_qpq(pair)
    for l in primes:
        if all(eval_mod(qpoly, t, l) for t in range(l)):
            return l
    return None


def sieve_survivors(p: int, primes: Sequence[int]) -> List[int]:
    """The q of the nonempty pairs of p, walked up to `q_cap`, that no prime
    in primes rules out by `obstruction_witness`."""
    return [
        q for q in range(1, q_cap(p))
        if q != p and math.gcd(p, q) == 1
        and obstruction_witness(PQPair(p, q), primes) is None
    ]


@functools.lru_cache(maxsize=None)
def brute_ratio_table(l: int) -> Tuple[int, ...]:
    """B_l for an odd prime l, built with no symmetry: the x in 1..l-1,
    ascending, for which R(u; 1, x) has no root among the nonzero squares
    u mod l, with R evaluated at every such square for every x."""
    squares = [u * u % l for u in range(1, (l + 1) // 2)]
    out = []
    for x in range(1, l):
        c0, c2, c4, c6, c8 = (c % l for c in qpq_coefficients(1, x))
        if all(
            (((((u + c8) * u + c6) * u + c4) * u + c2) * u + c0) % l
            for u in squares
        ):
            out.append(x)
    return tuple(out)


def slice_sieve_pairs(p: int, primes: Sequence[int]) -> Tuple[int, List[int]]:
    """`search.sieve_pairs` done by slice assignment alone, over
    `brute_ratio_table`: for each l in primes not dividing p, every class
    q = x p mod l with x in B_l is cleared, until no q is left."""
    cap = bisect_q_limit(p)
    live = bytearray(b"\x01") * (cap + 1)
    live[0] = live[p] = 0
    for prime in _prime_factors(p):
        live[::prime] = bytes(cap // prime + 1)
    nonempty = left = live.count(1)
    for l in primes:
        if not left:
            break
        if p % l == 0:
            continue
        edge = cap % l
        long, short = bytes(cap // l + 1), bytes(cap // l)
        for x in brute_ratio_table(l):
            r = x * p % l
            live[r::l] = long if r <= edge else short
        left = live.count(1)
    return nonempty, [q for q in range(cap + 1) if live[q]]


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


def oracle_candidates(pair: PQPair, mode: str,
                      sieve_moduli=SIEVE_MODULI) -> List[int]:
    """The t values the old search evaluated: the whole range ("scan") or
    its divisors of p^10 q^10 ("divisor"), minus those a sieve rejects."""
    bounds = t_bounds(pair.p, pair.q)
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


def oracle_roots(pair: PQPair, mode: str,
                 sieve_moduli=SIEVE_MODULI) -> List[int]:
    """Integer roots of Q among the oracle's candidates."""
    qpoly = build_qpq(pair)
    return [
        t for t in oracle_candidates(pair, mode, sieve_moduli)
        if eval_int(qpoly, t) == 0
    ]


def oracle_hits(pair: PQPair, mode: str, sieve_moduli=SIEVE_MODULI) -> tuple:
    """Verified witnesses the old search produced for one pair."""
    return admissible_hits(pair, oracle_roots(pair, mode, sieve_moduli))


def admissible_hits(pair: PQPair, roots: Sequence[int]) -> tuple:
    """Verified witnesses for the roots t of Q with t > max(p^2, pq, q^2)
    that satisfy the search inequality (p^2 + t)(pq + t) > 2 t^2."""
    p, q = pair.p, pair.q
    hits = []
    for t in roots:
        if t <= p * p or t <= p * q or t <= q * q:
            continue
        if (p * p + t) * (p * q + t) <= 2 * t * t:
            continue
        for case in CASES:
            hits.append(reconstruct_cuboid(p, q, t, case))
    return tuple(hits)


# The paper's expanded term table of the degree-10 polynomial: power of t ->
# list of (power of p, power of q, integer coefficient).  The package holds
# Q once, as the factored formulas of qpq_coefficients; this table is the
# tests' independent copy.
QPQ_TERMS = {
    10: [(0, 0, 1)],
    8: [(0, 4, 6), (2, 2, -1), (4, 0, -2)],
    6: [(0, 8, 1), (2, 6, 10), (4, 4, 4), (6, 2, -14), (8, 0, 1)],
    4: [(2, 10, -1), (4, 8, 14), (6, 6, -4), (8, 4, -10), (10, 2, -1)],
    2: [(6, 10, 2), (8, 8, 1), (10, 6, -6)],
    0: [(10, 10, -1)],
}


def build_qpq_from_grid(pair: PQPair) -> Poly:
    """Q for the pair, summed directly from the expanded term table."""
    p, q = pair.p, pair.q
    coeffs = [0] * 11
    for m, terms in QPQ_TERMS.items():
        coeffs[m] = sum(c * p**i * q**j for i, j, c in terms)
    return poly(coeffs)


def build_full_eq(a: int, b: int, u: int) -> Poly:
    """The even, monic, degree-12 polynomial in t for parameters (a, b, u)."""
    coeffs = [0] * 13
    coeffs[::2] = full_eq_coefficients(a, b, u)
    return poly(coeffs)


def literal_full_eq(a: int, b: int, u: int) -> Poly:
    """The degree-12 equation for (a, b, u), term by term as expanded in
    a, b and u separately."""
    a2, b2, u2 = a**2, b**2, u**2
    a4, b4, u4 = a2 * a2, b2 * b2, u2 * u2
    c10 = 6 * u2 - 2 * a2 - 2 * b2
    c8 = u4 + b4 + a4 + 4 * a2 * u2 + 4 * b2 * u2 - 12 * b2 * a2
    c6 = (
        6 * a4 * u2 + 6 * u2 * b4 - 8 * a2 * b2 * u2
        - 2 * u4 * a2 - 2 * u4 * b2 - 2 * a4 * b2 - 2 * b4 * a2
    )
    c4 = 4 * u2 * b4 * a2 + 4 * a4 * u2 * b2 - 12 * u4 * a2 * b2 + u4 * a4 + u4 * b4 + a4 * b4
    c2 = 6 * a4 * u2 * b4 - 2 * u4 * a4 * b2 - 2 * u4 * a2 * b4
    c0 = u4 * a4 * b4
    return poly([c0, 0, c2, 0, c4, 0, c6, 0, c8, 0, c10, 0, 1])


def intpoly_factorization_check(pair: PQPair) -> bool:
    """(t - pq)(t + pq) Q(t) as a polynomial product, compared with the
    literal degree-12 equation under both substitutions, (a, b, u) =
    (pq, p^2, q^2) and (p^2, pq, q^2)."""
    p, q = pair.p, pair.q
    product = poly_mul(poly([-((p * q) ** 2), 0, 1]), build_qpq(pair))
    return all(
        product == literal_full_eq(a, b, q * q)
        for a, b in ((p * q, p * p), (p * p, p * q))
    )


def fraction_approx_str(x: QuadRational) -> str:
    """The decimal display through Fraction: a + b * sqrt2_approx(50),
    normalised, then one division to 30 significant digits."""
    a, b = quad_parts(x)
    frac = a + b * sqrt2_approx(50)
    value = Context(prec=APPROX_DIGITS).divide(
        Decimal(frac.numerator), Decimal(frac.denominator)
    )
    return f"approx {value}"


def node_dominance_holds(polygon: NewtonPolygon) -> bool:
    """Every node lies on or below the upper hull (checked segment-wise)."""
    for (m1, r1), (m2, r2) in zip(polygon.upper_hull, polygon.upper_hull[1:]):
        for n in polygon.nodes:
            if m1 <= n.m <= m2:
                # r <= r1 + k (m - m1), cleared of denominators
                if (n.r - r1) * (m2 - m1) > (n.m - m1) * (r2 - r1):
                    return False
    return True


def interval_width(iv: AsymptoticInterval) -> QuadRational:
    return iv.hi - iv.lo


HALF = QuadRational(1, 0, 2)


def interval_midpoint(iv: AsymptoticInterval) -> QuadRational:
    return (iv.lo + iv.hi) * HALF


def refine_interval(
    P: Poly,
    lo: QuadRational,
    hi: QuadRational,
    rel_width: Fraction,
) -> QuadRational:
    """Bisect a certified sign-change interval until its width falls below
    rel_width times the midpoint; returns the midpoint.  `P` must already
    be the axis-appropriate real polynomial."""
    s_lo = sign_at_quad(P, lo)
    if s_lo == 0:
        return lo
    while quad_sign((hi - lo) - quad(rel_width) * ((lo + hi) * HALF)) > 0:
        mid = (lo + hi) * HALF
        s_mid = sign_at_quad(P, mid)
        if s_mid == 0:
            return mid
        if s_mid == s_lo:
            lo = mid
        else:
            hi = mid
    return (lo + hi) * HALF


def imaginary_axis_poly(P: Poly) -> Poly:
    """P restricted to the imaginary axis: for even P, the real polynomial
    whose value at y equals P(i*y).  Maps the t^(2k) coefficient to
    (-1)^k y^(2k)."""
    if not is_even(P):
        raise ValueError("imaginary-axis restriction needs an even polynomial")
    coeffs = list(P)
    for k in range(0, len(coeffs), 2):
        if (k // 2) % 2 == 1:
            coeffs[k] = -coeffs[k]
    return poly(coeffs)


def asymptotic_intervals_by_sums(pair: PQPair) -> List[AsymptoticInterval]:
    """The five root intervals with each endpoint a sum of Fraction centre
    and half-width, as asymptotic_intervals built them before its closed
    forms."""
    p, q = pair.p, pair.q
    if q < 59 * p:
        raise PreconditionViolated(f"need q >= 59p, got p={p}, q={q}")
    p2 = Fraction(p * p)
    q2 = Fraction(q * q)
    half1 = Fraction(5 * p**3, q)
    t3_center = Fraction(p * q) - Fraction(16 * p**3, q)
    half3 = Fraction(5 * p**4, q * q)
    r = quad
    t4_center = r(q2 - 2 * p2, q2 + p2)  # (sqrt2+1) q^2 + (sqrt2-2) p^2
    t5_center = r(-q2 + 2 * p2, q2 + p2)  # (sqrt2-1) q^2 + (sqrt2+2) p^2
    h = r(half1)
    return [
        AsymptoticInterval("T1", "REAL", r(p2 - half1), r(p2)),
        AsymptoticInterval("T2", "REAL", r(p2), r(p2 + half1)),
        AsymptoticInterval("T3", "REAL", r(t3_center - half3), r(t3_center + half3)),
        AsymptoticInterval("T4", "IMAGINARY", t4_center - h, t4_center + h),
        AsymptoticInterval("T5", "IMAGINARY", t5_center - h, t5_center + h),
    ]


def q_certify_roots(pair: PQPair, intervals=None) -> List[RootCertificate]:
    """The root certificate computed on the degree-10 Q itself: endpoint
    signs of Q on the real axis, each interval with a Sturm count of 1 from
    one Fraction Sturm sequence of Q, and signs of the imaginary-axis
    restriction of Q for T4 and T5.  Raises CertificationFailed in the
    words of certify_roots, with the Sturm count added on the real axis."""
    if intervals is None:
        intervals = asymptotic_intervals(pair)
    qpoly = build_qpq(pair)
    sturm = fraction_sturm_sequence(qpoly)
    ipoly = imaginary_axis_poly(qpoly)
    certs = []
    failures = []
    for iv in intervals:
        if iv.axis == "REAL":
            lo, hi = to_fraction(iv.lo), to_fraction(iv.hi)
            s_lo, s_hi = sign_at(qpoly, lo), sign_at(qpoly, hi)
            count = None
            if s_lo != 0 and s_hi != 0:
                count = fraction_sturm_count(qpoly, lo, hi, sturm)
            if s_lo * s_hi != -1 or count != 1:
                failures.append(
                    f"{iv.label}: sign({s_lo},{s_hi}), sturm={count}"
                )
            certs.append(RootCertificate(iv.label, iv.axis, s_lo, s_hi))
        else:
            s_lo = sign_at_quad(ipoly, iv.lo)
            s_hi = sign_at_quad(ipoly, iv.hi)
            if s_lo * s_hi != -1:
                failures.append(f"{iv.label}: sign({s_lo},{s_hi})")
            certs.append(RootCertificate(iv.label, iv.axis, s_lo, s_hi))
    if failures:
        raise CertificationFailed(
            f"(p={pair.p}, q={pair.q}): " + "; ".join(failures)
        )
    return certs


def integers_in_open_interval(lo: Fraction, hi: Fraction) -> List[int]:
    first = math.floor(lo) + 1
    last = math.ceil(hi) - 1
    return list(range(first, last + 1))


class IntegerPointReport(NamedTuple):
    """Integer-point exclusion for the real intervals of one pair."""

    pair: PQPair
    narrow_hypothesis: bool  # q > 5 p^3: T1 and T2 provably integer-free
    at_most_one_hypothesis: bool  # q^2 > 10 p^4: T3 has at most one integer
    t3_empty_hypothesis: bool  # 16 q >= 256 p^3 + 5 p: T3 provably integer-free
    integers_inside: dict  # label -> list of integers strictly inside
    search_candidates: dict  # label -> integers that also pass the lower bounds
    t3_in_unit_bracket: Optional[bool]  # T3 within (pq - 1, pq), when applicable
    conclusion: str  # SEARCH_SKIP: no candidate survives for q >= 59 p


def integer_point_report(pair: PQPair) -> IntegerPointReport:
    """Evaluate the narrowness hypotheses and, independently, enumerate all
    integers inside the real intervals, checking each against the lower
    bounds t > p^2, t > pq, t > q^2."""
    p, q = pair.p, pair.q
    intervals = asymptotic_intervals(pair)
    inside = {}
    candidates = {}
    for iv in intervals:
        if iv.axis != "REAL":
            continue
        pts = integers_in_open_interval(to_fraction(iv.lo), to_fraction(iv.hi))
        inside[iv.label] = pts
        candidates[iv.label] = [
            t for t in pts if t > p * p and t > p * q and t > q * q
        ]
    t3_empty = 16 * q >= 256 * p**3 + 5 * p
    bracket = None
    if t3_empty:
        t3 = next(iv for iv in intervals if iv.label == "T3")
        lo, hi = to_fraction(t3.lo), to_fraction(t3.hi)
        bracket = Fraction(p * q - 1) < lo and hi < Fraction(p * q)
    return IntegerPointReport(
        pair=pair,
        narrow_hypothesis=q > 5 * p**3,
        at_most_one_hypothesis=q * q > 10 * p**4,
        t3_empty_hypothesis=t3_empty,
        integers_inside=inside,
        search_candidates=candidates,
        t3_in_unit_bracket=bracket,
        conclusion="SEARCH_SKIP",
    )
