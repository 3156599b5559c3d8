"""Exact arithmetic substrate.

Rationals (stdlib Fraction: always reduced, positive denominator), the real
quadratic field of numbers (A + B*sqrt(2))/D held as three integers,
univariate integer polynomials held as tuples of coefficients (P[i] is the
coefficient of t^i, no trailing zero, () for the zero polynomial), and
Sturm-sequence real-root counting.
Polynomial signs at rational and sqrt(2)-field points, and Sturm sequences,
are computed in integers only.
Everything here is an immutable value and every operation is a pure
function, so all of it is safe to use from parallel workers.  No floating
point is used in any decision procedure; decimal approximations exist only
for display and for oracle cross-checks.
"""

from __future__ import annotations

import math
from fractions import Fraction
from typing import NamedTuple, Optional, Sequence, Tuple, Union

RatLike = Union[int, Fraction]
Poly = Tuple[int, ...]  # coefficients, lowest power first


class EndpointIsRoot(ValueError):
    """An interval endpoint is a root of the polynomial."""


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


class _QuadFields(NamedTuple):
    A: int
    B: int
    D: int


class QuadRational(_QuadFields):
    """The number (A + B*sqrt(2))/D with integers A, B and D > 0.

    The constructor divides by gcd(A, B, D) and moves the sign onto A and B,
    so each number has one triple: sqrt(2) is irrational, so equal values
    give equal triples and the tuple __eq__ is exact.  `of(a, b)` builds
    a + b*sqrt(2) from rationals, and `a` and `b` give the two rational
    parts back as Fractions.  The arithmetic operators are the field's own;
    none falls through to tuple concatenation or repetition.
    """

    __slots__ = ()

    def __new__(cls, A: int, B: int = 0, D: int = 1) -> "QuadRational":
        g = math.gcd(A, B, D)
        if D <= 0:
            if not D:
                raise ZeroDivisionError("QuadRational with D = 0")
            g = -g
        if g != 1:
            A, B, D = A // g, B // g, D // g
        return tuple.__new__(cls, (A, B, D))

    @staticmethod
    def of(a: RatLike, b: RatLike = 0) -> "QuadRational":
        a, b = Fraction(a), Fraction(b)
        D = math.lcm(a.denominator, b.denominator)
        return QuadRational(
            a.numerator * (D // a.denominator), b.numerator * (D // b.denominator), D
        )

    @property
    def a(self) -> Fraction:
        return Fraction(self.A, self.D)

    @property
    def b(self) -> Fraction:
        return Fraction(self.B, self.D)

    def __add__(self, other: "QuadRational") -> "QuadRational":
        if not isinstance(other, QuadRational):
            return NotImplemented
        A, B, D = self
        A2, B2, D2 = other
        return QuadRational(A * D2 + A2 * D, B * D2 + B2 * D, D * D2)

    def __sub__(self, other: "QuadRational") -> "QuadRational":
        if not isinstance(other, QuadRational):
            return NotImplemented
        A, B, D = self
        A2, B2, D2 = other
        return QuadRational(A * D2 - A2 * D, B * D2 - B2 * D, D * D2)

    def __neg__(self) -> "QuadRational":
        A, B, D = self
        return tuple.__new__(QuadRational, (-A, -B, D))

    def __mul__(self, other) -> "QuadRational":
        A, B, D = self
        if isinstance(other, QuadRational):
            A2, B2, D2 = other
            return QuadRational(A * A2 + 2 * B * B2, A * B2 + B * A2, D * D2)
        if isinstance(other, (int, Fraction)):
            n, d = other.numerator, other.denominator
            return QuadRational(A * n, B * n, D * d)
        return NotImplemented

    __rmul__ = __mul__

    def __lt__(self, other: "QuadRational") -> bool:
        return quad_sign(self - other) < 0

    def __le__(self, other: "QuadRational") -> bool:
        return quad_sign(self - other) <= 0

    def __gt__(self, other: "QuadRational") -> bool:
        return quad_sign(self - other) > 0

    def __ge__(self, other: "QuadRational") -> bool:
        return quad_sign(self - other) >= 0

    def to_fraction(self) -> Fraction:
        if self.B:
            raise ValueError("value has a nonzero sqrt(2) part")
        return Fraction(self.A, self.D)

    def __str__(self) -> str:
        A, B, D = self
        if not B:
            return _ratio_text(A, D)
        if not A:
            return f"{_ratio_text(B, D)}*sqrt(2)"
        op = "+" if B > 0 else "-"
        return f"{_ratio_text(A, D)} {op} {_ratio_text(abs(B), D)}*sqrt(2)"


def _ratio_text(n: int, d: int) -> str:
    """str(Fraction(n, d)) for d > 0, without building the Fraction."""
    g = math.gcd(n, d)
    if g != 1:
        n, d = n // g, d // g
    return str(n) if d == 1 else f"{n}/{d}"


QUAD_ZERO = QuadRational(0, 0, 1)


def quad_sign(x: QuadRational) -> int:
    """Exact sign of (A + B*sqrt(2))/D, by integer comparisons only.

    D > 0, so the sign is that of A + B*sqrt(2).  Compares A^2 against
    2 B^2 with a case split on the signs of A and B; sqrt(2) is never
    approximated.
    """
    return _sqrt2_sign(x.A, x.B)


def _sqrt2_sign(a: int, b: int) -> int:
    """quad_sign for a + b*sqrt(2) given as two integers."""
    if b == 0:
        return (a > 0) - (a < 0)
    if a == 0:
        return 1 if b > 0 else -1
    if a > 0 and b > 0:
        return 1
    if a < 0 and b < 0:
        return -1
    # opposite signs: |a| vs |b|*sqrt(2) decided by squaring
    cmp = a * a - 2 * b * b
    if a > 0:  # b < 0
        return (cmp > 0) - (cmp < 0)
    # a < 0, b > 0
    return (cmp < 0) - (cmp > 0)


def quad_sqrt(x: QuadRational) -> Optional[QuadRational]:
    """Positive square root of x inside the field, or None if it does not
    stay in the field.  Requires x >= 0."""
    if quad_sign(x) < 0:
        raise ValueError("square root of a negative value")
    if quad_sign(x) == 0:
        return QUAD_ZERO
    if not x.B:
        a = x.to_fraction()
        r = rational_sqrt(a)
        if r is not None:
            return QuadRational.of(r)
        r = rational_sqrt(a / 2)
        if r is not None:
            return QuadRational.of(0, r)
        return None
    A, B = x.a, x.b
    # seek u + v*sqrt(2): u^2 + 2 v^2 = A and 2 u v = B
    disc = A * A - 2 * B * B
    s = rational_sqrt(disc) if disc >= 0 else None
    if s is None:
        return None
    for u2 in ((A + s) / 2, (A - s) / 2):
        u = rational_sqrt(u2)
        if u is None or u == 0:
            continue
        v = B / (2 * u)
        cand = QuadRational.of(u, v)
        if cand * cand == x and quad_sign(cand) > 0:
            return cand
        cand = -cand
        if cand * cand == x and quad_sign(cand) > 0:
            return cand
    return None


def sign_at_sqrt2(P: Poly, A: int, B: int, D: int) -> int:
    """Exact sign of P((A + B*sqrt(2))/D) for integers A, B and D > 0.

    The homogeneous Horner pass of sign_vector runs over integer pairs (u, v)
    standing for u + v*sqrt(2); the sign of the final pair is decided as in
    quad_sign.
    """
    u = v = 0
    d_pow = 1
    for c in reversed(P):
        u, v = u * A + 2 * v * B + c * d_pow, u * B + v * A
        d_pow *= D
    return _sqrt2_sign(u, v)


def _primitive(coeffs: Sequence[int], sign: int = 1) -> Poly:
    """Divide by sign times the positive content, giving the primitive
    polynomial as a coefficient tuple.

    With sign = 1 the positive scale preserves signs everywhere, which
    Sturm's theorem relies on; it also keeps coefficient growth under
    control along the remainder sequence.  `coeffs` has no trailing zero,
    so neither has the result.
    """
    g = math.gcd(*coeffs) * sign
    if g == 1:
        return tuple(coeffs)
    return tuple([c // g for c in coeffs]) if g else ()


def _neg_pseudo_rem(f: Sequence[int], g: Sequence[int]) -> Tuple[list, int]:
    """(r, sign) with sign * r a positive multiple of -rem(f, g), in integer
    arithmetic.

    Each elimination step replaces r by (lc(g)/h) r - (lc(r)/h) t^k g with
    h = gcd(lc(g), lc(r)) > 0, which scales the remainder by lc(g)/h; the
    signs of those scales are multiplied up so that sign * r is a
    *positive* multiple of the rational remainder, negated.
    """
    r = list(f)
    dg = len(g) - 1
    lg = g[-1]
    sign = -1
    while len(r) - 1 >= dg:
        lr = r.pop()
        h = math.gcd(lg, lr)
        mg, mr = lg // h, lr // h
        k = len(r) - dg
        if mg != 1:
            r = [mg * c for c in r]
            if mg < 0:
                sign = -sign
        for i in range(dg):
            r[k + i] -= mr * g[i]
        while r and r[-1] == 0:
            r.pop()
    return r, sign


def sturm_sequence(P: Poly) -> list:
    """Signed remainder sequence of P, with primitive-part reduction, as a
    list of coefficient tuples.

    Each term is the primitive integer polynomial that is a positive
    multiple of the negated remainder of the two before it, computed as an
    integer pseudo-remainder (Collins; Brown and Traub), so no rational
    arithmetic is needed and every term keeps the signs Sturm's theorem
    counts.
    """
    seq = [_primitive(P)]
    if len(P) < 2:  # P is constant: its derivative is zero
        return seq
    seq.append(_primitive([i * P[i] for i in range(1, len(P))]))
    while len(seq[-1]) > 1:  # the last term is not constant
        rem, sign = _neg_pseudo_rem(seq[-2], seq[-1])
        if not rem:
            break
        seq.append(_primitive(rem, sign))
    return seq


def sign_vector(seq: Sequence[Poly], n: int, d: int) -> list:
    """Signs of every polynomial of `seq` at n/d, for integers n and d > 0.

    With k = deg P, P(n/d) has the sign of d^k P(n/d) = sum c_i n^i d^(k-i),
    which one homogeneous Horner pass computes without a single division.
    The powers of d are built once, for the first polynomial, which has the
    highest degree in a Sturm sequence, and shared by the rest.
    """
    d_pows = [1]
    for _ in range(len(seq[0]) - 1):
        d_pows.append(d_pows[-1] * d)
    signs = []
    for cs in seq:
        k = len(cs) - 1
        acc = cs[k] if cs else 0
        for i in range(1, k + 1):
            acc = acc * n + cs[k - i] * d_pows[i]
        signs.append((acc > 0) - (acc < 0))
    return signs


def sign_variations(signs: Sequence[int]) -> int:
    """Sign changes along a sign vector, zeros skipped."""
    changes = 0
    last = 0
    for s in signs:
        if s:
            if last and s != last:
                changes += 1
            last = s
    return changes


def sturm_count(
    P: Poly, lo: RatLike, hi: RatLike, seq: Optional[Sequence[Poly]] = None
) -> int:
    """Number of distinct real roots of P in the open interval (lo, hi).

    Requires P(lo) != 0 and P(hi) != 0; an endpoint that is a root fails
    with EndpointIsRoot.  `seq` is P's sturm_sequence when the caller has
    built it already, so that several intervals share one sequence.  Its
    first term is P's primitive part, a positive multiple of P, so the
    first entry of an endpoint's sign vector is the sign of P there.
    """
    if not P:
        raise ValueError("zero polynomial")
    if not lo < hi:
        raise ValueError("need lo < hi")
    if seq is None:
        seq = sturm_sequence(P)
    v_lo = sign_vector(seq, lo.numerator, lo.denominator)
    v_hi = sign_vector(seq, hi.numerator, hi.denominator)
    for end, signs in ((lo, v_lo), (hi, v_hi)):
        if signs[0] == 0:
            raise EndpointIsRoot(f"P({end}) = 0")
    return sign_variations(v_lo) - sign_variations(v_hi)
