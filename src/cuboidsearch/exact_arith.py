"""Exact arithmetic substrate.

Rationals (stdlib Fraction: always reduced, positive denominator), the real
quadratic field of numbers a + b*sqrt(2), univariate integer polynomials, and
Sturm-sequence real-root counting.  Polynomial signs at rational and
sqrt(2)-field points, and Sturm sequences, are computed in integers only.
Everything here is an immutable value and every operation is a pure
function, so all of it is safe to use from parallel workers.  No floating
point is used in any decision procedure; decimal approximations exist only
for display and for oracle cross-checks.
"""

from __future__ import annotations

import math
from fractions import Fraction
from typing import Iterable, NamedTuple, Optional, Sequence, Union

RatLike = Union[int, Fraction]


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


class QuadRational(NamedTuple):
    """The number a + b*sqrt(2) with rational a, b.

    The representation is unique because sqrt(2) is irrational, so equality
    is field-wise and the tuple __eq__ is exact.  The arithmetic operators
    are the field's own; none falls through to tuple concatenation or
    repetition.
    """

    a: Fraction
    b: Fraction

    @staticmethod
    def of(a: RatLike, b: RatLike = 0) -> "QuadRational":
        return QuadRational(Fraction(a), Fraction(b))

    def __add__(self, other: "QuadRational") -> "QuadRational":
        return QuadRational(self.a + other.a, self.b + other.b)

    def __sub__(self, other: "QuadRational") -> "QuadRational":
        return QuadRational(self.a - other.a, self.b - other.b)

    def __neg__(self) -> "QuadRational":
        return QuadRational(-self.a, -self.b)

    def __mul__(self, other) -> "QuadRational":
        if isinstance(other, QuadRational):
            return QuadRational(
                self.a * other.a + 2 * self.b * other.b,
                self.a * other.b + self.b * other.a,
            )
        return QuadRational(self.a * other, self.b * other)

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
        if self.b != 0:
            raise ValueError("value has a nonzero sqrt(2) part")
        return self.a

    def over_common_denominator(self) -> tuple:
        """Integers (A, B, D) with D > 0 the least common denominator of a
        and b, so that the number is (A + B*sqrt(2))/D."""
        a, b = self.a, self.b
        D = math.lcm(a.denominator, b.denominator)
        return a.numerator * (D // a.denominator), b.numerator * (D // b.denominator), D

    def __str__(self) -> str:
        if self.b == 0:
            return str(self.a)
        if self.a == 0:
            return f"{self.b}*sqrt(2)"
        op = "+" if self.b > 0 else "-"
        return f"{self.a} {op} {abs(self.b)}*sqrt(2)"


QUAD_ZERO = QuadRational(Fraction(0), Fraction(0))


def quad_sign(x: QuadRational) -> int:
    """Exact sign of a + b*sqrt(2), by integer comparisons only.

    Scaling by the positive product of the denominators leaves integers
    A + B*sqrt(2) of the same sign.  Compares A^2 against 2 B^2 with a case
    split on the signs of A and B; sqrt(2) is never approximated.
    """
    a, b = x.a, x.b
    return _sqrt2_sign(a.numerator * b.denominator, b.numerator * a.denominator)


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
    A, B = x.a, x.b
    if B == 0:
        r = rational_sqrt(A)
        if r is not None:
            return QuadRational(r, Fraction(0))
        r = rational_sqrt(A / 2)
        if r is not None:
            return QuadRational(Fraction(0), r)
        return None
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
        cand = QuadRational(u, v)
        if cand * cand == x and quad_sign(cand) > 0:
            return cand
        cand = -cand
        if cand * cand == x and quad_sign(cand) > 0:
            return cand
    return None


class IntPoly(NamedTuple):
    """Univariate integer polynomial; coeffs[i] is the coefficient of t^i.

    The package evaluates polynomials but never combines them, so IntPoly
    has no arithmetic: P + Q, P * Q, 2 * P and P * 2 are TypeErrors, never
    tuple concatenation or repetition.  The tests' oracles multiply and
    subtract polynomials as plain functions."""

    coeffs: tuple

    @staticmethod
    def of(coeffs: Iterable[int]) -> "IntPoly":
        cs = list(coeffs)
        while cs and cs[-1] == 0:
            cs.pop()
        return IntPoly(tuple(int(c) for c in cs))

    @property
    def degree(self) -> int:
        return len(self.coeffs) - 1  # -1 for the zero polynomial

    def is_zero(self) -> bool:
        return not self.coeffs

    def derivative(self) -> "IntPoly":
        return IntPoly.of(i * c for i, c in enumerate(self.coeffs) if i >= 1)

    def _no_arithmetic(self, other):
        return NotImplemented

    __add__ = __mul__ = __rmul__ = _no_arithmetic

    def eval_int(self, x: int) -> int:
        acc = 0
        for c in reversed(self.coeffs):
            acc = acc * x + c
        return acc


def sign_at_sqrt2(P: IntPoly, A: int, B: int, D: int) -> int:
    """Exact sign of P((A + B*sqrt(2))/D) for integers A, B and D > 0.

    The homogeneous Horner pass of sign_vector runs over integer pairs (u, v)
    standing for u + v*sqrt(2); the sign of the final pair is decided as in
    quad_sign.
    """
    u = v = 0
    d_pow = 1
    for c in reversed(P.coeffs):
        u, v = u * A + 2 * v * B + c * d_pow, u * B + v * A
        d_pow *= D
    return _sqrt2_sign(u, v)


def _primitive(coeffs: Sequence[int]) -> IntPoly:
    """Divide by the positive content, giving primitive integer coefficients.

    The positive scale preserves signs everywhere, which Sturm's theorem
    relies on; it also keeps coefficient growth under control along the
    remainder sequence.
    """
    g = math.gcd(*coeffs)
    return IntPoly.of(c // g for c in coeffs) if g else IntPoly(())


def _neg_pseudo_rem(f: Sequence[int], g: Sequence[int]) -> list:
    """A positive multiple of -rem(f, g), in integer arithmetic.

    Each elimination step replaces r by (lc(g)/h) r - (lc(r)/h) t^k g with
    h = gcd(lc(g), lc(r)) > 0, which scales the remainder by lc(g)/h; the
    signs of those scales are multiplied up so that the result is a
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
        r = [mg * c for c in r]
        for i in range(dg):
            r[k + i] -= mr * g[i]
        if mg < 0:
            sign = -sign
        while r and r[-1] == 0:
            r.pop()
    return [sign * c for c in r]


def sturm_sequence(P: IntPoly) -> list:
    """Signed remainder sequence of P, with primitive-part reduction.

    Each term is the primitive integer polynomial that is a positive
    multiple of the negated remainder of the two before it, computed as an
    integer pseudo-remainder (Collins; Brown and Traub), so no rational
    arithmetic is needed and every term keeps the signs Sturm's theorem
    counts.
    """
    seq = [_primitive(P.coeffs)]
    d = P.derivative()
    if d.is_zero():
        return seq
    seq.append(_primitive(d.coeffs))
    while seq[-1].degree > 0:
        rem = _neg_pseudo_rem(seq[-2].coeffs, seq[-1].coeffs)
        if not rem:
            break
        seq.append(_primitive(rem))
    return seq


def sign_vector(seq: Sequence[IntPoly], n: int, d: int) -> list:
    """Signs of every polynomial of `seq` at n/d, for integers n and d > 0.

    With k = deg P, P(n/d) has the sign of d^k P(n/d) = sum c_i n^i d^(k-i),
    which one homogeneous Horner pass computes without a single division.
    The powers of d are built once, for the first polynomial, which has the
    highest degree in a Sturm sequence, and shared by the rest.
    """
    d_pows = [1]
    for _ in range(len(seq[0].coeffs) - 1):
        d_pows.append(d_pows[-1] * d)
    signs = []
    for poly in seq:
        acc = 0
        for c, d_pow in zip(reversed(poly.coeffs), d_pows):
            acc = acc * n + c * d_pow
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
    P: IntPoly, lo: RatLike, hi: RatLike, seq: Optional[Sequence[IntPoly]] = None
) -> int:
    """Number of distinct real roots of P in the open interval (lo, hi).

    Requires P(lo) != 0 and P(hi) != 0; an endpoint that is a root fails
    with EndpointIsRoot.  `seq` is P's sturm_sequence when the caller has
    built it already, so that several intervals share one sequence.  Its
    first term is P's primitive part, a positive multiple of P, so the
    first entry of an endpoint's sign vector is the sign of P there.
    """
    if P.is_zero():
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
