"""Exact arithmetic substrate, in integers only.

The real quadratic field of numbers (A + B*sqrt(2))/D held as three
integers, and univariate integer polynomials held as tuples of
coefficients (P[i] is the coefficient of t^i, no trailing zero, () for the
zero polynomial).  Signs in the field, square roots in it, and polynomial
values at its points, scaled into Z[sqrt(2)], are computed in integers only.
Everything here is an immutable value and every operation is a pure
function, so all of it is safe to use from parallel workers.  No floating
point is used in any decision procedure.
"""

from __future__ import annotations

import math
from collections import namedtuple

Poly = tuple[int, ...]  # coefficients, lowest power first


class QuadRational(namedtuple("QuadRational", "A B D")):
    """The number (A + B*sqrt(2))/D with integers A, B and D > 0.

    The constructor divides by gcd(A, B, D) and moves the sign onto A and B,
    so each number has one triple: sqrt(2) is irrational, so equal values
    give equal triples and the tuple __eq__ is exact.  This is the field's
    one representation: Z[sqrt(2)] is its ring of integers, so D is the
    least integer that takes the number into that ring.  The arithmetic
    operators are the field's own, `*` also by an int; none falls through
    to tuple concatenation or repetition.  So is the order: one sign of the
    cross-multiplied difference (A D2 - A2 D) + (B D2 - B2 D) sqrt(2), and
    only against another QuadRational, on either side.
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

    def __add__(self, other: "QuadRational") -> "QuadRational":
        if not isinstance(other, QuadRational):
            return NotImplemented
        A, B, D = self
        A2, B2, D2 = other
        return QuadRational(A * D2 + A2 * D, B * D2 + B2 * D, D * D2)

    def __radd__(self, other):
        # Python tries this before tuple.__add__, which would concatenate a
        # plain tuple on the left, so it refuses rather than deferring
        raise TypeError(
            f"unsupported operand type(s) for +: {type(other).__name__!r}"
            " and 'QuadRational'"
        )

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
        if isinstance(other, int):
            return QuadRational(A * other, B * other, D)
        return NotImplemented

    __rmul__ = __mul__

    def __lt__(self, other: "QuadRational") -> bool:
        return _order(self, other) < 0

    def __le__(self, other: "QuadRational") -> bool:
        return _order(self, other) <= 0

    def __gt__(self, other: "QuadRational") -> bool:
        return _order(self, other) > 0

    def __ge__(self, other: "QuadRational") -> bool:
        return _order(self, other) >= 0

    def __str__(self) -> str:
        A, B, D = self
        if not B:  # (A, 0, D) is reduced, so A/D is in lowest terms
            return str(A) if D == 1 else f"{A}/{D}"
        if not A:
            return f"{_ratio_text(B, D)}*sqrt(2)"
        op = "+" if B > 0 else "-"
        return f"{_ratio_text(A, D)} {op} {_ratio_text(abs(B), D)}*sqrt(2)"


def _order(x: QuadRational, y: QuadRational) -> int:
    """The sign of x - y, with no gcd: both denominators are positive.
    x is the QuadRational whose operator was called, on either side; y must
    be one too, or a plain tuple would be read as a triple."""
    if not isinstance(y, QuadRational):
        raise TypeError(f"cannot order a QuadRational and a {type(y).__name__!r}")
    (A, B, D), (A2, B2, D2) = x, y
    return sqrt2_sign(A * D2 - A2 * D, B * D2 - B2 * D)


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
    return sqrt2_sign(x.A, x.B)


def sqrt2_sign(a: int, b: int) -> int:
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


def _square_root(n: int) -> int | None:
    """The integer square root of n if n is a perfect square, else None."""
    if n < 0:
        return None
    r = math.isqrt(n)
    return r if r * r == n else None


def quad_sqrt(x: QuadRational) -> QuadRational | None:
    """Positive square root of x inside the field, or None if it does not
    stay in the field.  Requires x >= 0.

    Z[sqrt(2)] is the field's ring of integers, so a root in the field of
    the element (A + B*sqrt(2))*D of that ring lies in it too: the root of
    x = (A + B*sqrt(2))/D is (u + v*sqrt(2))/D with integers u and v,
    u^2 + 2v^2 = AD and 2uv = BD.  Then u^2 and 2v^2 are (AD + s)/2 and
    (AD - s)/2 in some order, where s^2 = (AD)^2 - 2(BD)^2, so integer
    square roots decide it.
    """
    sign = quad_sign(x)
    if sign < 0:
        raise ValueError("square root of a negative value")
    if not sign:
        return QUAD_ZERO
    A, B, D = x
    a, b = A * D, B * D
    s = _square_root(a * a - 2 * b * b)
    if s is None:
        return None
    for u2 in ((a + s) // 2, (a - s) // 2):  # a and s have one parity
        u, v = _square_root(u2), _square_root((a - u2) // 2)
        if u is None or v is None or u2 + 2 * v * v != a:
            continue
        if 2 * u * v != b:  # (2uv)^2 = b^2 here, so only the sign differs
            v = -v
        root = QuadRational(u, v, D)
        return root if sqrt2_sign(u, v) > 0 else -root
    return None


def value_at_sqrt2(P: Poly, A: int, B: int, D: int) -> tuple[int, int]:
    """D^k P(x) at x = (A + B*sqrt(2))/D for integers A, B and D > 0, with
    k = deg P, as the pair (u, v) standing for u + v*sqrt(2).

    D^k P(x) = sum c_i (A + B*sqrt(2))^i D^(k-i), which one homogeneous
    Horner pass computes over integer pairs, without a division; D^k > 0,
    so sqrt2_sign(u, v) is the sign of P(x).  P has integer coefficients,
    so at the conjugate point (A - B*sqrt(2))/D the value is u - v*sqrt(2):
    one pass gives the sign at both.  At a rational point (B = 0) v stays
    0, so the pass runs on u alone; the zero polynomial gives (0, 0).
    """
    u = v = 0
    d_pow = 1
    if not B:
        for c in reversed(P):
            u = u * A + c * d_pow
            d_pow *= D
        return u, 0
    for c in reversed(P):
        u, v = u * A + 2 * v * B + c * d_pow, u * B + v * A
        d_pow *= D
    return u, v
