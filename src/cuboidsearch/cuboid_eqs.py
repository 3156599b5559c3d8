"""Cuboid equations over exact arithmetic.

A perfect cuboid (integer edges x1, x2, x3, face diagonals d1, d2, d3, space
diagonal L) reduces, in the bu = a^2 / au = b^2 parameter family, to integer
roots of an even degree-10 monic polynomial in t indexed by a coprime pair
p != q.  This module holds that polynomial's one definition, the ambient
degree-12 equation it factors out of, the rational parametrization of the
cuboid ratios, and the reconstruction of an integer cuboid from a root.

A root gives one cuboid per case, named by the string the output's hit
lines carry (CASES): "BU_EQ_A2", bu = a^2 with (a, b, u) = (pq, p^2, q^2),
and "AU_EQ_B2", au = b^2 with (a, b, u) = (p^2, pq, q^2).  The ratios come
back as a plain 6-tuple, and a CuboidWitness exists only once its four
cuboid equations have been checked.
"""

from __future__ import annotations

import math
from collections import namedtuple

TYPE_CHECKING = False  # true for type checkers, which read the import below
if TYPE_CHECKING:  # imported where used: only a hit's reconstruction needs it
    from fractions import Fraction


class InvalidInput(ValueError):
    """A value a caller chose was refused: a record's check or a command
    line's.  The CLI exits 2 on it, so library-internal checks raise a
    plain ValueError, which stays a traceback."""


class DegenerateDenominator(ArithmeticError):
    """The z-formula denominator vanished (alpha^2 * upsilon^2 = 1)."""


class NotARoot(ValueError):
    """Reconstruction was attempted for a t that is not a root."""


class VerificationFailed(RuntimeError):
    """A reconstructed septuple violates the cuboid equations.

    This must never happen for a candidate that passed the root and
    inequality checks; it signals an implementation (or theory) bug and
    aborts the run loudly.
    """


class PQPair(namedtuple("PQPair", "p q")):
    """Coprime positive integers p != q selecting one polynomial instance."""

    __slots__ = ()

    def __new__(cls, p: int, q: int) -> "PQPair":
        if p < 1 or q < 1:
            raise InvalidInput("p and q must be positive")
        if p == q:
            raise InvalidInput("p and q must differ")
        if math.gcd(p, q) != 1:
            raise InvalidInput("p and q must be coprime")
        return tuple.__new__(cls, (p, q))


# The two constraints a pair (p, q) resolves (see the module docstring);
# hits and `verify` list them in this order.
CASES = ("BU_EQ_A2", "AU_EQ_B2")


def qpq_coefficients(p: int, q: int) -> tuple[int, int, int, int, int]:
    """Coefficients (c0, c2, c4, c6, c8) of the polynomial for (p, q):
    Q(t) = t^10 + c8 t^8 + c6 t^6 + c4 t^4 + c2 t^2 + c0, that is
    Q(t) = R(t^2) with R(u) = u^5 + c8 u^4 + c6 u^3 + c4 u^2 + c2 u + c0.

    The package's one definition of Q, c0 = -p^10 q^10; asymptotics reads
    the terms of its Newton grid off these formulas.  In P = p^2, Q = q^2
    and m = PQ, swapping P and Q takes c8 to -c2/m^3 and c6 to -c4/m:
    c8 = 6Q^2 - m - 2P^2 and c2 = -m^3 (6P^2 - m - 2Q^2), and c6 = w + d
    and c4 = -m (w - d) with w = (P^2 + Q^2 - m)^2 + m^2, which the swap
    keeps, and d = 12 (m Q^2 - m P^2), which it negates.  So c6 and c4
    share one square and m (Q^2 - P^2), formed once.
    """
    P, Q = p * p, q * q
    m, P2, Q2 = P * Q, P * P, Q * Q
    m2 = m * m
    m3 = m * m2
    w = P2 + Q2 - m
    w = w * w + m2
    d = 12 * m * (Q2 - P2)
    c8 = 6 * Q2 - m - 2 * P2
    c6 = w + d
    c4 = -m * (w - d)
    c2 = -m3 * (6 * P2 - m - 2 * Q2)
    c0 = -m3 * m2
    return c0, c2, c4, c6, c8


def qpq_value(p: int, q: int, t: int) -> int:
    """Q(t) for the pair (p, q): R(t^2) by Horner's scheme on the
    coefficients of qpq_coefficients.

    Q is even and monic of degree 10 with constant coefficient
    -p^10 q^10, so any integer root divides p^10 q^10.
    """
    c0, c2, c4, c6, c8 = qpq_coefficients(p, q)
    u = t * t
    return ((((u + c8) * u + c6) * u + c4) * u + c2) * u + c0


def build_rpq(pair: PQPair) -> tuple[int, ...]:
    """The monic degree-5 polynomial R with Q(t) = R(t^2) for the pair, as
    its coefficient tuple (c0, c2, c4, c6, c8, 1), lowest power first:
    R(u) = u^5 + c8 u^4 + c6 u^3 + c4 u^2 + c2 u + c0."""
    return qpq_coefficients(pair.p, pair.q) + (1,)


def full_eq_coefficients(a: int, b: int, u: int) -> tuple[int, ...]:
    """Coefficients (e0, e2, ..., e12) of the even, monic, degree-12
    equation for parameters (a, b, u).

    The single source of its coefficient formulas.  They depend on a and b
    only through s = a^2 + b^2 and ab = a^2 b^2, so swapping a and b gives
    the same polynomial.  They are written over the shared products ab^2,
    u^2 ab s, u^2 s and k = s^2 - 14 ab, for example e2 = 2u^2 (3 ab^2 -
    u^2 ab s), e4 = 4 u^2 ab s + u^4 k + ab^2 and e8 = u^4 + k + 4 u^2 s.
    """
    a2, b2, u2 = a * a, b * b, u * u
    s, ab, u4 = a2 + b2, a2 * b2, u2 * u2
    ab2, k, us = ab * ab, s * s - 14 * ab, u2 * s
    usab = us * ab
    return (
        u4 * ab2,
        2 * u2 * (3 * ab2 - usab),
        4 * usab + u4 * k + ab2,
        2 * (u2 * (3 * k + 32 * ab - us) - ab * s),
        u4 + k + 4 * us,
        6 * u2 - 2 * s,
        1,
    )


def factorization_check(p: int, q: int) -> bool:
    """Check, for the pair (p, q), that (t - pq)(t + pq) times the degree-10
    polynomial equals the degree-12 equation under both parameter
    substitutions, coefficient-wise.  Like qpq_coefficients it takes the two
    integers, so a caller walking many pairs builds no PQPair.

    With m = p^2 q^2 the product's even coefficients are, in closed form,
    (-m c0, c0 - m c2, c2 - m c4, c4 - m c6, c6 - m c8, c8 - m, 1).  The
    substitutions (a, b, u) = (pq, p^2, q^2) and (p^2, pq, q^2) differ only
    by swapping a and b, and full_eq_coefficients depends on a and b only
    through a^2 + b^2 and a^2 b^2, so both give one tuple and one
    comparison checks both.
    """
    pq, q2 = p * q, q * q
    m = pq * pq
    c0, c2, c4, c6, c8 = qpq_coefficients(p, q)
    product = (-m * c0, c0 - m * c2, c2 - m * c4, c4 - m * c6, c6 - m * c8, c8 - m, 1)
    return product == full_eq_coefficients(pq, p * p, q2)


def param_ratios(
    upsilon: Fraction, z: Fraction, alpha: Fraction, beta: Fraction
) -> tuple[Fraction, ...]:
    """Exact cuboid ratios (x1, x2, x3, d1, d2, d3), each over L, from the
    four rational parameters.

    Two identities hold for any inputs: (x2/L)^2 + (x3/L)^2 = (d1/L)^2 and
    (x1/L)^2 + (d1/L)^2 = 1.
    """
    u2 = upsilon * upsilon
    z2 = z * z
    du = 1 + u2
    dz = 1 + z2
    x1 = 2 * upsilon / du
    d1 = (1 - u2) / du
    x2 = 2 * z * (1 - u2) / (du * dz)
    x3 = (1 - u2) * (1 - z2) / (du * dz)
    d2 = (du * dz + 2 * z * (1 - u2)) / (du * dz) * beta
    d3 = 2 * (u2 * z2 + 1) / (du * dz) * alpha
    return x1, x2, x3, d1, d2, d3


def compute_z(upsilon: Fraction, alpha: Fraction, beta: Fraction) -> Fraction:
    """The dependent parameter z; fails when alpha^2 upsilon^2 = 1."""
    den = 2 * (1 + beta * beta) * (1 - alpha * alpha * upsilon * upsilon)
    if den == 0:
        raise DegenerateDenominator("alpha^2 * upsilon^2 = 1")
    return (1 + upsilon * upsilon) * (1 - beta * beta) * (1 + alpha * alpha) / den


class CuboidWitness(namedtuple("CuboidWitness", "p q t case x1 x2 x3 d1 d2 d3 L")):
    """An integer cuboid reconstructed from the root t of the pair (p, q)
    under `case`, one of CASES: edges x1, x2, x3, face diagonals d1, d2,
    d3 and space diagonal L.  Only `reconstruct_cuboid`, after checking
    the cuboid equations, makes one."""

    __slots__ = ()

    def septuple(self) -> tuple:
        return (self.x1, self.x2, self.x3, self.d1, self.d2, self.d3, self.L)

    def reduced(self) -> tuple:
        """The gcd-reduced (primitive) septuple; reported, not required."""
        septuple = self.septuple()
        g = math.gcd(*septuple)
        return tuple(v // g for v in septuple)

    def to_json_dict(self) -> dict:
        return {
            "p": self.p,
            "q": self.q,
            "t": self.t,
            "case": self.case,
            "cuboid": {
                "x1": self.x1, "x2": self.x2, "x3": self.x3,
                "d1": self.d1, "d2": self.d2, "d3": self.d3, "L": self.L,
            },
            "verified": True,
        }


def _check_cuboid_equations(x1, x2, x3, d1, d2, d3, L) -> bool:
    return (
        x1 * x1 + x2 * x2 + x3 * x3 == L * L
        and x2 * x2 + x3 * x3 == d1 * d1
        and x3 * x3 + x1 * x1 == d2 * d2
        and x1 * x1 + x2 * x2 == d3 * d3
    )


def reconstruct_cuboid(p: int, q: int, t: int, case: str) -> CuboidWitness:
    """Turn a root candidate (p, q, t) into an integer cuboid septuple.

    Forms (a, b, u) for the case, one of CASES, sets alpha = a/t,
    beta = b/t, upsilon = u/t, derives z and the six ratios, scales by the
    least common multiple of the ratio denominators, and verifies the four
    cuboid equations exactly.  Raises ValueError for a case not in CASES,
    NotARoot for non-roots, and VerificationFailed (abort-worthy) if the
    scaled septuple does not satisfy the equations.
    """
    from fractions import Fraction

    if case not in CASES:
        raise ValueError(f"case must be one of {', '.join(CASES)}, not {case!r}")
    PQPair(p, q)  # checks the pair
    if t < 1:
        raise ValueError("t must be positive")
    if qpq_value(p, q, t) != 0:
        raise NotARoot(f"t={t} is not a root for (p={p}, q={q})")
    a, b = (p * q, p * p) if case == "BU_EQ_A2" else (p * p, p * q)
    alpha = Fraction(a, t)
    beta = Fraction(b, t)
    upsilon = Fraction(q * q, t)
    z = compute_z(upsilon, alpha, beta)
    ratios = param_ratios(upsilon, z, alpha, beta)
    L = math.lcm(*(r.denominator for r in ratios))
    x1, x2, x3, d1, d2, d3 = (int(r * L) for r in ratios)
    if not _check_cuboid_equations(x1, x2, x3, d1, d2, d3, L):
        raise VerificationFailed(
            f"septuple for (p={p}, q={q}, t={t}, {case}) "
            "violates the cuboid equations"
        )
    return CuboidWitness(p, q, t, case, x1, x2, x3, d1, d2, d3, L)
