"""Cuboid equations over exact arithmetic.

A perfect cuboid (integer edges x1, x2, x3, face diagonals d1, d2, d3, space
diagonal L) reduces, in the bu = a^2 / au = b^2 parameter family, to integer
roots of an even degree-10 monic polynomial in t indexed by a coprime pair
p != q.  This module builds that polynomial, the ambient degree-12 equation
it factors out of, the rational parametrization of the cuboid ratios, and
the reconstruction of an integer cuboid from a candidate root.
"""

from __future__ import annotations

import math
from enum import Enum
from fractions import Fraction
from typing import NamedTuple, Tuple


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


# A NamedTuple class may not define __new__, so each record that checks its
# values is a subclass of its fields' NamedTuple, with the checks in __new__.
class _PQPairFields(NamedTuple):
    p: int
    q: int


class PQPair(_PQPairFields):
    """Coprime positive integers p != q selecting one polynomial instance."""

    __slots__ = ()

    def __new__(cls, p: int, q: int) -> "PQPair":
        if p < 1 or q < 1:
            raise ValueError("p and q must be positive")
        if p == q:
            raise ValueError("p and q must differ")
        if math.gcd(p, q) != 1:
            raise ValueError("p and q must be coprime")
        return tuple.__new__(cls, (p, q))


class FullEqParams(NamedTuple):
    """Parameters (a, b, u) of the ambient degree-12 equation; CaseTag.params
    builds them from the positive p and q of a pair."""

    a: int
    b: int
    u: int


class CaseTag(Enum):
    """Which constraint the pair (p, q) resolves: bu = a^2 or au = b^2."""

    BU_EQ_A2 = "BU_EQ_A2"  # a = p*q, b = p^2, u = q^2
    AU_EQ_B2 = "AU_EQ_B2"  # a = p^2, b = p*q, u = q^2

    def params(self, p: int, q: int) -> FullEqParams:
        if self is CaseTag.BU_EQ_A2:
            return FullEqParams(a=p * q, b=p * p, u=q * q)
        return FullEqParams(a=p * p, b=p * q, u=q * q)


# Fully expanded coefficient grid of the degree-10 polynomial:
# power of t -> list of (power of p, power of q, integer coefficient).
# This is the single source for the Newton-polygon node set; qpq_value and
# build_rpq use the factored coefficient formulas (qpq_coefficients), and
# the tests check both agree.
QPQ_TERMS = {
    10: [(0, 0, 1)],
    8: [(0, 4, 6), (2, 2, -1), (4, 0, -2)],
    6: [(0, 8, 1), (2, 6, 10), (4, 4, 4), (6, 2, -14), (8, 0, 1)],
    4: [(2, 10, -1), (4, 8, 14), (6, 6, -4), (8, 4, -10), (10, 2, -1)],
    2: [(6, 10, 2), (8, 8, 1), (10, 6, -6)],
    0: [(10, 10, -1)],
}


def qpq_coefficients(p: int, q: int) -> Tuple[int, int, int, int, int]:
    """Coefficients (c0, c2, c4, c6, c8) of the polynomial for (p, q):
    Q(t) = t^10 + c8 t^8 + c6 t^6 + c4 t^4 + c2 t^2 + c0, that is
    Q(t) = R(t^2) with R(u) = u^5 + c8 u^4 + c6 u^3 + c4 u^2 + c2 u + c0.

    The single source of the factored coefficient formulas; c0 = -p^10 q^10.
    """
    p2, q2 = p * p, q * q
    p4, q4, m = p2 * p2, q2 * q2, p2 * q2
    m2 = m * m
    c8 = (2 * q2 + p2) * (3 * q2 - 2 * p2)
    c6 = q4 * q4 + 10 * m * q4 + 4 * m2 - 14 * m * p4 + p4 * p4
    c4 = -m * (q4 * q4 - 14 * m * q4 + 4 * m2 + 10 * m * p4 + p4 * p4)
    c2 = -m * m2 * (q2 + 2 * p2) * (3 * p2 - 2 * q2)
    c0 = -m2 * m2 * m
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


def build_rpq(pair: PQPair) -> Tuple[int, ...]:
    """The monic degree-5 polynomial R with Q(t) = R(t^2) for the pair, as
    its coefficient tuple (c0, c2, c4, c6, c8, 1), lowest power first:
    R(u) = u^5 + c8 u^4 + c6 u^3 + c4 u^2 + c2 u + c0."""
    return qpq_coefficients(pair.p, pair.q) + (1,)


def full_eq_coefficients(a: int, b: int, u: int) -> Tuple[int, ...]:
    """Coefficients (e0, e2, ..., e12) of the even, monic, degree-12
    equation for parameters (a, b, u).

    The single source of its coefficient formulas.  They depend on a and b
    only through s = a^2 + b^2 and ab = a^2 b^2, so swapping a and b gives
    the same polynomial.
    """
    a2, b2, u2 = a * a, b * b, u * u
    s, ab, u4 = a2 + b2, a2 * b2, u2 * u2
    s2 = s * s
    return (
        u4 * ab * ab,
        6 * u2 * ab * ab - 2 * u4 * ab * s,
        4 * u2 * ab * s + u4 * s2 - 14 * u4 * ab + ab * ab,
        6 * u2 * s2 - 20 * u2 * ab - 2 * u4 * s - 2 * ab * s,
        u4 + s2 - 14 * ab + 4 * u2 * s,
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


class RatioSet(NamedTuple):
    """The six cuboid ratios x_i / L and d_i / L."""

    x1: Fraction
    x2: Fraction
    x3: Fraction
    d1: Fraction
    d2: Fraction
    d3: Fraction


def param_ratios(
    upsilon: Fraction, z: Fraction, alpha: Fraction, beta: Fraction
) -> RatioSet:
    """Exact cuboid ratios from the four rational parameters.

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
    return RatioSet(x1, x2, x3, d1, d2, d3)


def compute_z(upsilon: Fraction, alpha: Fraction, beta: Fraction) -> Fraction:
    """The dependent parameter z; fails when alpha^2 upsilon^2 = 1."""
    den = 2 * (1 + beta * beta) * (1 - alpha * alpha * upsilon * upsilon)
    if den == 0:
        raise DegenerateDenominator("alpha^2 * upsilon^2 = 1")
    return (1 + upsilon * upsilon) * (1 - beta * beta) * (1 + alpha * alpha) / den


class CuboidWitness(NamedTuple):
    """A verified integer cuboid reconstructed from a root candidate."""

    p: int
    q: int
    t: int
    case_tag: CaseTag
    x1: int
    x2: int
    x3: int
    d1: int
    d2: int
    d3: int
    L: int
    verified: bool

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
            "case": self.case_tag.value,
            "cuboid": {
                "x1": self.x1, "x2": self.x2, "x3": self.x3,
                "d1": self.d1, "d2": self.d2, "d3": self.d3, "L": self.L,
            },
            "verified": self.verified,
        }


def _check_cuboid_equations(x1, x2, x3, d1, d2, d3, L) -> bool:
    return (
        x1 * x1 + x2 * x2 + x3 * x3 == L * L
        and x2 * x2 + x3 * x3 == d1 * d1
        and x3 * x3 + x1 * x1 == d2 * d2
        and x1 * x1 + x2 * x2 == d3 * d3
    )


def reconstruct_cuboid(p: int, q: int, t: int, case_tag: CaseTag) -> CuboidWitness:
    """Turn a root candidate (p, q, t) into an integer cuboid septuple.

    Forms (a, b, u) for the case, sets alpha = a/t, beta = b/t,
    upsilon = u/t, derives z and the six ratios, scales by the least common
    multiple of the ratio denominators, and verifies the four cuboid
    equations exactly.  Raises NotARoot for non-roots, and
    VerificationFailed (abort-worthy) if the scaled septuple does not
    satisfy the equations.
    """
    pair = PQPair(p, q)
    if t < 1:
        raise ValueError("t must be positive")
    if qpq_value(p, q, t) != 0:
        raise NotARoot(f"t={t} is not a root for (p={p}, q={q})")
    params = case_tag.params(p, q)
    alpha = Fraction(params.a, t)
    beta = Fraction(params.b, t)
    upsilon = Fraction(params.u, t)
    z = compute_z(upsilon, alpha, beta)
    ratios = param_ratios(upsilon, z, alpha, beta)
    L = math.lcm(*(r.denominator for r in ratios))
    ints = [int(r * L) for r in ratios]
    x1, x2, x3, d1, d2, d3 = ints
    if not _check_cuboid_equations(x1, x2, x3, d1, d2, d3, L):
        raise VerificationFailed(
            f"septuple for (p={p}, q={q}, t={t}, {case_tag.value}) "
            "violates the cuboid equations"
        )
    return CuboidWitness(
        p=p, q=q, t=t, case_tag=case_tag,
        x1=x1, x2=x2, x3=x3, d1=d1, d2=d2, d3=d3, L=L,
        verified=True,
    )
