"""Root asymptotics of the degree-10 polynomial for q much larger than p.

The polynomial, written as a sum A_{m,r}(p) q^r t^m, has a Newton polygon
whose upper-boundary slopes give the growth exponents of its roots in q.
For q >= 59 p the five roots in the upper half plane (three real, two purely
imaginary) lie in five explicit disjoint open intervals with endpoints in
the rationals or in the sqrt(2) field.  Each interval is certified to hold
exactly one root, and Q to have no root outside them and their mirror
images, by a degree count: the exact order of the ends and exact endpoint
signs of the degree-5 R with Q(t) = R(t^2) account for all five roots of R.
"""

from __future__ import annotations

from collections import namedtuple
from collections.abc import Iterator

from .exact_arith import (
    QUAD_ZERO,
    QuadRational,
    quad_sign,
    quad_sqrt,
    sqrt2_sign,
    value_at_sqrt2,
)
from .cuboid_eqs import InvalidInput, PQPair, build_rpq, qpq_coefficients

TYPE_CHECKING = False  # true for type checkers, which read the import below
if TYPE_CHECKING:  # imported where used: only `newton` builds a Fraction
    from fractions import Fraction


class PreconditionViolated(InvalidInput):
    """The interval theorems require q >= 59 p."""


class DegenerateHull(ValueError):
    """All nodes share one t-power; no slope is defined."""


class CertificationFailed(RuntimeError):
    """An interval failed its root certificate; names the interval and check."""


class NewtonNode(namedtuple("NewtonNode", "m r c e")):
    """Grid node (m, r) whose coefficient of t^m q^r is the monomial c*p^e.

    The polynomial is homogeneous in (p, q, t), so each node has a single
    power of p."""

    __slots__ = ()


class NewtonPolygon(
    namedtuple("NewtonPolygon", "nodes upper_hull segment_slopes exponents")
):
    """The grid's upper hull: `nodes` are all NewtonNode, sorted by (m, r);
    `upper_hull` the (m, r) vertices in increasing m; `segment_slopes` the
    Fraction slope of each hull segment and `exponents` their negatives,
    ascending."""

    __slots__ = ()


def balanced_digits(n: int, base: int) -> Iterator[tuple[int, int]]:
    """(position, digit) for each nonzero digit of n in balanced base
    `base`, lowest first; every digit lies in [-base/2, base/2)."""
    position, half = 0, base // 2
    while n:
        n, digit = divmod(n + half, base)
        if digit != half:
            yield position, digit - half
        position += 1


def build_newton_grid() -> tuple:
    """The (m, r, c, e) nodes of the degree-10 polynomial, one per term
    c p^e q^r t^m, sorted by (m, r), read off qpq_coefficients at p = B^21
    and q = B with B = 2^16: as every |c| < B/2 and every r <= 20, the term
    is the balanced base-B digit c at position 21e + r.  Q is homogeneous,
    so e + r = 20 - 2m, which leaves one power of p at each (m, r); a term
    that breaks this raises ValueError.
    """
    B = 2**16
    nodes = []
    for m, value in zip(range(0, 12, 2), qpq_coefficients(B**21, B) + (1,)):
        for e, chunk in balanced_digits(value, B**21):
            for r, c in balanced_digits(chunk, B):
                if e + r != 20 - 2 * m:
                    raise ValueError(f"term {c}*p^{e}*q^{r}*t^{m} breaks homogeneity")
                nodes.append(NewtonNode(m, r, c, e))
    return tuple(sorted(nodes))


def _cross(o, a, b) -> int:
    return (a[0] - o[0]) * (b[1] - o[1]) - (a[1] - o[1]) * (b[0] - o[0])


def upper_hull(nodes) -> NewtonPolygon:
    """Upper convex hull of the node set, with slopes and root exponents.

    Monotone chain over points sorted by (m, r); exact integer cross
    products only.
    """
    from fractions import Fraction

    points = sorted({(n.m, n.r) for n in nodes})
    if len({m for m, _ in points}) < 2:
        raise DegenerateHull("all nodes share one t-power")
    hull: list[tuple[int, int]] = []
    for pt in reversed(points):  # right to left builds the upper boundary
        while len(hull) >= 2 and _cross(hull[-2], hull[-1], pt) <= 0:
            hull.pop()
        hull.append(pt)
    hull.reverse()
    slopes = tuple(
        Fraction(b[1] - a[1], b[0] - a[0]) for a, b in zip(hull, hull[1:])
    )
    # the slopes of a strict upper hull fall from left to right
    exponents = tuple(-k for k in slopes)
    return NewtonPolygon(
        nodes=tuple(sorted(nodes, key=lambda n: (n.m, n.r))),
        upper_hull=tuple(hull),
        segment_slopes=slopes,
        exponents=exponents,
    )


class LeadingTerm(
    namedtuple("LeadingTerm", "exponent magnitude p_power axis multiplicity")
):
    """Leading factor of one root expansion: magnitude * p^p_power * q^exponent,
    on the real or imaginary axis (axis "REAL" or "IMAGINARY"), with a
    Fraction exponent and a QuadRational magnitude > 0."""

    __slots__ = ()


def _solve_even_gamma(coeffs: list[int]) -> list[tuple[QuadRational, str, int]]:
    """Admissible roots of an even integer polynomial in gamma.

    coeffs are in s = gamma^2, degree <= 2.  Returns (magnitude, axis,
    multiplicity) triples keeping only roots with gamma > 0 (real) or with
    positive imaginary part (imaginary axis).
    """
    s_roots: list[tuple[QuadRational, int]] = []
    if len(coeffs) == 2:
        c0, c1 = coeffs
        s_roots.append((QuadRational(-c0, 0, c1), 1))
    elif len(coeffs) == 3:
        c0, c1, c2 = coeffs
        disc = c1 * c1 - 4 * c2 * c0
        if disc == 0:
            s_roots.append((QuadRational(-c1, 0, 2 * c2), 2))
        else:
            sq = quad_sqrt(QuadRational(disc))
            if sq is None:
                raise ValueError("discriminant outside the sqrt(2) field")
            half = QuadRational(1, 0, 2 * c2)
            base = QuadRational(-c1)
            s_roots.append(((base + sq) * half, 1))
            s_roots.append(((base - sq) * half, 1))
    else:
        raise ValueError("expected degree 1 or 2 in gamma^2")

    out = []
    for s, mult in s_roots:
        sgn = quad_sign(s)
        if sgn == 0:
            continue  # gamma = 0 is divided out beforehand
        if sgn > 0:
            gamma = quad_sqrt(s)
            if gamma is None:
                raise ValueError("real root magnitude outside the sqrt(2) field")
            out.append((gamma, "REAL", mult))
        else:
            mag = quad_sqrt(-s)
            if mag is None:
                raise ValueError("imaginary root magnitude outside the sqrt(2) field")
            out.append((mag, "IMAGINARY", mult))
    return out


def leading_coefficients(polygon: NewtonPolygon, exponent: Fraction) -> list[LeadingTerm]:
    """Admissible leading terms for the hull segment of slope -exponent.

    Collects the grid nodes on that segment, substitutes C = gamma * p^w
    with the p-weight w read off the segment, reduces to an integer
    polynomial in gamma^2, and solves it exactly over the sqrt(2) field.
    Roots with gamma < 0, or below the real axis, are discarded.
    """
    from fractions import Fraction

    exponent = Fraction(exponent)
    if exponent not in polygon.exponents:
        raise ValueError(f"exponent {exponent} is not a hull exponent")
    seg = polygon.exponents.index(exponent)
    (m1, r1), (m2, r2) = polygon.upper_hull[seg:seg + 2]
    on_segment = {
        n.m: n for n in polygon.nodes
        if m1 <= n.m <= m2 and (n.r - r1) * (m2 - m1) == (n.m - m1) * (r2 - r1)
    }
    w = Fraction(on_segment[m1].e - on_segment[m2].e, m2 - m1)
    if w.denominator != 1:
        raise ValueError("fractional p-weight on hull segment")
    shifted = {m - m1: n.c for m, n in on_segment.items()}
    if any(m % 2 for m in shifted):
        raise ValueError("segment equation is not even in gamma")
    s_coeffs = [shifted.get(2 * i, 0) for i in range(max(shifted) // 2 + 1)]
    return [
        LeadingTerm(exponent, mag, int(w), axis, mult)
        for mag, axis, mult in _solve_even_gamma(s_coeffs)
    ]


class AsymptoticInterval(namedtuple("AsymptoticInterval", "label axis lo hi")):
    """Exact open interval (lo, hi) of QuadRationals certified to contain one
    root (or, for the imaginary axis, one root's imaginary part).  label is
    "T1".."T5", axis "REAL" or "IMAGINARY"."""

    __slots__ = ()


def asymptotic_intervals(pair: PQPair) -> list[AsymptoticInterval]:
    """The five exact root intervals, valid only for q >= 59 p.

    Each endpoint is built from closed-form integers as (A + B*sqrt(2))/D:
    T1 and T2 are p^2 -+ 5p^3/q, T3 is pq - 16p^3/q -+ 5p^4/q^2, and T4
    and T5 are their centres (q^2 - 2p^2) + (q^2 + p^2) sqrt(2) and
    (2p^2 - q^2) + (q^2 + p^2) sqrt(2) -+ 5p^3/q.
    """
    p, q = pair.p, pair.q
    if q < 59 * p:
        raise PreconditionViolated(f"need q >= 59p, got p={p}, q={q}")
    p2, q2 = p * p, q * q
    h = 5 * p2 * p  # half-width 5p^3/q of T1, T2, T4 and T5, times q
    h3 = h * p  # half-width 5p^4/q^2 of T3, times q^2
    c3 = p * q * q2 - 16 * p2 * p * q  # centre of T3, times q^2
    c4 = (q2 - 2 * p2) * q  # rational part of the T4 centre, times q; T5's is -c4
    s45 = (q2 + p2) * q  # sqrt(2) part of the T4 and T5 centres, times q
    square = QuadRational(p2)
    return [
        AsymptoticInterval("T1", "REAL", QuadRational(p2 * q - h, 0, q), square),
        AsymptoticInterval("T2", "REAL", square, QuadRational(p2 * q + h, 0, q)),
        AsymptoticInterval(
            "T3", "REAL", QuadRational(c3 - h3, 0, q2), QuadRational(c3 + h3, 0, q2)
        ),
        AsymptoticInterval(
            "T4", "IMAGINARY", QuadRational(c4 - h, s45, q), QuadRational(c4 + h, s45, q)
        ),
        AsymptoticInterval(
            "T5", "IMAGINARY", QuadRational(-c4 - h, s45, q), QuadRational(-c4 + h, s45, q)
        ),
    ]


class DisjointnessReport(
    namedtuple("DisjointnessReport", "broken real_gap imaginary_gap")
):
    """check_disjoint's verdict: `broken` names the first link of the order
    that fails, as "T2.hi < T3.lo", or is None when every link holds; the
    margins real_gap = T3.lo - T2.hi and imaginary_gap = T4.lo - T5.hi must
    be > 0."""

    __slots__ = ()


# The ends (0, then each interval's lo and hi, T1 to T5), and the order of
# them that the degree count of certify_roots needs, one link (left,
# relation, right) of positions at a time: 0 < T1.lo < T1.hi = T2.lo <
# T2.hi < T3.lo < T3.hi on the real axis and 0 < T5.lo < T5.hi < T4.lo <
# T4.hi on the imaginary one.
_ENDS = ("0",) + tuple(f"T{k}.{end}" for k in range(1, 6) for end in ("lo", "hi"))
_ORDER = (
    (0, "<", 1), (1, "<", 2), (2, "=", 3), (3, "<", 4), (4, "<", 5), (5, "<", 6),
    (0, "<", 9), (9, "<", 10), (10, "<", 7), (7, "<", 8),
)


def check_disjoint(intervals: list[AsymptoticInterval]) -> DisjointnessReport:
    """Exact order of the five intervals' ends, with the two gaps as margins.

    `intervals` are T1 to T5, as asymptotic_intervals lists them.  Under
    the order the five intervals are positive and disjoint, so their images
    (lo^2, hi^2) on the real axis and (-hi^2, -lo^2) on the imaginary one
    are disjoint too; T1 and T2 are open, so sharing an end they share no
    point.
    """
    ends = [QUAD_ZERO]
    for iv in intervals:
        ends += iv.lo, iv.hi
    broken = next(
        (
            f"{_ENDS[a]} {rel} {_ENDS[b]}"
            for a, rel, b in _ORDER
            if not (ends[a] == ends[b] if rel == "=" else ends[a] < ends[b])
        ),
        None,
    )
    return DisjointnessReport(
        broken=broken,
        real_gap=ends[5] - ends[4],
        imaginary_gap=ends[7] - ends[10],
    )


class RootCertificate(namedtuple("RootCertificate", "label axis sign_lo sign_hi")):
    """The signs of Q at the ends of the interval `label` ("T1".."T5"), on
    the imaginary axis at i times them (`axis` "REAL" or "IMAGINARY")."""

    __slots__ = ()


def certify_roots(
    pair: PQPair, intervals: list[AsymptoticInterval], disjoint: DisjointnessReport
) -> list[RootCertificate]:
    """Certify exactly one root of Q in each interval, and none elsewhere,
    by counting against the degree of R.

    Every check runs on the degree-5 R with Q(t) = R(t^2) (build_rpq).  Put
    u = t^2 on the real axis and u = -y^2 on the imaginary one, where
    Q(iy) = R(-y^2): a real interval (lo, hi) with 0 < lo maps onto
    (lo^2, hi^2), an imaginary one onto (-hi^2, -lo^2).  In the order that
    check_disjoint checks, the five images are disjoint open intervals.  If
    R changes sign across each, each image holds an odd number of roots, so
    at least one: five roots for a polynomial of degree 5.  So each image
    holds exactly one simple root and R has no other, real or complex, and
    each interval holds exactly one root of Q (on the imaginary axis, i
    times it), the rest of Q's roots being their negatives.

    `intervals` are the pair's asymptotic_intervals and `disjoint` is
    check_disjoint(intervals) for these same intervals (cmd_roots prints
    the report it passes); the order is not checked again.  The sign at an
    end x is that of R at u = x^2 (u = -x^2 on the imaginary axis), with
    x = (A + B sqrt(2))/D squared in integers as (A^2 + 2B^2 + 2AB
    sqrt(2))/D^2.  One memo, keyed by that exact u, holds every sign found:
    value_at_sqrt2 gives D^10 R(u) as a + b sqrt(2), and R has integer
    coefficients, so R(conj u) = conj R(u) and the sign at the conjugate
    point, sign(a - b sqrt(2)), comes with it.  T1.hi = T2.lo is one point,
    and T5's ends, -conj(T4.hi) and -conj(T4.lo), square to the conjugates
    of T4's: nine signs from seven Horner passes, five rational and two
    irrational.  An end that is neither costs a pass of its own.  Raises
    CertificationFailed naming each interval whose signs do not change or,
    when all of them do, the first link of the order that fails, so every
    certificate it returns has passed, given that report.
    """
    rpoly = build_rpq(pair)
    signs = {}  # the sign of R at each point u met, keyed by u's (A, B, D)
    certs = []
    failures = []
    for iv in intervals:
        s = 1 if iv.axis == "REAL" else -1
        ends = []
        for A, B, D in iv.lo, iv.hi:
            u = s * (A * A + 2 * B * B), s * 2 * A * B, D * D
            sign = signs.get(u)
            if sign is None:
                a, b = value_at_sqrt2(rpoly, *u)
                sign = signs[u] = sqrt2_sign(a, b)
                if u[1]:  # R(conj u) = a - b sqrt(2), over D^10
                    signs[u[0], -u[1], u[2]] = sqrt2_sign(a, -b)
            ends.append(sign)
        s_lo, s_hi = ends
        if s_lo * s_hi != -1:
            failures.append(f"{iv.label}: sign({s_lo},{s_hi})")
        certs.append(RootCertificate(iv.label, iv.axis, s_lo, s_hi))
    if not failures and disjoint.broken:
        failures.append(f"order fails at {disjoint.broken}")
    if failures:
        raise CertificationFailed(
            f"(p={pair.p}, q={pair.q}): " + "; ".join(failures)
        )
    return certs
