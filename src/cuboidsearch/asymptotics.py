"""Root asymptotics of the degree-10 polynomial for q much larger than p.

The polynomial, written as a sum A_{m,r}(p) q^r t^m, has a Newton polygon
whose upper-boundary slopes give the growth exponents of its roots in q.
The paper's upper hull and the leading terms of the roots are claims here,
certified exactly against the grid read off qpq_coefficients, as the root
intervals are: nothing is solved.
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
    sqrt2_sign,
    value_at_sqrt2,
)
from .cuboid_eqs import InvalidInput, PQPair, build_rpq, qpq_coefficients


class PreconditionViolated(InvalidInput):
    """The interval theorems require q >= 59 p."""


class CertificationFailed(RuntimeError):
    """A claim failed its certificate: a root interval, named with the check
    that failed, or the Newton hull or a leading term."""


class NewtonNode(namedtuple("NewtonNode", "m r c e")):
    """Grid node (m, r) whose coefficient of t^m q^r is the monomial c*p^e.

    The polynomial is homogeneous in (p, q, t), so each node has a single
    power of p."""

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


class LeadingTerm(
    namedtuple("LeadingTerm", "exponent magnitude p_power axis multiplicity")
):
    """Leading factor of one root expansion: magnitude * p^p_power * q^exponent,
    on the real or imaginary axis (axis "REAL" or "IMAGINARY"), with a
    rational exponent and a QuadRational magnitude > 0."""

    __slots__ = ()


# The paper's claims for Q: the upper hull of its grid, vertices (m, r) in
# increasing m, and the leading term of each upper-half-plane root, one per
# distinct root s = gamma^2 (real axis) or s = -mu^2 (imaginary axis) of a
# hull segment's equation.  certify_newton checks them against the grid.
NEWTON_HULL = ((0, 10), (4, 10), (6, 8), (10, 0))
LEADING_TERMS = (
    LeadingTerm(0, QuadRational(1), 2, "REAL", 2),
    LeadingTerm(1, QuadRational(1), 1, "REAL", 1),
    LeadingTerm(2, QuadRational(-1, 1), 0, "IMAGINARY", 1),
    LeadingTerm(2, QuadRational(1, 1), 0, "IMAGINARY", 1),
)


def certify_newton(nodes, hull, terms) -> None:
    """Certify `hull` as the upper hull of the grid `nodes`, and `terms` as
    the leading terms of the roots, or raise CertificationFailed naming the
    first claim that fails.

    The hull holds when every vertex is a node, its m increase from the
    least m of the nodes to the greatest, each inner vertex is a strict
    corner and no node lies above it: it is then the nodes' upper hull.
    A segment (m1, r1) - (m2, r2) has the exponent (r1 - r2)/(m2 - m1).
    Put C = gamma p^w into its nodes, with w = (e1 - e2)/(m2 - m1) the
    p-weight of its ends (homogeneity leaves one power of p on the
    segment): their coefficients make an integer equation in s = gamma^2
    of degree (m2 - m1)/2.  Each term's exponent must be a segment's, its
    magnitude and multiplicity positive, and its p_power w.  A segment's
    terms must sit at distinct points s = gamma^2 (real axis) or -mu^2
    (imaginary axis), where value_at_sqrt2 of the equation and of its
    derivatives vanishes through the claimed multiplicity, and those sum
    to the degree: so the terms account for every root, once each.
    """
    at = {(n.m, n.r): n for n in nodes}
    ms = [m for m, _ in hull]
    ends = min(n.m for n in nodes), max(n.m for n in nodes)
    segments = list(zip(hull, hull[1:]))
    for vertex in hull:
        if vertex not in at:
            raise CertificationFailed(f"hull vertex {vertex} is not a grid node")
    if len(hull) < 2 or ms != sorted(set(ms)) or (ms[0], ms[-1]) != ends:
        raise CertificationFailed(
            f"hull does not run from m = {ends[0]} to m = {ends[1]} in increasing m"
        )
    for (m1, r1), (m2, r2), (m3, r3) in zip(hull, hull[1:], hull[2:]):
        if (r2 - r1) * (m3 - m2) <= (r3 - r2) * (m2 - m1):
            raise CertificationFailed(f"hull vertex {(m2, r2)} is not a strict corner")
    for n in nodes:
        for (m1, r1), (m2, r2) in segments:
            if m1 <= n.m <= m2 and (n.r - r1) * (m2 - m1) > (n.m - m1) * (r2 - r1):
                raise CertificationFailed(f"grid node {(n.m, n.r)} lies above the hull")
    for t in terms:
        if not any(t.exponent * (m2 - m1) == r1 - r2 for (m1, r1), (m2, r2) in segments):
            raise CertificationFailed(f"exponent {t.exponent} is not a hull exponent")
        if not (QUAD_ZERO < t.magnitude and t.multiplicity > 0):
            raise CertificationFailed(
                f"term {t.magnitude} of multiplicity {t.multiplicity} at exponent "
                f"{t.exponent} is not positive"
            )
    for (m1, r1), (m2, r2) in segments:
        segment = f"segment {(m1, r1)} - {(m2, r2)}"
        on = {
            n.m - m1: n.c for n in nodes
            if m1 <= n.m <= m2 and (n.r - r1) * (m2 - m1) == (n.m - m1) * (r2 - r1)
        }
        if any(k % 2 for k in on):
            raise CertificationFailed(f"{segment} is not even in gamma")
        equation = tuple(on.get(k, 0) for k in range(0, m2 - m1 + 1, 2))
        claimed = [t for t in terms if t.exponent * (m2 - m1) == r1 - r2]
        points = [
            -(t.magnitude * t.magnitude) if t.axis == "IMAGINARY"
            else t.magnitude * t.magnitude
            for t in claimed
        ]
        if len(set(points)) != len(points):
            raise CertificationFailed(f"{segment} has two terms at one point s")
        for t, s in zip(claimed, points):
            derivative = equation
            for _ in range(t.multiplicity):
                if value_at_sqrt2(derivative, *s) != (0, 0):
                    raise CertificationFailed(
                        f"{segment} has no root of multiplicity {t.multiplicity}"
                        f" at s = {s}"
                    )
                derivative = tuple(i * c for i, c in enumerate(derivative))[1:]
        total = sum(t.multiplicity for t in claimed)
        if total != len(equation) - 1:
            raise CertificationFailed(
                f"{segment} has multiplicities summing to {total}, not its degree"
            )
        weight = at[m1, r1].e - at[m2, r2].e  # times m2 - m1
        for t in claimed:
            if t.p_power * (m2 - m1) != weight:
                raise CertificationFailed(
                    f"{segment} has a p-weight other than p_power {t.p_power}"
                )


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
