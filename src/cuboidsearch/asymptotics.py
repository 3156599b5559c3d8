"""Root asymptotics of the degree-10 polynomial for q much larger than p.

The polynomial, written as a sum A_{m,r}(p) q^r t^m, has a Newton polygon
whose upper-boundary slopes give the growth exponents of its roots in q.
For q >= 59 p the five roots in the upper half plane (three real, two purely
imaginary) lie in five explicit disjoint open intervals with endpoints in
the rationals or in the sqrt(2) field; each interval is certified to hold
exactly one root by exact endpoint sign evaluation (plus a Sturm count on
the real axis), done on the degree-5 R with Q(t) = R(t^2).
"""

from __future__ import annotations

from fractions import Fraction
from typing import Dict, List, NamedTuple, Optional, Tuple

from .exact_arith import (
    Poly,
    QuadRational,
    quad_sign,
    quad_sqrt,
    rational_sqrt,
    sign_at_sqrt2,
    sign_variations,
    sign_vector,
    sturm_sequence,
)
from .cuboid_eqs import PQPair, QPQ_TERMS, build_rpq


class PreconditionViolated(ValueError):
    """The interval theorems require q >= 59 p."""


class DegenerateHull(ValueError):
    """All nodes share one t-power; no slope is defined."""


class CertificationFailed(RuntimeError):
    """An interval failed its root certificate; names the interval and check."""


class NewtonNode(NamedTuple):
    """Grid node (m, r) with its coefficient, a polynomial in p."""

    m: int
    r: int
    coeff_p: tuple  # index = power of p

    def monomial(self) -> Tuple[int, int]:
        """(coefficient, p-power) if the coefficient is a single monomial."""
        nonzero = [(i, c) for i, c in enumerate(self.coeff_p) if c != 0]
        if len(nonzero) != 1:
            raise ValueError(f"node ({self.m},{self.r}) coefficient is not a monomial")
        i, c = nonzero[0]
        return c, i


class NewtonPolygon(NamedTuple):
    nodes: tuple  # all NewtonNode, sorted by (m, r)
    upper_hull: tuple  # ordered (m, r) vertices, increasing m
    segment_slopes: tuple  # Fraction slope per hull segment
    exponents: tuple  # deduplicated -slope values, ascending


def build_newton_grid() -> tuple:
    """All nonzero (m, r, A_{m,r}(p)) nodes of the degree-10 polynomial.

    p is treated symbolically: a node exists iff its coefficient is a
    nonzero polynomial in p (here every coefficient is a single monomial).
    """
    nodes = []
    for m, terms in QPQ_TERMS.items():
        by_r: Dict[int, Dict[int, int]] = {}
        for p_pow, q_pow, c in terms:
            by_r.setdefault(q_pow, {})[p_pow] = by_r.setdefault(q_pow, {}).get(p_pow, 0) + c
        for r, pmap in by_r.items():
            top = max(pmap)
            coeff_p = tuple(pmap.get(i, 0) for i in range(top + 1))
            if any(coeff_p):
                nodes.append(NewtonNode(m=m, r=r, coeff_p=coeff_p))
    return tuple(sorted(nodes, key=lambda n: (n.m, n.r)))


def _cross(o, a, b) -> int:
    return (a[0] - o[0]) * (b[1] - o[1]) - (a[1] - o[1]) * (b[0] - o[0])


def upper_hull(nodes) -> NewtonPolygon:
    """Upper convex hull of the node set, with slopes and root exponents.

    Monotone chain over points sorted by (m, r); exact integer cross
    products only.
    """
    points = sorted({(n.m, n.r) for n in nodes})
    if len({m for m, _ in points}) < 2:
        raise DegenerateHull("all nodes share one t-power")
    hull: List[Tuple[int, int]] = []
    for pt in reversed(points):  # right to left builds the upper boundary
        while len(hull) >= 2 and _cross(hull[-2], hull[-1], pt) <= 0:
            hull.pop()
        hull.append(pt)
    hull.reverse()
    slopes = tuple(
        Fraction(b[1] - a[1], b[0] - a[0]) for a, b in zip(hull, hull[1:])
    )
    exponents = tuple(sorted({-k for k in slopes}))
    return NewtonPolygon(
        nodes=tuple(sorted(nodes, key=lambda n: (n.m, n.r))),
        upper_hull=tuple(hull),
        segment_slopes=slopes,
        exponents=exponents,
    )


class LeadingTerm(NamedTuple):
    """Leading factor of one root expansion: magnitude * p^p_power * q^exponent,
    on the real or imaginary axis (axis "REAL" or "IMAGINARY")."""

    exponent: Fraction
    magnitude: QuadRational  # > 0
    p_power: int
    axis: str
    multiplicity: int


def _solve_even_gamma(coeffs: List[int]) -> List[Tuple[QuadRational, str, int]]:
    """Admissible roots of an even integer polynomial in gamma.

    coeffs are in s = gamma^2, degree <= 2.  Returns (magnitude, axis,
    multiplicity) triples keeping only roots with gamma > 0 (real) or with
    positive imaginary part (imaginary axis).
    """
    s_roots: List[Tuple[QuadRational, int]] = []
    if len(coeffs) == 2:
        c0, c1 = coeffs
        s_roots.append((QuadRational.of(Fraction(-c0, c1)), 1))
    elif len(coeffs) == 3:
        c0, c1, c2 = coeffs
        disc = c1 * c1 - 4 * c2 * c0
        if disc == 0:
            s_roots.append((QuadRational.of(Fraction(-c1, 2 * c2)), 2))
        else:
            root = rational_sqrt(Fraction(disc))
            if root is not None:
                sq = QuadRational.of(root)
            else:
                root = rational_sqrt(Fraction(disc, 2))
                if root is None:
                    raise ValueError("discriminant outside the sqrt(2) field")
                sq = QuadRational.of(0, root)
            half = Fraction(1, 2 * c2)
            base = QuadRational.of(Fraction(-c1))
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


def leading_coefficients(polygon: NewtonPolygon, exponent: Fraction) -> List[LeadingTerm]:
    """Admissible leading terms for the hull segment of slope -exponent.

    Collects the grid nodes on that segment, substitutes C = gamma * p^w
    with the p-weight w read off the segment, reduces to an integer
    polynomial in gamma^2, and solves it exactly over the sqrt(2) field.
    Roots with gamma < 0, or below the real axis, are discarded.
    """
    exponent = Fraction(exponent)
    if exponent not in polygon.exponents:
        raise ValueError(f"exponent {exponent} is not a hull exponent")
    k = -exponent
    seg = None
    for (a, b), slope in zip(
        zip(polygon.upper_hull, polygon.upper_hull[1:]), polygon.segment_slopes
    ):
        if slope == k:
            seg = (a, b)
            break
    assert seg is not None
    (m1, r1), (m2, r2) = seg
    on_segment = [
        n for n in polygon.nodes
        if m1 <= n.m <= m2 and (n.r - r1) * (m2 - m1) == (n.m - m1) * (r2 - r1)
    ]
    mono = {n.m: n.monomial() for n in on_segment}  # m -> (coeff, p-power)
    c2_, e2 = mono[m2]
    c1_, e1 = mono[m1]
    w = Fraction(e1 - e2, m2 - m1)
    if w.denominator != 1:
        raise ValueError("fractional p-weight on hull segment")
    w = int(w)
    # homogeneity: e + m*w must be constant along the segment
    target = e1 + m1 * w
    gamma_coeffs: Dict[int, int] = {}
    for m, (c, e) in mono.items():
        if e + m * w != target:
            raise ValueError("segment equation is not p-homogeneous")
        gamma_coeffs[m] = c
    m_min = min(gamma_coeffs)
    shifted = {m - m_min: c for m, c in gamma_coeffs.items()}
    if any(m % 2 for m in shifted):
        raise ValueError("segment equation is not even in gamma")
    s_coeffs = [shifted.get(2 * i, 0) for i in range(max(shifted) // 2 + 1)]
    terms = []
    for mag, axis, mult in _solve_even_gamma(s_coeffs):
        terms.append(
            LeadingTerm(
                exponent=exponent, magnitude=mag, p_power=w, axis=axis,
                multiplicity=mult,
            )
        )
    return terms


class AsymptoticInterval(NamedTuple):
    """Exact open interval certified to contain one root (or, for the
    imaginary axis, one root's imaginary part).  label is "T1".."T5", axis
    "REAL" or "IMAGINARY"."""

    label: str
    axis: str
    lo: QuadRational
    hi: QuadRational


def asymptotic_intervals(pair: PQPair) -> List[AsymptoticInterval]:
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


class DisjointnessReport(NamedTuple):
    ok: bool
    real_gap: QuadRational  # T3.lo - T2.hi (must be > 0)
    adjacency_ok: bool  # T1.hi == T2.lo == p^2, open so disjoint
    imaginary_gap: QuadRational  # T4.lo - T5.hi (must be > 0)


def check_disjoint(intervals: List[AsymptoticInterval]) -> DisjointnessReport:
    """Exact pairwise disjointness of the five intervals, with margins."""
    by = {iv.label: iv for iv in intervals}
    positive = all(quad_sign(iv.lo) > 0 for iv in intervals)
    adjacency_ok = by["T1"].hi == by["T2"].lo
    real_gap = by["T3"].lo - by["T2"].hi
    imaginary_gap = by["T4"].lo - by["T5"].hi
    ok = (
        positive
        and adjacency_ok
        and quad_sign(real_gap) > 0
        and quad_sign(imaginary_gap) > 0
    )
    return DisjointnessReport(
        ok=ok,
        real_gap=real_gap,
        adjacency_ok=adjacency_ok,
        imaginary_gap=imaginary_gap,
    )


class RootCertificate(NamedTuple):
    label: str  # "T1".."T5"
    axis: str  # "REAL" or "IMAGINARY"
    sign_lo: int
    sign_hi: int
    sturm_roots: Optional[int]  # real axis only
    passed: bool


def _sign_on_imaginary_axis(rpoly: Poly, y: QuadRational) -> int:
    """Sign of Q(iy) = R(-y^2), with y squared in integers."""
    A, B, D = y
    return sign_at_sqrt2(rpoly, -(A * A + 2 * B * B), -2 * A * B, D * D)


def certify_roots(
    pair: PQPair,
    intervals: Optional[List[AsymptoticInterval]] = None,
    sturm: Optional[List[Poly]] = None,
) -> List[RootCertificate]:
    """Certify one root per interval by exact endpoint signs.

    Every check runs on the degree-5 R with Q(t) = R(t^2) (build_rpq).
    t -> t^2 is strictly increasing on t >= 0, so for a real interval
    (lo, hi) with lo >= 0, Q has the signs of R at lo^2 and hi^2 and as
    many roots in (lo, hi) as R has in (lo^2, hi^2); a real interval with
    lo < 0 is refused.  Real intervals additionally get a Sturm count of
    exactly 1, all three from one Sturm sequence of R, whose sign vector is
    evaluated once per distinct squared endpoint (T1.hi = T2.lo = p^2).  On
    the imaginary axis Q(iy) = R(-y^2), and for y = (A + B sqrt(2))/D,
    -y^2 = (-(A^2 + 2B^2) - 2AB sqrt(2))/D^2 has an exactly decidable sign.
    `intervals` and `sturm` are the pair's asymptotic_intervals and the
    sturm_sequence of its R, for a caller that has built them already.
    Raises CertificationFailed naming the interval and check if anything
    fails.
    """
    if intervals is None:
        intervals = asymptotic_intervals(pair)
    if sturm is None:
        sturm = sturm_sequence(build_rpq(pair))
    rpoly = sturm[0]  # R's primitive part: R itself, which is monic
    if len(rpoly) - 1 != 5:
        raise ValueError("sturm must be the Sturm sequence of the degree-5 R")
    vectors = {}  # (A, D) of a real endpoint A/D -> sign vector

    def signs_at_square(A: int, D: int) -> list:
        signs = vectors.get((A, D))
        if signs is None:
            signs = vectors[A, D] = sign_vector(sturm, A * A, D * D)
        return signs

    certs = []
    failures = []
    for iv in intervals:
        if iv.axis == "REAL":
            (lo_A, lo_B, lo_D), (hi_A, hi_B, hi_D) = iv.lo, iv.hi
            if lo_B or hi_B:
                raise ValueError(f"{iv.label} has an endpoint with a sqrt(2) part")
            if lo_A < 0:
                failures.append(f"{iv.label}: lo = {iv.lo} < 0")
                continue
            v_lo, v_hi = signs_at_square(lo_A, lo_D), signs_at_square(hi_A, hi_D)
            s_lo, s_hi = v_lo[0], v_hi[0]
            count = None
            if s_lo != 0 and s_hi != 0:
                count = sign_variations(v_lo) - sign_variations(v_hi)
            passed = s_lo * s_hi == -1 and count == 1
            if not passed:
                failures.append(
                    f"{iv.label}: sign({s_lo},{s_hi}), sturm={count}"
                )
            certs.append(RootCertificate(iv.label, iv.axis, s_lo, s_hi, count, passed))
        else:
            s_lo = _sign_on_imaginary_axis(rpoly, iv.lo)
            s_hi = _sign_on_imaginary_axis(rpoly, iv.hi)
            passed = s_lo * s_hi == -1
            if not passed:
                failures.append(f"{iv.label}: sign({s_lo},{s_hi})")
            certs.append(RootCertificate(iv.label, iv.axis, s_lo, s_hi, None, passed))
    if failures:
        raise CertificationFailed(
            f"(p={pair.p}, q={pair.q}): " + "; ".join(failures)
        )
    return certs
