"""End-to-end acceptance checks.

Each test prints one `criterion N ...: PASS` line (pytest -s shows them; a
failure raises before the line is printed, so the printed list is the list
of criteria that actually passed).
"""

import math
import random
from fractions import Fraction

import pytest

from cuboidsearch.asymptotics import (
    LEADING_TERMS,
    NEWTON_HULL,
    asymptotic_intervals,
    build_newton_grid,
    certify_newton,
    certify_roots,
    check_disjoint,
)
from cuboidsearch.cuboid_eqs import (
    PQPair,
    compute_z,
    factorization_check,
    param_ratios,
)
from cuboidsearch.exact_arith import QuadRational
from cuboidsearch import search
from cuboidsearch.search import (
    SearchConfig,
    run_search,
)
from oracles import (
    build_qpq,
    fraction_sturm_count,
    fraction_sturm_sequence,
    imaginary_axis_poly,
    integer_point_report,
    node_dominance_holds,
    oracle_hits,
    pairs_for_p,
    quad_parts,
    refine_interval,
    scan_pair,
    sqrt2_approx,
    to_fraction,
)


def _sample_pairs():
    """q >= 59p sample set: boundary, near-boundary, and hypothesis-threshold
    values of q for each p up to 10."""
    pairs = set()
    for p in range(1, 11):
        for q in (59 * p, 59 * p + 1, 60 * p + 1, 5 * p**3 + 1, 16 * p**3 + p):
            if q >= 59 * p and q != p and math.gcd(p, q) == 1:
                pairs.add((p, q))
    return sorted(pairs)


VIETA_PAIRS = (
    (1, 59), (1, 60), (1, 100), (2, 119), (2, 121),
    (3, 178), (3, 200), (4, 237), (5, 296), (7, 415),
)


def test_criterion_1_factorization_identity():
    checked = 0
    for q in range(2, 21):
        for p in range(1, q):
            if math.gcd(p, q) == 1:
                assert factorization_check(p, q)
                checked += 1
    assert checked == 127
    print(f"criterion 1 (factorization identity, {checked} pairs): PASS")


# The hull, exponents and leading terms that `newton` certifies.
GOLDEN_HULL = ((0, 10), (4, 10), (6, 8), (10, 0))
GOLDEN_EXPONENTS = (Fraction(0), Fraction(1), Fraction(2))
GOLDEN_LEADING_TERMS = {
    (Fraction(0), QuadRational(1), 2, "REAL", 2),
    (Fraction(1), QuadRational(1), 1, "REAL", 1),
    (Fraction(2), QuadRational(1, 1), 0, "IMAGINARY", 1),
    (Fraction(2), QuadRational(-1, 1), 0, "IMAGINARY", 1),
}


def test_criterion_2_newton_polygon():
    grid = build_newton_grid()
    certify_newton(grid, NEWTON_HULL, LEADING_TERMS)
    assert NEWTON_HULL == GOLDEN_HULL
    assert node_dominance_holds(grid, NEWTON_HULL)
    exponents = tuple(
        Fraction(r1 - r2, m2 - m1) for (m1, r1), (m2, r2) in zip(GOLDEN_HULL, GOLDEN_HULL[1:])
    )
    assert exponents == GOLDEN_EXPONENTS
    assert set(LEADING_TERMS) == GOLDEN_LEADING_TERMS
    print("criterion 2 (Newton polygon and leading terms): PASS")


def test_criterion_3_certified_root_intervals():
    pairs = _sample_pairs()
    assert len(pairs) >= 20
    for p, q in pairs:
        pair = PQPair(p, q)
        intervals = asymptotic_intervals(pair)
        assert check_disjoint(intervals) is None
        signs = certify_roots(pair, intervals)
        assert len(signs) == 5 and all(lo * hi == -1 for lo, hi in signs)
        # the degree count's one root per real interval, recounted on Q
        qpoly = build_qpq(pair)
        seq = fraction_sturm_sequence(qpoly)
        for iv in intervals[:3]:
            lo, hi = to_fraction(iv.lo), to_fraction(iv.hi)
            assert fraction_sturm_count(qpoly, lo, hi, seq) == 1
        assert sum(1 for iv in intervals if iv.axis == "REAL") == 3
        assert sum(1 for iv in intervals if iv.axis == "IMAGINARY") == 2
    # exact global root counts for the boundary pair
    P = build_qpq(PQPair(1, 59))
    B = 10**6
    seq = fraction_sturm_sequence(P)
    assert fraction_sturm_count(P, 0, B, seq) == 3
    assert fraction_sturm_count(P, -B, B, seq) == 6
    print(f"criterion 3 (certified disjoint root intervals, {len(pairs)} pairs): PASS")


def test_criterion_4_integer_point_exclusion():
    pairs = _sample_pairs()
    for p, q in pairs:
        report = integer_point_report(PQPair(p, q))
        assert all(not c for c in report.search_candidates.values())
        if report.t3_empty_hypothesis:
            assert report.integers_inside["T3"] == []
            assert report.t3_in_unit_bracket
        assert report.conclusion == "SEARCH_SKIP"
    print(f"criterion 4 (integer-point exclusion, {len(pairs)} pairs): PASS")


def test_criterion_5_exhaustive_search_small_range(tmp_path):
    config = SearchConfig(
        p_min=1,
        p_max=25,
        worker_count=4,
        checkpoint_path=str(tmp_path / "c5.ckpt"),
        output_path=str(tmp_path / "c5.jsonl"),
    )
    report = run_search(config)
    assert report.hits == []
    expected_pairs = sum(len(pairs_for_p(p)) for p in range(1, 26))
    assert report.pairs_examined == expected_pairs
    print(
        f"criterion 5 (search p <= 25: {report.pairs_examined} pairs, "
        f"{report.candidates_evaluated} exact evaluations, 0 hits): PASS"
    )


def test_criterion_6_mode_and_sieve_equivalence():
    # the search kernel and the per-pair valuation pipeline against the old
    # scan and divisor paths, with and without their residue sieves
    # (tests/oracles.py)
    pairs = 0
    for p in range(1, 6):
        expected = []
        for pair in pairs_for_p(p):
            pairs += 1
            hits = scan_pair(pair).hits
            assert oracle_hits(pair, "scan") == hits
            assert oracle_hits(pair, "divisor") == hits
            assert oracle_hits(pair, "scan", ()) == hits
            expected.extend(hits)
        expected.sort(key=lambda w: (w.p, w.q, w.t, w.case))
        assert search._scan_p(p)[1].hits == expected
    print(
        f"criterion 6 (kernel = pipeline = scan/divisor oracles with and "
        f"without sieves, {pairs} pairs): PASS"
    )


def test_criterion_7_parametrization_identities():
    rng = random.Random(1729)
    checked = 0
    while checked < 100:
        upsilon, alpha, beta = (
            Fraction(rng.randint(-30, 30), rng.randint(1, 30)) for _ in range(3)
        )
        if (alpha * upsilon) ** 2 == 1:
            continue
        z = compute_z(upsilon, alpha, beta)
        x1, x2, x3, d1, _, _ = param_ratios(upsilon, z, alpha, beta)
        assert x2**2 + x3**2 == d1**2
        assert x1**2 + d1**2 == 1
        checked += 1
    print("criterion 7 (exact parametrization identities, 100 samples): PASS")


def test_criterion_8_root_product():
    rel_width = Fraction(1, 10**12)
    tolerance = Fraction(1, 10**9)
    for p, q in VIETA_PAIRS:
        pair = PQPair(p, q)
        qpoly = build_qpq(pair)
        ipoly = imaginary_axis_poly(qpoly)
        product = QuadRational(1)
        for iv in asymptotic_intervals(pair):
            poly = qpoly if iv.axis == "REAL" else ipoly
            product = product * refine_interval(poly, iv.lo, iv.hi, rel_width)
        expected = Fraction(p**5 * q**5)
        a, b = quad_parts(product)
        approx = a + b * sqrt2_approx(50)
        rel_err = abs(approx - expected) / expected
        assert rel_err < tolerance
    print(
        f"criterion 8 (five-root product = p^5 q^5 within 1e-9, "
        f"{len(VIETA_PAIRS)} pairs): PASS"
    )


def test_criterion_9_determinism_and_resume(tmp_path):
    def config(name, workers):
        return SearchConfig(
            p_min=1,
            p_max=8,
            worker_count=workers,
            checkpoint_path=str(tmp_path / f"{name}.ckpt"),
            output_path=str(tmp_path / f"{name}.jsonl"),
        )

    run_search(config("w1", 1))
    run_search(config("w4", 4))
    bytes_w1 = (tmp_path / "w1.jsonl").read_bytes()
    assert bytes_w1 == (tmp_path / "w4.jsonl").read_bytes()

    interrupted = config("resume", 2)
    with pytest.raises(KeyboardInterrupt):
        run_search(interrupted, abort_after_p=4)
    run_search(interrupted)
    assert (tmp_path / "resume.jsonl").read_bytes() == bytes_w1
    print("criterion 9 (worker-count determinism and resume): PASS")
