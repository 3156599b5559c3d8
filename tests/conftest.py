"""Fixtures shared by the test modules."""

import pytest

from cuboidsearch import cuboid_eqs, search
from cuboidsearch.cuboid_eqs import CASES, CuboidWitness


@pytest.fixture
def planted(monkeypatch):
    """Plant an integer root t = 12 for the pair (3, 2), the only valuation
    candidate of its range (10, 17), and a witness for it in each case.
    The search evaluates Q(t) = R(t^2) by cuboid_eqs.qpq_value from R's
    coefficients; for (3, 2) they become those of R(u) = (u - 144)(u + 1)^4,
    none of them zero, so a Horner step taken out of order would miss the
    root.  A root has a root mod every prime, so the ratio 2 / 3 mod l
    leaves every ratio table B_l, and (3, 2) passes the real sieve.  Only
    the search's reconstruct_cuboid is replaced: cuboid_eqs.reconstruct_cuboid,
    which `verify` calls, still builds the septuple and checks it."""
    real_coefficients = cuboid_eqs.qpq_coefficients
    real_reconstruct = search.reconstruct_cuboid
    real_table = search.ratio_table

    def table(l):
        if l == 3:  # B_3 is empty, and 3 has no inverse mod 3
            return real_table(l)
        ratio = 2 * pow(3, -1, l) % l
        return tuple(x for x in real_table(l) if x != ratio)

    def coefficients(p, q):
        if (p, q) == (3, 2):
            return (-144, -575, -860, -570, -140)
        return real_coefficients(p, q)

    def reconstruct(p, q, t, case):
        if (p, q, t) != (3, 2, 12) or case not in CASES:
            return real_reconstruct(p, q, t, case)
        return CuboidWitness(p, q, t, case, 1, 2, 3, 4, 5, 6, 7)

    monkeypatch.setattr(cuboid_eqs, "qpq_coefficients", coefficients)
    monkeypatch.setattr(search, "reconstruct_cuboid", reconstruct)
    monkeypatch.setattr(search, "ratio_table", table)
