"""The package's records are tuples (`typing.NamedTuple`).  These tests pin
what a tuple could get wrong: arithmetic falling through to tuple
concatenation or repetition, validation skipped, the repr text, pickling
for the worker pool, and the import cost that the records were chosen
for."""

import os
import pickle
import subprocess
import sys
from fractions import Fraction

import pytest

import cuboidsearch
from cuboidsearch.cuboid_eqs import CaseTag, CuboidWitness, FullEqParams, PQPair
from cuboidsearch.exact_arith import QuadRational
from cuboidsearch.search import SearchConfig
from oracles import poly, poly_mul, poly_sub

X = QuadRational.of(Fraction(1, 2), 3)
Y = QuadRational.of(-2, Fraction(1, 3))


class TestQuadRationalOperators:
    @pytest.mark.parametrize("value, expected", [
        (X + Y, QuadRational.of(Fraction(-3, 2), Fraction(10, 3))),
        (X - Y, QuadRational.of(Fraction(5, 2), Fraction(8, 3))),
        (-X, QuadRational.of(Fraction(-1, 2), -3)),
        (X * Y, QuadRational.of(1, Fraction(-35, 6))),
        (2 * X, QuadRational.of(1, 6)),
        (X * 2, QuadRational.of(1, 6)),
        (Fraction(1, 3) * X, QuadRational.of(Fraction(1, 6), 1)),
    ])
    def test_field_arithmetic(self, value, expected):
        assert type(value) is QuadRational
        assert value == expected


class TestIntPolyOperators:
    """A polynomial is a plain tuple of coefficients, lowest power first, so
    it has no arithmetic of its own; the tests' oracles supply the
    difference and the product, as tuples with no trailing zero."""

    P = poly([1, 2])
    Q = poly([3, 0, 1])

    @pytest.mark.parametrize("value, expected", [
        (poly_sub(P, Q), (-2, 2, -1)),
        (poly_sub(Q, Q), ()),
        (poly_mul(P, Q), (3, 6, 1, 2)),
        (poly_mul(P, ()), ()),
    ])
    def test_polynomial_arithmetic(self, value, expected):
        assert type(value) is tuple
        assert value == expected


class TestValidatingRecords:
    @pytest.mark.parametrize("build, message", [
        (lambda: PQPair(p=3, q=3), "p and q must differ"),
        (lambda: PQPair(2, q=4), "p and q must be coprime"),
        (lambda: SearchConfig(0, 5), "need 1 <= p_min <= p_max"),
        (lambda: SearchConfig(1, 5, 0), "worker_count must be positive"),
        (lambda: SearchConfig(1, 5, worker_count=-1), "worker_count must be positive"),
        (lambda: SearchConfig(1, 5, 1, "same", "same"), "overwritten by the checkpoint"),
        (lambda: SearchConfig(1, 5, checkpoint_path="c", output_path="./c.tmp"),
         "overwritten by the checkpoint"),
    ])
    def test_invalid_values_raise(self, build, message):
        with pytest.raises(ValueError, match=message):
            build()

    def test_search_config_defaults(self):
        config = SearchConfig(2, 5)
        assert config == SearchConfig(
            p_min=2, p_max=5, worker_count=1, checkpoint_path=None,
            output_path="cuboids.jsonl",
        )

    @pytest.mark.parametrize("record", [PQPair(1, 2), FullEqParams(1, 2, 3), SearchConfig(1, 2)])
    def test_immutable_and_without_instance_dict(self, record):
        with pytest.raises(AttributeError):
            record.extra = 1
        with pytest.raises(AttributeError):
            setattr(record, record._fields[0], 9)


def test_repr():
    assert repr(PQPair(1, 2)) == "PQPair(p=1, q=2)"
    assert repr(FullEqParams(1, 2, 3)) == "FullEqParams(a=1, b=2, u=3)"
    assert repr(QuadRational.of(1)) == "QuadRational(A=1, B=0, D=1)"


WITNESS = CuboidWitness(
    p=1, q=2, t=5, case_tag=CaseTag.AU_EQ_B2,
    x1=3, x2=4, x3=12, d1=13, d2=15, d3=5, L=13, verified=False,
)


@pytest.mark.parametrize("record", [
    SearchConfig(1, 40, 2, "run.ckpt", "out.jsonl"),
    PQPair(7, 500),
    WITNESS,
])
def test_pickle_round_trip(record):
    copy = pickle.loads(pickle.dumps(record))
    assert type(copy) is type(record)
    assert copy == record


def test_cli_import_loads_no_startup_heavy_module():
    """Importing the CLI builds its records without the dataclasses module
    and what it imports, and leaves the worker pool's module to pool runs:
    each process pays these imports at start-up."""
    src = os.path.dirname(os.path.dirname(os.path.abspath(cuboidsearch.__file__)))
    heavy = {"dataclasses", "inspect", "ast", "dis", "concurrent.futures", "hashlib"}
    code = (
        "import sys, cuboidsearch.cli; "
        f"print(sorted({heavy!r} & set(sys.modules)))"
    )
    result = subprocess.run(
        [sys.executable, "-c", code],
        env=dict(os.environ, PYTHONPATH=src),
        capture_output=True, text=True, timeout=60, check=True,
    )
    assert result.stdout.strip() == "[]"
