"""The package's records are tuples: subclasses of `collections.namedtuple`
classes with `__slots__ = ()`.  These tests pin what a tuple could get
wrong: arithmetic falling through to tuple concatenation or repetition,
validation skipped, a per-instance `__dict__`, the repr text, pickling for
the worker pool, and the import cost that the records were chosen for (no
`typing`, `dataclasses` or what they import)."""

import os
import pickle
import subprocess
import sys
from fractions import Fraction

import pytest

import cuboidsearch
from cuboidsearch import asymptotics, cuboid_eqs, exact_arith, search
from cuboidsearch.cuboid_eqs import CuboidWitness, PQPair
from cuboidsearch.exact_arith import QuadRational
from cuboidsearch.search import SearchConfig
from oracles import poly, poly_mul, poly_sub, quad

X = quad(Fraction(1, 2), 3)
Y = quad(-2, Fraction(1, 3))


class TestQuadRationalOperators:
    @pytest.mark.parametrize("value, expected", [
        (X + Y, quad(Fraction(-3, 2), Fraction(10, 3))),
        (X - Y, quad(Fraction(5, 2), Fraction(8, 3))),
        (-X, quad(Fraction(-1, 2), -3)),
        (X * Y, quad(1, Fraction(-35, 6))),
        (2 * X, quad(1, 6)),
        (X * 2, quad(1, 6)),
        (QuadRational(1, 0, 3) * X, quad(Fraction(1, 6), 1)),
    ])
    def test_field_arithmetic(self, value, expected):
        assert type(value) is QuadRational
        assert value == expected

    @pytest.mark.parametrize("product", [
        lambda: Fraction(1, 3) * X,
        lambda: X * Fraction(1, 3),
    ], ids=["fraction_times_x", "x_times_fraction"])
    def test_no_product_with_a_fraction(self, product):
        # the field has one representation, the integer triple
        with pytest.raises(TypeError):
            product()


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


def _records():
    """One instance of each record class in the package, as the code makes
    them where it can; PQPair and SearchConfig first, so that the test ids
    record0 and record1 keep naming them."""
    pair = PQPair(7, 500)
    intervals = asymptotics.asymptotic_intervals(pair)
    return [
        pair,
        SearchConfig(1, 2),
        QuadRational(3, -2, 6),
        asymptotics.build_newton_grid()[0],
        asymptotics.LEADING_TERMS[0],
        intervals[3],
        asymptotics.check_disjoint(intervals),
        asymptotics.certify_roots(
            pair, intervals, asymptotics.check_disjoint(intervals)
        )[0],
        CuboidWitness(1, 2, 5, "AU_EQ_B2", 3, 4, 12, 13, 15, 5, 13),
        search.SearchCheckpoint(5, 1, 2, 2, 0, 57, 1, 1, 0),
        search.SearchTally(57, 1, 1, 0, []),
    ]


RECORDS = _records()


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

    @pytest.mark.parametrize("record", RECORDS)
    def test_immutable_and_without_instance_dict(self, record):
        with pytest.raises(AttributeError):
            record.extra = 1
        with pytest.raises(AttributeError):
            setattr(record, record._fields[0], 9)

    def test_one_record_of_each_class(self):
        classes = {
            value for module in (asymptotics, cuboid_eqs, exact_arith, search)
            for value in vars(module).values()
            if isinstance(value, type) and issubclass(value, tuple)
        }
        assert len(RECORDS) == len(classes) == 11
        assert {type(record) for record in RECORDS} == classes


def test_repr():
    assert repr(PQPair(1, 2)) == "PQPair(p=1, q=2)"
    assert repr(QuadRational(1)) == "QuadRational(A=1, B=0, D=1)"


WITNESS = CuboidWitness(
    p=1, q=2, t=5, case="AU_EQ_B2",
    x1=3, x2=4, x3=12, d1=13, d2=15, d3=5, L=13,
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


SRC = os.path.dirname(os.path.dirname(os.path.abspath(cuboidsearch.__file__)))

# Imported on first use only: json by a hit line or a resume over an output
# with lines, fractions (and numbers) by `newton` and a hit's reconstruction;
# decimal by nothing.
LAZY = {"json", "decimal", "fractions", "numbers"}


def loaded_after(code, *args):
    """The last stdout line of `code` run in a fresh interpreter without
    `site`, whose start-up hooks may import some of the modules looked for."""
    result = subprocess.run(
        [sys.executable, "-S", "-c", code, *args],
        env=dict(os.environ, PYTHONPATH=SRC),
        capture_output=True, text=True, timeout=60, check=True,
    )
    return result.stdout.splitlines()[-1]


def test_cli_import_loads_no_startup_heavy_module():
    """Importing the CLI builds its records without the typing and
    dataclasses modules and what they import, leaves the worker pool's
    module to pool runs and the lazy modules to their first use: each
    process pays these imports at start-up."""
    heavy = {
        "typing", "re", "enum", "functools", "contextlib",
        "dataclasses", "inspect", "ast", "dis", "concurrent.futures", "hashlib",
    } | LAZY
    code = (
        "import sys, cuboidsearch.cli; "
        f"print(sorted({heavy!r} & set(sys.modules)))"
    )
    assert loaded_after(code) == "[]"


def test_benchmarked_commands_load_no_lazy_module(tmp_path):
    """A hitless search, a resume over an interrupted run's empty output,
    `roots` and `identity-check` (the benchmark's calls) run through
    `cli.main` without importing any of LAZY."""
    code = f"""
import os, sys
from cuboidsearch import cli, search
out, ckpt, fresh = sys.argv[1:]
config = search.SearchConfig(1, 40, 1, ckpt, out)
try:
    search.run_search(config, abort_after_p=25)
except KeyboardInterrupt:
    pass
assert os.path.getsize(out) == 0 and os.path.exists(ckpt)
calls = (
    ["search", "--p-max", "40", "--threads", "1", "--out", fresh],
    ["search", "--p-max", "40", "--threads", "1", "--out", out, "--checkpoint", ckpt],
    ["roots", "--p", "7", "--q", "500"],
    ["identity-check", "--max-pq", "40"],
)
codes = [cli.main(argv) for argv in calls]
print(codes, sorted({LAZY!r} & set(sys.modules)))
"""
    files = (str(tmp_path / name) for name in ("r.jsonl", "r.ckpt", "f.jsonl"))
    assert loaded_after(code, *files) == "[0, 0, 0, 0] []"
    assert (tmp_path / "r.jsonl").read_bytes() == (tmp_path / "f.jsonl").read_bytes()
