"""Every function defined in the package is reached by a CLI command, or is
named in ALLOWED with the reason why not.

The commands run in this process under `sys.settrace`, through `cli.main`,
on a fresh import of the package, so that calls made at import time count
too.  The package's modules are put back afterwards, so the other tests
keep the objects they hold."""

import contextlib
import functools
import importlib
import inspect
import os
import sys
import types
from pathlib import Path

import cuboidsearch

PACKAGE_DIR = Path(cuboidsearch.__file__).resolve().parent

HIT_PATH = ("no real hit exists; TestPlantedRoot, TestReconstruct and "
            "TestVerifyCommand drive it")
TUPLE_ORDER = "stops comparisons falling back to tuple order; test_ordering pins it"

# function (module.qualname) -> why no command reaches it
ALLOWED = {
    "cli.entry": "the console-script wrapper, sys.exit(main()); the calls use main",
    "exact_arith.QuadRational.__add__": "stops + concatenating two QuadRationals as tuples; the test oracles add with it, and test_operations_match pins it",
    "exact_arith.QuadRational.__radd__": "stops a plain tuple on the left of + concatenating; test_operand_outside_the_field_refused pins it",
    "exact_arith.QuadRational.__le__": TUPLE_ORDER,
    "exact_arith.QuadRational.__gt__": TUPLE_ORDER,
    "exact_arith.QuadRational.__ge__": TUPLE_ORDER,
    "cuboid_eqs.param_ratios": HIT_PATH,
    "cuboid_eqs.compute_z": HIT_PATH,
    "cuboid_eqs.CuboidWitness.septuple": HIT_PATH,
    "cuboid_eqs.CuboidWitness.reduced": HIT_PATH,
    "cuboid_eqs.CuboidWitness.to_json_dict": HIT_PATH,
    "cuboid_eqs._check_cuboid_equations": HIT_PATH,
    "cuboid_eqs.reconstruct_cuboid": HIT_PATH,
    "search.pair_candidates": HIT_PATH,
    "search._kept_witness": HIT_PATH,
    "search._json_line": HIT_PATH,
    "search._scan_run": "a pool worker's task; the commands' searches are too small for a pool, test_pool_output_matches_in_process runs one",
    "search._pool_results": "feeds a pool; the commands' searches are too small for one, test_pool_futures_bounded drives it",
    "search._named": "names the file when a write fails; test_write_error_names_the_file fills /dev/full",
}


def calls(tmp):
    """The command lines run, each with the exit code it must give."""
    out, ckpt = str(tmp / "s.jsonl"), str(tmp / "s.ckpt")
    search = ["search", "--p-max", "60", "--threads", "1", "--out", out,
              "--checkpoint", ckpt]
    return [
        *((["roots", "--p", p, "--q", q], 0)
          for p, q in (("1", "59"), ("7", "500"), ("13", "1000"), ("50", "5901"))),
        (["roots", "--p", "1", "--q", "58"], 2),  # q < 59p
        (["roots", "--p", "2", "--q", "4"], 2),  # not coprime
        (["newton"], 0),
        (["verify", "--p", "1", "--q", "2", "--t", "5"], 0),
        (["verify", "--p", "1", "--q", "8", "--t", "60"], 0),
        (["verify", "--p", "1", "--q", "2", "--t", "0"], 2),
        (["identity-check", "--max-pq", "40"], 0),
        (["identity-check", "--max-pq", "1"], 2),
        (search, 0),
        (search, 0),  # resumes from the finished run's checkpoint
        (["search", "--p-max", "60", "--threads", "2",
          "--out", str(tmp / "t.jsonl")], 0),
        (["search", "--p-min", "5", "--p-max", "3", "--out", out], 2),
        (["search", "--p-max", "5", "--out", ckpt, "--checkpoint", ckpt], 2),
        (["search", "--p-max", "5", "--out", str(tmp / "no" / "x.jsonl")], 4),
        (["roots", "--p", "1", "--q", "59", "--bogus", "1"], 2),
        (["--help"], 0),
    ]


def defined_functions():
    """(file, first line, name) -> module.qualname for every named function
    of the package's source, nested ones included: the code objects with
    their own locals (so no module or class body), lambdas and generator
    expressions left out."""
    found = {}

    def walk(code, path, prefix):
        for const in code.co_consts:
            if not isinstance(const, types.CodeType):
                continue
            if not const.co_flags & inspect.CO_NEWLOCALS:  # a class body
                walk(const, path, f"{prefix}{const.co_name}.")
                continue
            if const.co_name.isidentifier():
                key = (str(path), const.co_firstlineno, const.co_name)
                found[key] = f"{path.stem}.{prefix}{const.co_name}"
            walk(const, path, f"{prefix}{const.co_name}.<locals>.")

    for path in sorted(PACKAGE_DIR.glob("*.py")):
        walk(compile(path.read_text(), str(path), "exec"), path, "")
    return found


@contextlib.contextmanager
def fresh_package():
    def ours():
        return [n for n in sys.modules if n.split(".")[0] == "cuboidsearch"]

    saved = {name: sys.modules.pop(name) for name in ours()}
    try:
        yield
    finally:
        for name in ours():
            del sys.modules[name]
        sys.modules.update(saved)


def test_every_function_is_reached_or_allowed(tmp_path, capsys):
    reached = set()
    expected = calls(tmp_path)
    previous = sys.gettrace()
    with fresh_package():
        sys.settrace(lambda frame, event, arg: reached.add(frame.f_code))
        try:
            cli = importlib.import_module("cuboidsearch.cli")
            codes = [cli.main(argv) for argv, _ in expected]
        finally:
            sys.settrace(previous)
    capsys.readouterr()
    assert codes == [code for _, code in expected]

    defined = defined_functions()
    realpath = functools.lru_cache(maxsize=None)(os.path.realpath)
    hit = {
        defined.get((realpath(c.co_filename), c.co_firstlineno, c.co_name))
        for c in reached
    }
    names = set(defined.values())
    unreached = sorted(names - hit - set(ALLOWED))
    assert not unreached, f"no command reaches these, and ALLOWED does not name them: {unreached}"
    stale = sorted(name for name in ALLOWED if name in hit or name not in names)
    assert not stale, f"ALLOWED names functions that are reached or gone: {stale}"
