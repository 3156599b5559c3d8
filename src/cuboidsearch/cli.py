"""Command-line surface.

Subcommands: search, roots, newton, verify, identity-check.  Machine output
(JSONL) goes to the declared output file only; prose goes to stdout, search
progress to stderr.  Exit codes: 0 success / nothing found, 10 a verified
cuboid was found (so wrapper scripts can trap a discovery), 1 a self-check
failed, 2 bad flags, 3 resume mismatch, 4 I/O error, 130 interrupted
(Ctrl-C) during a search.

Flags follow the subcommand as `--flag value` or `--flag=value`, spelled in
full; a repeated flag keeps its last value.  `-h`/`--help` anywhere prints
the usage to stdout; any other bad command line one stderr line `error: ...`.
"""

from __future__ import annotations

import math
import os
import sys
from decimal import Context, Decimal
from fractions import Fraction
from types import SimpleNamespace

from . import asymptotics, cuboid_eqs, search
from .cuboid_eqs import PQPair
from .exact_arith import QuadRational, sqrt2_approx, sturm_count, sturm_sequence

EXIT_OK = 0
EXIT_CHECK_FAILED = 1
EXIT_BAD_FLAGS = 2
EXIT_RESUME_MISMATCH = 3
EXIT_IO = 4
EXIT_CUBOID_FOUND = 10
EXIT_INTERRUPTED = 130

APPROX_DIGITS = 30

# sqrt(2) to 50 decimals as one fraction, built once; the display rounds to
# 30 digits in a decimal context of its own.
_SQRT2_NUM, _SQRT2_DEN = sqrt2_approx(50).as_integer_ratio()
_APPROX_CONTEXT = Context(prec=APPROX_DIGITS)


def approx_str(x: QuadRational) -> str:
    """Decimal rendering, 30 significant digits, always tagged approximate.

    (A + B*sqrt(2))/D becomes the integer A*s_den + B*s_num over D*s_den,
    with s_num/s_den the 50-decimal sqrt(2), divided once.  Decimal
    division is correctly rounded and has ideal exponent 0 for integer
    operands, so the text does not depend on whether that fraction is
    reduced.  The division runs in a decimal context of the module's own,
    so the caller's decimal precision is left as it was.
    """
    A, B, D = x
    value = _APPROX_CONTEXT.divide(
        Decimal(A * _SQRT2_DEN + B * _SQRT2_NUM), Decimal(D * _SQRT2_DEN)
    )
    return f"approx {value}"


def _usage() -> str:
    lines = ["usage: cuboidsearch COMMAND [--FLAG VALUE | --FLAG=VALUE] ..."]
    for command, (help_line, flags, _) in COMMANDS.items():
        lines.append(f"{command}: {help_line}")
        for flag, default in flags.items():
            note = "required" if default is REQUIRED else f"default {default}"
            lines.append(f"  {flag}  ({note})")
    return "\n".join(lines)


def _parse(argv):
    """`argv` as `subcommand` plus one attribute per flag (`--p-max` gives
    `p_max`), or None for help; ValueError with a one-line message if bad."""
    if "-h" in argv or "--help" in argv:
        return None
    if not argv or argv[0] not in COMMANDS:
        raise ValueError(f"unknown subcommand {argv[0]!r}" if argv else "no subcommand")
    command, *rest = argv
    flags, given, tokens = COMMANDS[command][1], {}, iter(rest)
    for token in tokens:
        flag, eq, value = token.partition("=")
        if flag not in flags:
            raise ValueError(f"unknown flag {flag!r} for {command}")
        if not eq:
            value = next(tokens, "")
            if value.startswith("--"):
                value = ""
        if not value:  # missing, "--flag=" or an empty argument
            raise ValueError(f"{flag} needs a value")
        given[flag] = value
    args = SimpleNamespace(subcommand=command)
    for flag, default in flags.items():
        value = given.get(flag, default)
        if value is REQUIRED:
            raise ValueError(f"{command} needs {flag}")
        if flag in given and flag not in ("--checkpoint", "--out"):
            try:
                value = int(value)
            except ValueError:
                raise ValueError(f"{flag} needs an integer, not {value!r}") from None
        setattr(args, flag[2:].replace("-", "_"), value)
    return args


def cmd_search(args) -> int:
    try:
        config = search.SearchConfig(
            p_min=args.p_min,
            p_max=args.p_max,
            worker_count=args.threads,
            checkpoint_path=args.checkpoint,
            output_path=args.out,
        )
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_BAD_FLAGS

    def progress(p, pairs, nonempty, obstructed, evaluated, hits):
        print(
            f"p={p} pairs={pairs} nonempty={nonempty} obstructed={obstructed} "
            f"evaluated={evaluated} hits={hits}",
            file=sys.stderr,
        )

    try:
        report = search.run_search(config, progress=progress)
    except search.ResumeMismatch as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_RESUME_MISMATCH
    except OSError as exc:
        print(f"error: {exc.strerror or exc} ({exc.filename})", file=sys.stderr)
        return EXIT_IO
    except KeyboardInterrupt:
        resume = "; rerun the same command to resume" if config.checkpoint_path else ""
        print(f"interrupted{resume}", file=sys.stderr)
        return EXIT_INTERRUPTED
    print(
        f"pairs={report.pairs_examined} nonempty={report.pairs_nonempty} "
        f"obstructed={report.pairs_obstructed} "
        f"evaluated={report.candidates_evaluated} hits={len(report.hits)} "
        f"wall={report.wall_time:.2f}s",
        file=sys.stderr,
    )
    return EXIT_CUBOID_FOUND if report.hits else EXIT_OK


def cmd_roots(args) -> int:
    try:
        pair = PQPair(args.p, args.q)
        intervals = asymptotics.asymptotic_intervals(pair)
    except ValueError as exc:  # includes PreconditionViolated: q < 59p
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_BAD_FLAGS
    rpoly = cuboid_eqs.build_rpq(pair)
    seq = sturm_sequence(rpoly)
    disjoint = asymptotics.check_disjoint(intervals)
    # the report is printed in one piece, as far as it got
    lines = [f"Root intervals for p={pair.p}, q={pair.q}:"]
    for iv in intervals:
        lines += (
            f"  {iv.label} ({iv.axis.lower()} axis):",
            f"    lo = {iv.lo}  [{approx_str(iv.lo)}]",
            f"    hi = {iv.hi}  [{approx_str(iv.hi)}]",
        )
    lines += (
        f"disjoint: {disjoint.ok}",
        f"  real gap T3.lo - T2.hi = {disjoint.real_gap}",
        f"  imaginary gap T4.lo - T5.hi = {disjoint.imaginary_gap}",
    )
    try:
        certs = asymptotics.certify_roots(pair, intervals, seq)
    except asymptotics.CertificationFailed as exc:
        lines.append(f"certification FAILED: {exc}")
        print("\n".join(lines))
        return EXIT_CHECK_FAILED
    for cert in certs:
        extra = f", sturm={cert.sturm_roots}" if cert.sturm_roots is not None else ""
        lines.append(
            f"  {cert.label}: PASS (signs {cert.sign_lo}/{cert.sign_hi}{extra})"
        )
    t3_hi = intervals[2].hi  # rational: its B is 0
    bound = -(-t3_hi.A // t3_hi.D) + 1  # ceil(T3.hi) + 1
    # Q(t) = R(t^2) maps (0, B) onto (0, B^2) one to one.  Q is even and
    # Q(0) = -p^10 q^10 != 0, so its real roots in (-B, B) are those in
    # (0, B) and their negatives: twice as many.
    pos = sturm_count(rpoly, 0, bound * bound, seq)
    lines.append(f"real roots in (0, {bound}): {pos}; in (-{bound}, {bound}): {2 * pos}")
    print("\n".join(lines))
    return EXIT_OK if disjoint.ok else EXIT_CHECK_FAILED


GOLDEN_HULL = ((0, 10), (4, 10), (6, 8), (10, 0))
GOLDEN_EXPONENTS = (Fraction(0), Fraction(1), Fraction(2))


def _golden_leading_terms():
    one = QuadRational.of(1)
    return {
        (Fraction(0), one, 2, "REAL", 2),
        (Fraction(1), one, 1, "REAL", 1),
        (Fraction(2), QuadRational.of(1, 1), 0, "IMAGINARY", 1),
        (Fraction(2), QuadRational.of(-1, 1), 0, "IMAGINARY", 1),
    }


def cmd_newton(args) -> int:
    grid = asymptotics.build_newton_grid()
    polygon = asymptotics.upper_hull(grid)
    print("Grid nodes (m, r, coefficient in p):")
    for node in grid:
        terms = [
            f"{c}*p^{i}" if i else str(c)
            for i, c in enumerate(node.coeff_p) if c
        ]
        print(f"  ({node.m}, {node.r}): {' + '.join(terms)}")
    print(f"Upper hull: {' - '.join(str(v) for v in polygon.upper_hull)}")
    print(f"Slopes: {list(polygon.segment_slopes)}")
    print(f"Exponents: {list(polygon.exponents)}")
    found = set()
    for exponent in polygon.exponents:
        for term in asymptotics.leading_coefficients(polygon, exponent):
            axis = "i*" if term.axis == "IMAGINARY" else ""
            print(
                f"  exponent {term.exponent}: {axis}({term.magnitude})"
                f" * p^{term.p_power}, multiplicity {term.multiplicity}"
            )
            found.add((
                term.exponent, term.magnitude, term.p_power, term.axis,
                term.multiplicity,
            ))
    ok = (
        polygon.upper_hull == GOLDEN_HULL
        and polygon.exponents == GOLDEN_EXPONENTS
        and found == _golden_leading_terms()
    )
    print(f"golden-data match: {ok}")
    return EXIT_OK if ok else EXIT_CHECK_FAILED


def cmd_verify(args) -> int:
    p, q, t = args.p, args.q, args.t
    try:
        pair = PQPair(p, q)
        if t < 1:
            raise ValueError("t must be positive")
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_BAD_FLAGS
    value = cuboid_eqs.qpq_value(p, q, t)
    print(f"Q(t) = {value}" + ("" if value == 0 else " (nonzero: not a root)"))
    lower = t > p * p and t > p * q and t > q * q
    print(f"lower bounds t > p^2, pq, q^2: {'pass' if lower else 'FAIL'}")
    upper = (p * p + t) * (p * q + t) > 2 * t * t
    print(f"(p^2 + t)(pq + t) > 2 t^2: {'pass' if upper else 'FAIL'}")
    if value != 0 or not lower or not upper:
        print("verdict: not a perfect cuboid")
        return EXIT_OK
    for tag in cuboid_eqs.CaseTag:
        witness = cuboid_eqs.reconstruct_cuboid(p, q, t, tag)
        print(f"verified cuboid ({tag.value}): {witness.septuple()}")
        print(f"  primitive form: {witness.reduced()}")
    print("verdict: PERFECT CUBOID")
    return EXIT_CUBOID_FOUND


def cmd_identity_check(args) -> int:
    if args.max_pq < 2:
        print("error: --max-pq must be at least 2", file=sys.stderr)
        return EXIT_BAD_FLAGS
    check = cuboid_eqs.factorization_check
    checked = 0
    for q in range(2, args.max_pq + 1):
        for p in range(1, q):
            if math.gcd(p, q) != 1:
                continue
            checked += 1
            if not check(p, q):
                print(f"FAIL: factorization identity broken at (p={p}, q={q})")
                return EXIT_CHECK_FAILED
    print(f"identity holds for all {checked} coprime pairs with p < q <= {args.max_pq}")
    return EXIT_OK


# Each subcommand: its help line, its flags with their defaults, and its
# handler.  Flag values are integers, except those of the paths --checkpoint
# and --out.
REQUIRED = object()
COMMANDS = {
    "search": ("run the pruned (p, q, t) search", {
        "--p-min": 1, "--p-max": REQUIRED, "--threads": os.cpu_count() or 1,
        "--checkpoint": None, "--out": REQUIRED,
    }, cmd_search),
    "roots": ("five certified root intervals for one pair",
              {"--p": REQUIRED, "--q": REQUIRED}, cmd_roots),
    "newton": ("Newton polygon, exponents, and leading terms", {}, cmd_newton),
    "verify": ("check one (p, q, t) candidate",
               {"--p": REQUIRED, "--q": REQUIRED, "--t": REQUIRED}, cmd_verify),
    "identity-check": ("verify the degree-12 factorization identity",
                       {"--max-pq": REQUIRED}, cmd_identity_check),
}


def main(argv=None) -> int:
    try:
        args = _parse(sys.argv[1:] if argv is None else argv)
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_BAD_FLAGS
    if args is None:
        print(_usage())
        return EXIT_OK
    return COMMANDS[args.subcommand][2](args)


def entry() -> None:
    sys.exit(main())


if __name__ == "__main__":
    entry()
