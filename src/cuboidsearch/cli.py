"""Command-line surface.

Subcommands: search, roots, newton, verify, identity-check.  Machine output
(JSONL) goes to the declared output file only; prose goes to stdout, search
progress to stderr.  Exit codes: 0 success / nothing found, 10 a verified
cuboid was found (so wrapper scripts can trap a discovery), 1 a self-check
failed, 2 bad flags, 3 resume mismatch, 4 I/O error, 130 interrupted
(Ctrl-C).  A handler returns the first three; `main` alone maps a failure
to the rest, in any command, with one stderr line and no traceback:
refused input (`cuboid_eqs.InvalidInput`, which `_parse`, the records and
the handlers raise) to 2, `search.ResumeMismatch` to 3, an OSError, a
failed write to stdout or stderr included, to 4, and Ctrl-C to 130.  The
code holds when stderr cannot take that line, and a process started with
fd 2 closed drops its stderr lines.  Any other exception is a fault and
keeps its traceback.  `search` writes a line per p from the SearchTally
that `run_search` passes to its progress callback, and a totals line from
the one it returns, with the wall time of that call.

Flags follow the subcommand as `--flag value` or `--flag=value`, spelled in
full; a repeated flag keeps its last value.  `-h`/`--help` anywhere prints
the usage to stdout; any other bad command line one stderr line `error: ...`.
"""

from __future__ import annotations

import math
import sys
import time
from types import SimpleNamespace

from . import asymptotics, cuboid_eqs, search
from .cuboid_eqs import InvalidInput, PQPair
from .exact_arith import QuadRational

EXIT_OK = 0
EXIT_CHECK_FAILED = 1
EXIT_BAD_FLAGS = 2
EXIT_RESUME_MISMATCH = 3
EXIT_IO = 4
EXIT_CUBOID_FOUND = 10
EXIT_INTERRUPTED = 130

APPROX_DIGITS = 30

# sqrt(2) rounded down to 50 decimals as one fraction, built once, and the
# powers of ten that scale a quotient to 30 digits in the common case.
_SQRT2_DEN = 10**50
_SQRT2_NUM = math.isqrt(2 * _SQRT2_DEN**2)
_POW10 = tuple(10**i for i in range(2 * APPROX_DIGITS + 1))
_DIGITS_LO, _DIGITS_HI = _POW10[APPROX_DIGITS - 1], _POW10[APPROX_DIGITS]


def _pow10(k: int) -> int:
    return _POW10[k] if k < len(_POW10) else 10**k


def _decimal_text(n: int, d: int) -> str:
    """n/d for d > 0 as `str(Context(prec=30).divide(Decimal(n), Decimal(d)))`
    prints it, in integers (see `approx_str`)."""
    if not n:
        return "0"
    sign, n = ("-", -n) if n < 0 else ("", n)
    # the scale 10^k that puts floor(n 10^k / d) in [10^29, 10^30); the bit
    # lengths give log10(n/d) to within a digit, and a miss moves k by one
    k = APPROX_DIGITS - 1 - (n.bit_length() - d.bit_length()) * 30103 // 100000
    while True:
        num, den = (n * _pow10(k), d) if k >= 0 else (n, d * _pow10(-k))
        digits, rest = divmod(num, den)
        if digits >= _DIGITS_HI:
            k -= 1
        elif digits < _DIGITS_LO:
            k += 1
        else:
            break
    if 2 * rest > den or (2 * rest == den and digits & 1):  # half to even
        digits += 1
        if digits == _DIGITS_HI:
            digits, k = _DIGITS_LO, k - 1
    text = str(digits)
    if not rest and k > 0:  # exact: trailing zeros go, down to exponent 0
        kept = max(len(text.rstrip("0")), len(text) - k)
        k -= len(text) - kept
        text = text[:kept]
    left = len(text) - k  # digits before the point
    if k >= 0 and left > -6:
        if left <= 0:
            return f"{sign}0.{'0' * -left}{text}"
        return f"{sign}{text[:left]}.{text[left:]}" if k else sign + text
    point = f".{text[1:]}" if len(text) > 1 else ""
    return f"{sign}{text[0]}{point}E{left - 1:+d}"


def approx_str(x: QuadRational) -> str:
    """Decimal rendering, 30 significant digits, always tagged approximate.

    (A + B*sqrt(2))/D becomes the fraction (A*s_den + B*s_num)/(D*s_den),
    with s_num/s_den the 50-decimal sqrt(2); when B == 0 it is A/D, the
    same value.  The text is byte for byte what decimal prints for that
    fraction divided in `Context(prec=30)`:
      - the value correctly rounded, half to even, to 30 significant digits;
      - an exact result with its trailing zeros stripped, down to exponent
        0 (so 2500 and 0.125, but 1.00000000000000000000000000000E+30);
      - plain notation when the exponent is at most 0 and the leading
        digit's power of ten is at least -6 (0.0000012); otherwise one
        digit, a point if more digits follow, and `E` with a signed
        exponent (1E-7, 2.5E-30).
    It depends only on the value, so not on whether the fraction is
    reduced, and it is worked out in integers: no decimal context is read.
    """
    A, B, D = x
    if B:
        A, D = A * _SQRT2_DEN + B * _SQRT2_NUM, D * _SQRT2_DEN
    return "approx " + _decimal_text(A, D)


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
    `p_max`), or None for help; InvalidInput with a one-line message if bad."""
    if "-h" in argv or "--help" in argv:
        return None
    if not argv or argv[0] not in COMMANDS:
        raise InvalidInput(f"unknown subcommand {argv[0]!r}" if argv else "no subcommand")
    command, *rest = argv
    flags, given, tokens = COMMANDS[command][1], {}, iter(rest)
    for token in tokens:
        flag, eq, value = token.partition("=")
        if flag not in flags:
            raise InvalidInput(f"unknown flag {flag!r} for {command}")
        if not eq:
            value = next(tokens, "")
            if value.startswith("--"):
                value = ""
        if not value:  # missing, "--flag=" or an empty argument
            raise InvalidInput(f"{flag} needs a value")
        given[flag] = value
    args = SimpleNamespace(subcommand=command)
    for flag, default in flags.items():
        value = given.get(flag, default)
        if value is REQUIRED:
            raise InvalidInput(f"{command} needs {flag}")
        if flag in given and flag not in ("--checkpoint", "--out"):
            try:
                value = int(value)
            except ValueError:
                raise InvalidInput(f"{flag} needs an integer, not {value!r}") from None
        setattr(args, flag[2:].replace("-", "_"), value)
    return args


def _stderr_line(line: str) -> None:
    # the line and its newline in one write, so that a Ctrl-C cannot fall
    # between them and put "interrupted" on the end of this line; nothing
    # when started with fd 2 closed, as print drops what goes to a None stdout
    if sys.stderr is not None:
        sys.stderr.write(f"{line}\n")


def cmd_search(args) -> int:
    config = search.SearchConfig(
        p_min=args.p_min,
        p_max=args.p_max,
        worker_count=args.threads,
        checkpoint_path=args.checkpoint,
        output_path=args.out,
    )

    def counters(tally) -> str:
        return "pairs={} nonempty={} obstructed={} evaluated={} hits={}".format(
            *tally.counts()
        )

    def progress(p, tally):
        _stderr_line(f"p={p} {counters(tally)}")

    start = time.monotonic()
    tally = search.run_search(config, progress=progress)
    _stderr_line(f"{counters(tally)} wall={time.monotonic() - start:.2f}s")
    return EXIT_CUBOID_FOUND if tally.hits else EXIT_OK


def cmd_roots(args) -> int:
    pair = PQPair(args.p, args.q)
    intervals = asymptotics.asymptotic_intervals(pair)  # q >= 59p, or refused
    disjoint = asymptotics.check_disjoint(intervals)
    # the report is printed in one piece, as far as it got
    lines = [f"Root intervals for p={pair.p}, q={pair.q}:"]
    last = hi = None  # the previous interval's hi end and its text
    for iv in intervals:
        # an end shared with the interval before, as T2.lo is T1.hi, is
        # shown by the text made for it there
        lo = hi if iv.lo == last else f"{iv.lo}  [{approx_str(iv.lo)}]"
        last, hi = iv.hi, f"{iv.hi}  [{approx_str(iv.hi)}]"
        lines += (
            f"  {iv.label} ({iv.axis.lower()} axis):",
            f"    lo = {lo}",
            f"    hi = {hi}",
        )
    lines += (
        f"disjoint: {disjoint.broken is None}",
        f"  real gap T3.lo - T2.hi = {disjoint.real_gap}",
        f"  imaginary gap T4.lo - T5.hi = {disjoint.imaginary_gap}",
    )
    try:
        certs = asymptotics.certify_roots(pair, intervals, disjoint)
    except asymptotics.CertificationFailed as exc:
        lines.append(f"certification FAILED: {exc}")
        print("\n".join(lines))
        return EXIT_CHECK_FAILED
    for cert in certs:
        lines.append(f"  {cert.label}: PASS (signs {cert.sign_lo}/{cert.sign_hi})")
    t3_hi = intervals[2].hi  # rational: its B is 0
    bound = -(-t3_hi.A // t3_hi.D) + 1  # ceil(T3.hi) + 1
    # The certificate accounts for all five roots of the degree-5 R with
    # Q(t) = R(t^2): one in the image of each interval.  So Q's positive
    # real roots are the one in each real interval, all below T3.hi < B.
    # Q is even and Q(0) = -p^10 q^10 != 0, so its real roots in (-B, B)
    # are those in (0, B) and their negatives: twice as many.
    pos = sum(cert.axis == "REAL" for cert in certs)
    lines.append(f"real roots in (0, {bound}): {pos}; in (-{bound}, {bound}): {2 * pos}")
    print("\n".join(lines))
    return EXIT_OK


def cmd_newton(args) -> int:
    from fractions import Fraction  # only newton's slopes need it

    grid = asymptotics.build_newton_grid()
    hull, terms = asymptotics.NEWTON_HULL, asymptotics.LEADING_TERMS
    print("Grid nodes (m, r, coefficient in p):")
    for node in grid:
        term = f"{node.c}*p^{node.e}" if node.e else str(node.c)
        print(f"  ({node.m}, {node.r}): {term}")
    print(f"Upper hull: {' - '.join(str(v) for v in hull)}")
    try:
        asymptotics.certify_newton(grid, hull, terms)
    except asymptotics.CertificationFailed as exc:
        print(f"certification FAILED: {exc}")
        print("golden-data match: False")
        return EXIT_CHECK_FAILED
    slopes = [Fraction(r2 - r1, m2 - m1) for (m1, r1), (m2, r2) in zip(hull, hull[1:])]
    print(f"Slopes: {slopes}")
    print(f"Exponents: {[-k for k in slopes]}")
    for term in terms:
        axis = "i*" if term.axis == "IMAGINARY" else ""
        print(
            f"  exponent {term.exponent}: {axis}({term.magnitude})"
            f" * p^{term.p_power}, multiplicity {term.multiplicity}"
        )
    print("golden-data match: True")
    return EXIT_OK


def cmd_verify(args) -> int:
    p, q, t = args.p, args.q, args.t
    PQPair(p, q)  # refuses a pair outside the family
    if t < 1:
        raise InvalidInput("t must be positive")
    value = cuboid_eqs.qpq_value(p, q, t)
    print(f"Q(t) = {value}" + ("" if value == 0 else " (nonzero: not a root)"))
    lower = t > p * p and t > p * q and t > q * q
    print(f"lower bounds t > p^2, pq, q^2: {'pass' if lower else 'FAIL'}")
    upper = (p * p + t) * (p * q + t) > 2 * t * t
    print(f"(p^2 + t)(pq + t) > 2 t^2: {'pass' if upper else 'FAIL'}")
    if value != 0 or not lower or not upper:
        print("verdict: not a perfect cuboid")
        return EXIT_OK
    for case in cuboid_eqs.CASES:
        witness = cuboid_eqs.reconstruct_cuboid(p, q, t, case)
        print(f"verified cuboid ({case}): {witness.septuple()}")
        print(f"  primitive form: {witness.reduced()}")
    print("verdict: PERFECT CUBOID")
    return EXIT_CUBOID_FOUND


def cmd_identity_check(args) -> int:
    if args.max_pq < 2:
        raise InvalidInput("--max-pq must be at least 2")
    check, gcd = cuboid_eqs.factorization_check, math.gcd
    checked = 0
    for q in range(2, args.max_pq + 1):
        for p in range(1, q):
            if gcd(p, q) != 1:
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
        "--p-min": 1, "--p-max": REQUIRED, "--threads": search.available_cpus(),
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
    args = None
    try:
        args = _parse(sys.argv[1:] if argv is None else argv)
        if args is None:
            print(_usage())
            code = EXIT_OK
        else:
            code = COMMANDS[args.subcommand][2](args)
        if sys.stdout is not None:  # None when started with fd 1 closed
            sys.stdout.flush()  # a failed write to stdout surfaces here
        return code
    except InvalidInput as exc:
        line, code = f"error: {exc}", EXIT_BAD_FLAGS
    except search.ResumeMismatch as exc:
        line, code = f"error: {exc}", EXIT_RESUME_MISMATCH
    except OSError as exc:  # search names the file of a failed write
        where = f" ({exc.filename})" if exc.filename else ""
        line, code = f"error: {exc.strerror or exc}{where}", EXIT_IO
    except KeyboardInterrupt:
        checkpoint = getattr(args, "checkpoint", None)
        resume = "; rerun the same command to resume" if checkpoint else ""
        line, code = f"interrupted{resume}", EXIT_INTERRUPTED
    try:
        _stderr_line(line)
    except OSError:  # a stderr that cannot be written keeps the exit code
        pass
    return code


def entry() -> None:
    code = main()
    # main has flushed stdout and written to stderr, or met why it could
    # not.  Closed, neither is flushed again at exit, which would retry the
    # bytes of a failed write and turn the exit code into 120.
    for stream in (sys.stdout, sys.stderr):
        if stream is not None:
            try:
                stream.close()
            except OSError:
                pass
    sys.exit(code)


if __name__ == "__main__":
    entry()
