"""Exhaustive search for perfect cuboids in the p != q family.

For q >= 59 p the root-interval analysis rules out every candidate, so the
search covers the pairs with q < 59 p.  A pair's candidate t range is
max(p^2, pq, q^2) < t < r(q), where r(q) = (p^2 + pq + p sqrt(p^2 + 6pq +
q^2))/2 is the positive root of the search inequality (p^2 + t)(pq + t) >
2 t^2.  The paper's literal upper bound t < 61 p^2 never binds (see
`t_bounds`), so the search does not apply it.  `t_bounds` computes the range
exactly, and every other use of the range derives from that function.

Each p goes through four stages: the nonempty pairs, the obstruction sieve,
the valuation candidates of the pairs it leaves, and exact evaluation.
Every cut is a proved fact.

Nonempty pairs.  For q > p the range is nonempty exactly when
f(q) = r(q) - q^2 - 1 > 0.  f is concave in q (the square root of the
quadratic h = p^2 + 6pq + q^2 has second derivative -32 p^2 / (4 h^(3/2)))
and f(p) = sqrt(2) p^2 - 1 > 0, so the q > p with a nonempty range run up
to a cap, and `t_bounds` shows that q >= 2p gives an empty range.  The
cap is about 1.84 p (the real root of c^3 = c^2 + c + 1), so `q_limit`
starts there and walks to the cap on `t_bounds`, in integers; as the
nonempty q > p are an interval, the first step's answer says which way to
walk.  Every pair with q < p has a nonempty range too, so the nonempty
pairs of p are the coprime q <= q_limit(p) with q != p.

Obstruction.  If Q(t) = 0 for an integer t, then Q has a root mod every
prime l, so one prime for which Q has no root mod l rules out the whole
pair.  The coefficient of t^(2k) in Q has degree 20 - 4k in (p, q), so
Q(p^2 tau; p, p x) = p^20 Q(tau; 1, x).  For an odd prime l not dividing p,
put x = q / p mod l; as tau -> p^2 tau is a bijection mod l, Q(t; p, q) has
a root mod l exactly when Q(tau; 1, x) has one.  `ratio_table(l)` holds the
set B_l of the x in 1..l-1 for which it has none: Q(tau; 1, x) =
R(tau^2; 1, x) and R(0; 1, x) = -x^10 is not 0 mod l, so these are the x
for which R has no root among the nonzero squares mod l.  (For l | q, x = 0
and t = 0 is a root, so l proves nothing; 0 is never in B_l.)  The tables
are stored as data, one bitmask per l (see `ratio_table`).  The sieve
(`sieve_pairs`) is one pass over a Python int whose bit q is set while q
may still have a root: it starts with the nonempty q of p, and each l in
OBSTRUCTION_PRIMES that does not divide p and has a nonempty B_l (so not
3, 5 or 7) clears the classes q = x p mod l with x in B_l, as one l-bit
pattern repeated across the int, until no q is left.  It cannot rule out
every pair in principle, since some polynomials have a root mod every
prime (Berend and Bilu); the pairs it leaves go on to the candidates.  Up
to p = 10^5 it leaves none.

Valuation candidates.  Q is monic with constant term -p^10 q^10, so an
integer root t divides (pq)^10.  Let l^e exactly divide pq.  The
coefficients of t^0, t^2, t^4, t^6, t^10 have l-adic valuations 10e,
>= 6e, 2e, 0, 0 and that of t^8 is >= 0, so the lower Newton polygon has
vertices (0, 10e), (4, 2e), (6, 0), (10, 0) and slopes -2e, -e, 0.  The
valuation of any root is minus a slope: v_l(t) is 0, e or 2e.  The
candidates are therefore the products of one factor from {1, l^e, l^(2e)}
per prime l | pq, 3^omega(pq) numbers in all, clipped to the range
(`pair_candidates`).  Each candidate is tested as Q(t) = R(t^2), by
Horner's scheme on R's five integer coefficients (`cuboid_eqs.qpq_value`).

Runs are checkpointed with their p range and the summary counters (see
`run_search` for when), and the output is deterministic regardless of worker
count or interruption.  A range too small to repay the start-up of worker
processes is searched in-process whatever the worker count (`use_pool`).
"""

from __future__ import annotations

import math
import os
from collections import deque, namedtuple
from collections.abc import Callable, Iterable, Sequence

from .cuboid_eqs import CASES, CuboidWitness, InvalidInput, qpq_value, reconstruct_cuboid

CHECKPOINT_VERSION = 5

# Below this much work, the sum of the p still to search, the search runs
# in-process.  A p costs about 50 us plus 7 ns times p (0.76 ms at
# p = 10^5), and two workers pay off from about here (2-vCPU host, Python
# 3.11, run_search wall time in fresh processes, in-process and on two
# workers, medians of nine: p 1..3000 took 230 and 302 ms, p 1..4000 328
# and 229, p 1..4500 375 and 256, p 20001..20100 32 and 64, p 99901..100000
# 94 and 137, p 99801..100000 185 and 156, p 99601..100000 352 and 247;
# repeated rounds put the break-even anywhere from a sum of 8 * 10^6 to
# 3 * 10^7, the high-p ranges at the upper end).  Starting two workers
# costs about 50 ms, each reads the ratio tables it reaches off their
# stored masks (under 1 ms for all of them), and on that host two busy
# processes ran at about 0.55 times the speed of one.
POOL_MIN_WORK = 10_000_000

# A pool gets the p in runs of consecutive values, about four runs per
# worker and at most this many p each.  One p per task costs more in
# inter-process traffic than most p cost to search: p 1..3000 took 1.3 s on
# two workers that way, against 0.32 s in runs of up to 128.
POOL_CHUNK = 128

# Runs submitted to a pool and not yet merged, per worker: one running and
# one queued, so no worker waits on the merge and the futures held stay few
# however many p the run covers.
POOL_WINDOW = 2

# Work merged between two checkpoint writes, in the same units: about a
# quarter second on one core of that host at small p (p 1..3000 took
# 0.22 s) and about 45 ms near p = 10^5 (p 99901..100000, with a sum of
# 10^7, took 0.09 s).  A write of a hitless run replaces the file and
# fsyncs nothing: 0.18 ms in the median in a loop, but 0.7-0.9 ms in the
# median and up to 8 ms within a run, where the 20 writes of
# p 99001..100000 took 14-27 ms, 1.5-2.5% of its run (five runs of
# 0.85-1.25 s; ext4, Python 3.11).  Written after every p, the checkpoint
# once took 40% of a resumed p 27..40 run (14 of 36 ms) and most of its
# spread.
CHECKPOINT_MIN_WORK = 5_000_000


class ResumeMismatch(RuntimeError):
    """Checkpoint or output file does not fit the running configuration, or
    is damaged."""


class SearchConfig(
    namedtuple("SearchConfig", "p_min p_max worker_count checkpoint_path output_path")
):
    __slots__ = ()

    def __new__(
        cls,
        p_min: int,
        p_max: int,
        worker_count: int = 1,
        checkpoint_path: str | None = None,
        output_path: str = "cuboids.jsonl",
    ) -> "SearchConfig":
        if p_min < 1 or p_min > p_max:
            raise InvalidInput("need 1 <= p_min <= p_max")
        if worker_count < 1:
            raise InvalidInput("worker_count must be positive")
        if checkpoint_path is not None and _is_checkpoint(
            output_path, checkpoint_path
        ):
            raise InvalidInput(
                f"output {output_path} would be overwritten by the "
                f"checkpoint {checkpoint_path}"
            )
        return tuple.__new__(
            cls, (p_min, p_max, worker_count, checkpoint_path, output_path)
        )


def _is_checkpoint(output_path: str, checkpoint_path: str) -> bool:
    """Whether the output file is the checkpoint or the checkpoint_path +
    ".tmp" it is written through, by any symlink or hard link.  An output
    that exists is compared by device and inode, one stat per name; one
    that does not, which a dangling symlink may name, by its real path."""
    names = (checkpoint_path, checkpoint_path + ".tmp")
    try:
        output = os.stat(output_path)
    except OSError:
        real = os.path.realpath(output_path)
        return any(os.path.realpath(name) == real for name in names)
    for name in names:
        try:
            if os.path.samestat(output, os.stat(name)):
                return True
        except OSError:
            pass
    return False


def _named(exc: OSError, path: str) -> OSError:
    """`exc`, naming `path` if it names no file: Python names none when a
    write, flush, fsync or close fails."""
    if exc.filename is None:
        exc.filename = path
    return exc


def _read_lines(kind: str, path: str) -> list[str]:
    """All lines of a text file the search wrote, its `kind` ("checkpoint"
    or "output") naming it in messages; bytes that are not UTF-8 mean the
    file is damaged."""
    with open(path, encoding="utf-8") as fh:
        try:
            return fh.readlines()
        except UnicodeDecodeError as exc:
            raise ResumeMismatch(f"{kind} {path} is damaged: {exc.reason}") from None


class SearchTally(
    namedtuple(
        "SearchTally",
        "pairs_examined pairs_nonempty pairs_obstructed candidates_evaluated hits",
    )
):
    """What a search counts, for one p or for a whole run: the summary
    line's counters in its order, and `hits`, the list of CuboidWitness
    found, in p order."""

    __slots__ = ()

    def counts(self) -> tuple[int, ...]:
        """The summary line's five integers: the counters and the hit count."""
        return (*self[:4], len(self.hits))


class SearchCheckpoint(
    namedtuple(
        "SearchCheckpoint",
        "version p_min p_max last_completed_p candidates_found "
        + " ".join(SearchTally._fields[:4]),
    )
):
    """The state of a run after its last merged p: its p range and the
    summary counters so far, all integers.  The file holds one
    `field=value` line per field, in this order, so equal states give equal
    bytes.  Worker count and file paths are left out; they do not affect
    the result."""

    __slots__ = ()

    def text(self) -> str:
        """The file's contents: one `field=value` line per field, in order."""
        return "".join(f"{k}={v}\n" for k, v in zip(self._fields, self))

    def write(self, path: str) -> None:
        tmp = path + ".tmp"
        try:
            with open(tmp, "w", encoding="utf-8") as fh:
                fh.write(self.text())
        except OSError as exc:
            raise _named(exc, tmp)
        os.replace(tmp, path)

    @staticmethod
    def read(path: str) -> "SearchCheckpoint":
        """Parse a checkpoint of the current version; another version, a
        missing or non-integer field, or any text other than what `write`
        makes of the parsed state raises ResumeMismatch."""
        lines = _read_lines("checkpoint", path)
        fields: dict[str, str] = {}
        for line in lines:
            key, _, value = line.strip().partition("=")
            fields[key] = value
        # a file with no version line is damaged: a missing field, below
        if "version" in fields and fields["version"] != str(CHECKPOINT_VERSION):
            raise ResumeMismatch(
                f"checkpoint {path} has version {fields['version']}, "
                f"expected {CHECKPOINT_VERSION}"
            )
        try:
            ckpt = SearchCheckpoint(
                *(int(fields[name]) for name in SearchCheckpoint._fields)
            )
        except KeyError as exc:
            raise ResumeMismatch(
                f"checkpoint {path} is damaged: missing field {exc}"
            ) from None
        except ValueError as exc:
            raise ResumeMismatch(f"checkpoint {path} is damaged: {exc}") from None
        if "".join(lines) != ckpt.text():
            raise ResumeMismatch(
                f"checkpoint {path} is damaged: a line is extra, repeated, "
                f"out of order or not as written"
            )
        return ckpt


def t_bounds(p: int, q: int) -> tuple[int, int] | None:
    """Inclusive candidate range (lo, hi) for t, or None when it is empty.

    lo = max(p^2, pq, q^2) + 1 and hi is the largest t < r(q), that is with
    x = 2t - A < sqrt(D) for A = p^2 + pq and D = p^2 (p^2 + 6pq + q^2)
    >= 1.  For integer x >= 0, x^2 < D exactly when x <= isqrt(D - 1), so
    hi = (A + isqrt(D - 1)) // 2.

    The paper's literal bound t < 61 p^2 is not applied because it never
    binds.  r grows with p, so for q >= 2p it is at most its value at
    p = q/2, (3 + sqrt(17))/8 q^2 < q^2, and the range is empty.  A nonempty
    range therefore has q < 2p and hi < r(2p) = (3 + sqrt(17))/2 p^2
    < 61 p^2 - 1.
    """
    lo = max(p * p, p * q, q * q) + 1
    D = p * p * (p * p + 6 * p * q + q * q)
    hi = (p * p + p * q + math.isqrt(D - 1)) // 2
    return (lo, hi) if lo <= hi else None


def _prime_factors(n: int) -> dict[int, int]:
    out: dict[int, int] = {}
    d = 2
    while d * d <= n:
        while n % d == 0:
            out[d] = out.get(d, 0) + 1
            n //= d
        d += 1
    if n > 1:
        out[n] = out.get(n, 0) + 1
    return out


def pair_candidates(p: int, q: int, lo: int, hi: int) -> list[int]:
    """The valuation candidates in [lo, hi] of a coprime pair, unsorted: the
    products of one factor from {1, l^e, l^(2e)} per l^e exactly dividing
    p or q.  A product above hi is dropped as soon as it is formed."""
    out = [1]
    for n in (p, q):
        for prime, exp in _prime_factors(n).items():
            step = prime**exp
            out = [c * f for c in out for f in (1, step, step * step) if c * f <= hi]
    return [t for t in out if t >= lo]


def pair_count(p: int, primes: Iterable[int]) -> int:
    """The number of admissible pairs for p, in closed form: q runs over
    1 <= q <= 59p - 1 with q != p and q coprime to p, so there are
    59 phi(p) of them, or 57 for p = 1.  `primes` are p's prime factors."""
    if p == 1:
        return 57
    phi = p
    for prime in primes:
        phi -= phi // prime
    return 59 * phi


def pair_count_sum(lo: int, hi: int) -> int:
    """The sum of pair_count(p) over lo <= p <= hi, from one segmented
    totient sieve over just that range, in blocks of 2^16 values: phi(p)
    starts as p, and each prime l <= isqrt(hi) takes the factor 1 - 1/l
    from the phi(p) of its multiples and divides every power of l out of
    `rest`, a copy of p.  What is left of p is then 1 or its one prime
    factor above isqrt(hi), which takes its own factor."""
    root = math.isqrt(hi)
    is_prime = bytearray([1]) * (root + 1)
    primes = []
    for l in range(2, root + 1):
        if is_prime[l]:
            primes.append(l)
            is_prime[l * l::l] = bytes(len(range(l * l, root + 1, l)))
    total = 0
    for a in range(lo, hi + 1, 1 << 16):
        b = min(a + (1 << 16), hi + 1)
        phi = list(range(a, b))
        rest = phi[:]
        for l in primes:
            i = -a % l
            phi[i::l] = [v - v // l for v in phi[i::l]]
            power = l
            while power < b:
                i = -a % power
                rest[i::power] = [v // l for v in rest[i::power]]
                power *= l
        total += sum(v - v // r if r > 1 else v for v, r in zip(phi, rest))
    return 59 * total - 2 * (lo == 1)


def q_limit(p: int) -> int:
    """The largest q with a nonempty t range for p, or p when no q > p has
    one.  Every q <= p has a nonempty range and the q > p with one are an
    interval (see the module docstring), so the q >= 1 with a nonempty
    range are exactly 1..q_limit(p), and two walks on `t_bounds` find its
    end from any start q >= 1: down while the range is empty, then up while
    the next q's is not.  The start is the cap's asymptote
    1.839286755214161 p (the real root of c^3 = c^2 + c + 1, cut after 15
    decimals), rounded down.  It is the answer for 9,989 of the p <= 10^4
    and one too high for the other 11; it falls short only from about
    p = 10^15 on, where the 15 decimals run out."""
    q = p * 1839286755214161 // 10**15
    while t_bounds(p, q) is None:
        q -= 1
    while t_bounds(p, q + 1) is not None:
        q += 1
    return q


# B_l for each odd prime l below 200, in the order the sieve tries them,
# bit x set for x in B_l.  Computed by evaluating R(u; 1, x) at every
# nonzero square u mod l for every x in 1..l-1 (tests/oracles.py,
# `brute_ratio_table`, which the tests check this against and print the
# literal from).
_RATIO_MASKS: dict[int, int] = {
    3: 0x0,
    5: 0x0,
    7: 0x0,
    11: 0x3fc,
    13: 0x8c4,
    17: 0xdfec,
    19: 0x3e67c,
    23: 0x35ffac,
    29: 0xfd9e6fc,
    31: 0x18be7d18,
    37: 0xb71ffe3b4,
    41: 0x7edecdedf8,
    43: 0x3c93cf3c93c,
    47: 0x1b99ca5399d8,
    53: 0xf6dff3f3fedbc,
    59: 0x2eab06f6f60d574,
    61: 0xf127f95ea7f923c,
    67: 0x11673aa10855ce688,
    71: 0x22c95e7edb7e7a9344,
    73: 0xf4dfbbbffff777ecbc,
    79: 0xa1e58564a526a1a7850,
    83: 0x3ec2568b7f6fed16a437c,
    89: 0x1fefd1023c84f1022fdfe0,
    97: 0xfd5f67a68f7b7bc5979beafc,
    101: 0xbf5f6d572f7fffbd3aadbebf4,
    103: 0x27fd695958f8bd1f1a9a96bfe4,
    107: 0x171777a96f7f70efef695eee8e8,
    109: 0xfbfcfef06de5ede9ed83dfcff7c,
    113: 0xabf85befe3cff33fcf1fdf687f54,
    127: 0x3d9de12ff9fef7fbdfef7f9ff487b9bc,
    131: 0xfdafefd6763569a0596ac6e6bf7f5bf0,
    137: 0xcefbfdf56dfffbacfcd77ffedabeff7dcc,
    139: 0x3595fafeee477a97dfbe95ee2777f5fa9ac,
    149: 0xcdbd2583ccc0e12ecad4dd21c0ccf0692f6cc,
    151: 0x2d6ded9a3efa5cef7ffffef73a5f7c59b7b6b4,
    157: 0xd882cbd9aa2ff0bf6aded5bf43fd1566f4d046c,
    163: 0x2d547bea277ba849f6f264f6f9215dee457de2ab4,
    167: 0x3d34b197097af1c8fe7dbdbe7f138f5e90e98d2cbc,
    173: 0xb1d3fbc7265eed16551ddeee2a9a2dde9938f7f2e34,
    179: 0xccf5d9dde8e0f35b3c8259a413cdacf0717bb9baf330,
    181: 0x57d8bee56c8ceb657cf16409a3cfa9b5cc4da9df46fa8,
    191: 0x29b27bbb7d47cf5d7ed0732bd4ce0b7ebaf3e2beddde4d94,
    193: 0xbba1f861fe87b81ff068f6cdbc583fe07785fe187e17740,
    197: 0x5bf39a59d9facdd9edfcbc49248f4fede6ecd7e6e69673f68,
    199: 0x1e9d61ec7fd3b729baabb452e74a2dd55d94edcbfe3786b978,
}

# The moduli of the obstruction sieve, the odd primes below 200, tried in
# the order of the table above.  Set to () the search sends every nonempty
# pair to the valuation candidates.
OBSTRUCTION_PRIMES = tuple(_RATIO_MASKS)

_RATIO_TABLES: dict[int, tuple[int, ...]] = {}


def ratio_table(l: int) -> tuple[int, ...]:
    """B_l for l in OBSTRUCTION_PRIMES: the x in 1..l-1, ascending, for
    which R(u; 1, x) has no root among the nonzero squares u mod l, that is
    Q(tau; 1, x) has no root mod l.  Read off the l bits of its stored mask
    on first use, once per l and process."""
    table = _RATIO_TABLES.get(l)
    if table is None:
        mask = _RATIO_MASKS[l]
        table = tuple(x for x in range(1, l) if mask >> x & 1)
        _RATIO_TABLES[l] = table
    return table


def _tile(pattern: int, l: int, n: int) -> int:
    """The l-bit `pattern` repeated from bit 0 to at least bit n - 1, by
    shift-and-or doubling: bit q is set when bit q mod l of `pattern` is."""
    width = l
    while width < n:
        pattern |= pattern << width
        width *= 2
    return pattern


def sieve_pairs(p: int, primes: Iterable[int]) -> tuple[int, list[int]]:
    """(n, survivors): the number n of coprime q != p with a nonempty t
    range, and those of them, ascending, that no prime in
    OBSTRUCTION_PRIMES rules out.  `primes` are p's prime factors.

    Bit q of the int `live` stays set while q may still have a root.  It
    starts as bits 1..q_limit(p) without bit p, the class q = 0 mod each
    prime of p is cleared, and n is the number of bits left.  Then each l
    that does not divide p and has a nonempty B_l clears the classes
    q = x p mod l with x in B_l, until no bit is left; no table is fetched
    after that.  The survivors are read off the binary digits of `live` in
    one pass (testing each bit on its own would take time quadratic in
    q_limit(p))."""
    n = q_limit(p) + 1
    live = (1 << n) - 2 - (1 << p)
    for prime in primes:
        live &= ~_tile(1, prime, n)
    nonempty = live.bit_count()
    for l in OBSTRUCTION_PRIMES:
        if not live:
            break
        table = ratio_table(l) if p % l else ()
        if table:
            live &= ~_tile(sum([1 << x * p % l for x in table]), l, n)
    digits = bin(live)[:1:-1]
    survivors = []
    q = digits.find("1")
    while q >= 0:
        survivors.append(q)
        q = digits.find("1", q + 1)
    return nonempty, survivors


def _scan_p(p: int) -> tuple[int, SearchTally]:
    """Worker: search every pair for one p.  Returns p and its SearchTally.

    p is factored once, for the sieve and for pair_count.  Only the pairs
    `sieve_pairs` leaves get valuation candidates.  A root goes straight to
    `reconstruct_cuboid`: the search inequality (p^2 + t)(pq + t) > 2 t^2
    holds exactly for t between its negative root and r(q), and every
    candidate is positive and at most hi < r(q)."""
    primes = _prime_factors(p)
    nonempty, survivors = sieve_pairs(p, primes)
    evaluated = 0
    hits: list[CuboidWitness] = []
    for q in survivors:
        candidates = pair_candidates(p, q, *t_bounds(p, q))
        evaluated += len(candidates)
        for t in candidates:
            if qpq_value(p, q, t):
                continue
            for case in CASES:
                hits.append(reconstruct_cuboid(p, q, t, case))
    if hits:
        hits.sort(key=lambda w: (w.p, w.q, w.t, w.case))
    obstructed = nonempty - len(survivors)
    return p, SearchTally(pair_count(p, primes), nonempty, obstructed, evaluated, hits)


def _scan_run(ps: range) -> list:
    """Worker on a pool: _scan_p for each p of a run of consecutive p."""
    return [_scan_p(p) for p in ps]


def _pool_results(executor, todo: range, chunk: int, window: int):
    """The _scan_p results of `todo` in p order, searched on `executor` in
    runs of `chunk` consecutive p, with at most `window` runs submitted and
    not yet merged (Executor.map would submit every run up front)."""
    pending = deque()
    for start in range(0, len(todo), chunk):
        if len(pending) == window:
            yield from pending.popleft().result()
        pending.append(executor.submit(_scan_run, todo[start:start + chunk]))
    while pending:
        yield from pending.popleft().result()


def available_cpus() -> int:
    """The number of CPUs this process may run on: its affinity set where
    the platform has one, else the host's CPU count."""
    if hasattr(os, "sched_getaffinity"):
        return len(os.sched_getaffinity(0))
    return os.cpu_count() or 1


def use_pool(worker_count: int, todo: Sequence[int]) -> bool:
    """Whether to search the values of p in `todo` on a worker pool: only
    with several workers, several p, at least POOL_MIN_WORK work and more
    than one available CPU (read last, so the in-process path never asks)."""
    return (worker_count > 1 and len(todo) > 1 and sum(todo) >= POOL_MIN_WORK
            and available_cpus() > 1)


def _json_line(obj: dict) -> str:
    import json  # only hit lines are written through json

    return json.dumps(obj, separators=(",", ":")) + "\n"


def _summary_line(counts: Sequence[int]) -> str:
    """The output's last line, byte for byte what `_json_line` makes of
    {"summary": True, <name>: <count>, ...}, with the names of SearchTally's
    fields and `counts` its five integers (`SearchTally.counts`), formatted
    from the integers: the names need no escaping and json writes an int as
    its repr."""
    fields = "".join(f',"{k}":{v}' for k, v in zip(SearchTally._fields, counts))
    return f'{{"summary":true{fields}}}\n'


def _kept_witness(obj: dict, line: str, where: str) -> CuboidWitness:
    """Rebuild and verify the witness of a hit line from the completed
    prefix; the line must be exactly that witness's serialisation."""
    try:
        witness = reconstruct_cuboid(obj["p"], obj["q"], obj["t"], obj["case"])
    except (KeyError, TypeError, ValueError) as exc:
        raise ResumeMismatch(f"{where} is not a verified hit: {exc}") from None
    if _json_line(witness.to_json_dict()) != line.rstrip("\n") + "\n":
        raise ResumeMismatch(f"{where} differs from the hit it records")
    return witness


def _load_resume_state(
    config: SearchConfig,
) -> tuple[SearchCheckpoint, list[CuboidWitness]]:
    """Validate the checkpoint and salvage the hits of completed p.

    The checkpoint must be for the configured p range, and its last
    completed p must lie in that range.  Returns the checkpoint and the
    witnesses of the hit lines kept, each rebuilt from its (p, q, t, case)
    and checked against its line.  Lines for p beyond the checkpoint
    (interrupted mid-p), any stale summary line and an unparsable final line
    (torn by the interruption) are dropped, so the final file is
    byte-identical to an uninterrupted run.  `json` is imported only when
    the output has a line to parse; an interrupted hitless run leaves none.
    """
    path = config.checkpoint_path
    ckpt = SearchCheckpoint.read(path)
    if (ckpt.p_min, ckpt.p_max) != (config.p_min, config.p_max):
        raise ResumeMismatch(
            f"checkpoint {path} is for p {ckpt.p_min}..{ckpt.p_max}, "
            f"not the configured p {config.p_min}..{config.p_max}"
        )
    if not ckpt.p_min <= ckpt.last_completed_p <= ckpt.p_max:
        raise ResumeMismatch(
            f"checkpoint {path} is damaged: last_completed_p="
            f"{ckpt.last_completed_p} lies outside p {ckpt.p_min}..{ckpt.p_max}"
        )
    pairs = pair_count_sum(ckpt.p_min, ckpt.last_completed_p)
    if ckpt.pairs_examined != pairs:
        raise ResumeMismatch(
            f"checkpoint {path} is damaged: pairs_examined="
            f"{ckpt.pairs_examined}, but p {ckpt.p_min}..{ckpt.last_completed_p} "
            f"has {pairs} pairs"
        )
    kept = []
    if os.path.exists(config.output_path):
        lines = _read_lines("output", config.output_path)
        if lines:
            import json  # an interrupted hitless run leaves no line to parse
        for number, line in enumerate(lines, start=1):
            if not line.strip():
                continue
            where = f"output {config.output_path} line {number}"
            try:
                obj = json.loads(line)
            except (ValueError, RecursionError):  # nested too deep for json
                if number == len(lines):
                    continue
                raise ResumeMismatch(f"{where} is not JSON") from None
            if isinstance(obj, dict) and "summary" in obj:
                continue
            if not isinstance(obj, dict) or not isinstance(obj.get("p"), int):
                raise ResumeMismatch(f"{where} is not a hit record")
            if obj["p"] <= ckpt.last_completed_p:
                kept.append(_kept_witness(obj, line, where))
    if len(kept) != ckpt.candidates_found:
        raise ResumeMismatch(
            f"output holds {len(kept)} hits for p <= {ckpt.last_completed_p} "
            f"but checkpoint recorded {ckpt.candidates_found}"
        )
    return ckpt, kept


def run_search(
    config: SearchConfig,
    progress: Callable[[int, SearchTally], None] | None = None,
    abort_after_p: int | None = None,
) -> SearchTally:
    """Run the full search over [p_min, p_max] and return its SearchTally.

    Results are merged in p order and the JSONL output (hit lines plus one
    final summary line of counters) is deterministic for any worker count.
    A p counts as merged only once its hit lines are written, flushed and,
    when a checkpoint is kept, fsynced; the kept hit lines of a resume are
    written the same way, and a hitless run makes no fsync.  The
    checkpoint, the p range and the summary counters as of the last merged
    p, is built and rewritten atomically after the p that brings the work
    merged since its last write to CHECKPOINT_MIN_WORK, after the last p,
    and when the run is interrupted or fails, but not again after a failed
    write; so it never counts a hit line that is not on disk.  The pool, if
    any, is shut down after that last write, whether it failed or not.
    The run's tally starts at zero, or on a resume at the checkpoint's
    counters and the kept hits, and each merged p's tally is added to it
    field by field.  `progress(p, tally)` is called per merged p with that
    p's own tally.  `abort_after_p` simulates an interruption right after
    that p completes (test hook for the resume contract).  The summary line
    is formatted from its integer counters; `json` is imported only for the
    first hit line, or by a resume over an output that has lines.
    """
    tally = SearchTally(0, 0, 0, 0, [])
    done = config.p_min - 1  # the last merged p

    if config.checkpoint_path and os.path.exists(config.checkpoint_path):
        ckpt, kept = _load_resume_state(config)
        done = ckpt.last_completed_p
        tally = SearchTally(*ckpt[5:], kept)

    out = open(config.output_path, "w", encoding="utf-8")

    def emit(witnesses) -> None:
        try:
            out.writelines(_json_line(w.to_json_dict()) for w in witnesses)
            out.flush()
            if config.checkpoint_path and witnesses:
                os.fsync(out.fileno())
        except OSError as exc:
            raise _named(exc, config.output_path)

    def save() -> None:
        SearchCheckpoint(
            CHECKPOINT_VERSION, config.p_min, config.p_max, done,
            len(tally.hits), *tally[:4],
        ).write(config.checkpoint_path)

    try:
        emit(tally.hits)

        todo = range(done + 1, config.p_max + 1)
        if use_pool(config.worker_count, todo):
            # imported here: only pool runs need it, and it takes about a
            # third of the CLI's import time
            import signal
            from concurrent.futures import ProcessPoolExecutor

            # a fork-started pool forks all its workers up front; they
            # ignore SIGINT, which Ctrl-C sends to the whole process group,
            # so that only this process handles it
            workers = min(config.worker_count, len(todo), available_cpus())
            executor = ProcessPoolExecutor(
                max_workers=workers, initializer=signal.signal,
                initargs=(signal.SIGINT, signal.SIG_IGN),
            )
            chunk = min(POOL_CHUNK, max(1, len(todo) // (4 * workers)))
            results = _pool_results(executor, todo, chunk, POOL_WINDOW * workers)
        else:
            executor = None
            results = map(_scan_p, todo)
        unsaved = 0  # work merged since the checkpoint was last written

        try:
            for p, p_tally in results:
                # p is merged once its hit lines are written; the run's hit
                # list grows in place, so a hitless p copies nothing
                if p_tally.hits:
                    emit(p_tally.hits)
                    tally.hits.extend(p_tally.hits)
                tally = SearchTally(*map(sum, zip(tally[:4], p_tally)), tally.hits)
                done = p
                if config.checkpoint_path:
                    unsaved += p
                    if unsaved >= CHECKPOINT_MIN_WORK:
                        unsaved = 0  # a failed write is not tried again
                        save()
                if progress:
                    progress(p, p_tally)
                if abort_after_p is not None and p >= abort_after_p:
                    raise KeyboardInterrupt("simulated interruption")
        finally:
            # on completion, interruption or failure alike, the checkpoint
            # first: a second Ctrl-C during the pool's wait cannot lose it
            try:
                if unsaved:
                    save()
            finally:
                if executor is not None:
                    executor.shutdown(cancel_futures=True)

        out.write(_summary_line(tally.counts()))
    finally:
        try:
            out.close()  # it flushes the summary line
        except OSError as exc:
            raise _named(exc, config.output_path)
    return tally
