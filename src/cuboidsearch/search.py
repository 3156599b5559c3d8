"""Exhaustive search for perfect cuboids in the p != q family.

For q >= 59 p the root-interval analysis rules out every candidate, so the
search covers the pairs with q < 59 p.  A pair's candidate t range is
max(p^2, pq, q^2) < t < r(q), where r(q) = (p^2 + pq + p sqrt(p^2 + 6pq +
q^2))/2 is the positive root of the search inequality (p^2 + t)(pq + t) >
2 t^2.  The paper's literal upper bound t < 61 p^2 never binds (see
`t_bounds`), so the search does not apply it.  `t_bounds` computes the range
exactly, and every other use of the range derives from that function.

Two proved cuts leave only a handful of candidates, each evaluated exactly.

q cap.  The walk over q stops at the first coprime q > p whose range is
empty, calling `t_bounds` once per pair.  For
q > p the range is nonempty exactly when f(q) = r(q) - q^2 - 1 > 0.  f is
concave in q (the square root of the quadratic h = p^2 + 6pq + q^2 has
second derivative -32 p^2 / (4 h^(3/2))) and f(p) = sqrt(2) p^2 - 1 > 0, so
once f(q) <= 0 at some q > p it stays <= 0 for every larger q; in practice
q < 1.84 p (the real root of c^3 = c^2 + c + 1).  Every pair with q < p
has a nonempty range too, so the walk visits exactly the nonempty coprime
pairs and the one pair that ends it.

Valuation candidates.  Q is monic with constant term -p^10 q^10, so an
integer root t divides (pq)^10.  Let l^e exactly divide pq.  The
coefficients of t^0, t^2, t^4, t^6, t^10 have l-adic valuations 10e,
>= 6e, 2e, 0, 0 and that of t^8 is >= 0, so the lower Newton polygon has
vertices (0, 10e), (4, 2e), (6, 0), (10, 0) and slopes -2e, -e, 0.  The
valuation of any root is minus a slope: v_l(t) is 0, e or 2e.  The
candidates are therefore the products of one factor from {1, l^e, l^(2e)}
per prime l | pq, 3^omega(pq) numbers in all, clipped to the range.

The kernel (`_scan_p`) builds them without ever forming a product outside
the range.  `factor_list(n)` is the sorted tuple of products of one factor
from {1, l^e, l^(2e)} per l^e exactly dividing n, computed once per n and
process.  As gcd(p, q) = 1, the candidates of a pair are the products a * b
with a in factor_list(p) and b in factor_list(q), and `clipped_products`
finds the b for each a by bisection.  Each candidate is tested as
Q(t) = R(t^2), by Horner's scheme on R's five integer coefficients
(`cuboid_eqs.qpq_coefficients`).

Runs are checkpointed with their p range and the summary counters (see
`run_search` for when), and the output is deterministic regardless of worker
count or interruption.  A range too small to repay the start-up of worker
processes is searched in-process whatever the worker count (`use_pool`).
"""

from __future__ import annotations

import itertools
import json
import math
import os
import time
from bisect import bisect_right
from typing import Callable, Dict, List, NamedTuple, Optional, Sequence, Tuple

from .cuboid_eqs import (
    CaseTag,
    CuboidWitness,
    qpq_coefficients,
    reconstruct_cuboid,
)

CHECKPOINT_VERSION = 4

# Below this much work, the sum of the p still to search, the search runs
# in-process.  A p costs roughly in proportion to p, and starting two worker
# processes costs about as much as searching p's summing to 1,300 (2-vCPU
# host, Python 3.11: p 61..80 took 60 ms in-process, 50 ms on two workers;
# p 27..40 took 15 ms in-process, 28 ms on two workers).  The margin above
# that covers the pool's import, which only a pool run pays.
POOL_MIN_WORK = 2000

# Work merged between two checkpoint writes, in the same units: about half
# a second on one core of that host.  Each write replaces the file, which on
# ext4 took 0.5-0.7 ms in the median and up to 40 ms; written after every p,
# the checkpoint took 40% of a resumed p 27..40 run (14 of 36 ms) and most
# of its spread.
CHECKPOINT_MIN_WORK = 10_000


class ResumeMismatch(RuntimeError):
    """Checkpoint or output file does not fit the running configuration, or
    is damaged."""


class _SearchConfigFields(NamedTuple):
    p_min: int
    p_max: int
    worker_count: int
    checkpoint_path: Optional[str]
    output_path: str


class SearchConfig(_SearchConfigFields):
    __slots__ = ()

    def __new__(
        cls,
        p_min: int,
        p_max: int,
        worker_count: int = 1,
        checkpoint_path: Optional[str] = None,
        output_path: str = "cuboids.jsonl",
    ) -> "SearchConfig":
        if p_min < 1 or p_min > p_max:
            raise ValueError("need 1 <= p_min <= p_max")
        if worker_count < 1:
            raise ValueError("worker_count must be positive")
        return tuple.__new__(
            cls, (p_min, p_max, worker_count, checkpoint_path, output_path)
        )


def _read_lines(path: str) -> List[str]:
    """All lines of a text file the search wrote; bytes that are not UTF-8
    mean the file is damaged."""
    with open(path, encoding="utf-8") as fh:
        try:
            return fh.readlines()
        except UnicodeDecodeError as exc:
            raise ResumeMismatch(f"{path} is damaged: {exc.reason}") from None


class SearchCheckpoint(NamedTuple):
    """The state of a run after its last merged p: its p range and the
    summary counters so far.  The file holds one `field=value` line per
    field, in this order, so equal states give equal bytes.  Worker count
    and file paths are left out; they do not affect the result."""

    version: int
    p_min: int
    p_max: int
    last_completed_p: int
    candidates_found: int
    pairs_examined: int
    pairs_nonempty: int
    candidates_evaluated: int

    def write(self, path: str) -> None:
        tmp = path + ".tmp"
        with open(tmp, "w", encoding="utf-8") as fh:
            fh.writelines(f"{k}={v}\n" for k, v in zip(self._fields, self))
        os.replace(tmp, path)

    @staticmethod
    def read(path: str) -> "SearchCheckpoint":
        """Parse a checkpoint of the current version; another version, or a
        missing or non-integer field, raises ResumeMismatch."""
        fields: Dict[str, str] = {}
        for line in _read_lines(path):
            key, _, value = line.strip().partition("=")
            fields[key] = value
        if fields.get("version") != str(CHECKPOINT_VERSION):
            raise ResumeMismatch(
                f"checkpoint {path} has version {fields.get('version')}, "
                f"expected {CHECKPOINT_VERSION}"
            )
        try:
            return SearchCheckpoint(
                *(int(fields[name]) for name in SearchCheckpoint._fields)
            )
        except KeyError as exc:
            raise ResumeMismatch(
                f"checkpoint {path} is damaged: missing field {exc}"
            ) from None
        except ValueError as exc:
            raise ResumeMismatch(f"checkpoint {path} is damaged: {exc}") from None


class SearchReport:
    """Counters, hits and wall time of one run_search call."""

    def __init__(self) -> None:
        self.pairs_examined = 0
        self.pairs_nonempty = 0
        self.candidates_evaluated = 0
        self.hits: List[CuboidWitness] = []
        self.wall_time = 0.0


def t_bounds(p: int, q: int) -> Optional[Tuple[int, int]]:
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


def _prime_factors(n: int) -> Dict[int, int]:
    out: Dict[int, int] = {}
    d = 2
    while d * d <= n:
        while n % d == 0:
            out[d] = out.get(d, 0) + 1
            n //= d
        d += 1
    if n > 1:
        out[n] = out.get(n, 0) + 1
    return out


_FACTOR_LISTS: Dict[int, Tuple[int, ...]] = {}


def factor_list(n: int) -> Tuple[int, ...]:
    """Sorted products of one factor from {1, l^e, l^(2e)} per l^e exactly
    dividing n, 3^omega(n) numbers.  Memoized per process: a search up to
    p_max uses only the n below about 1.84 p_max (the q cap), each for
    every larger p."""
    products = _FACTOR_LISTS.get(n)
    if products is None:
        out = [1]
        for prime, exp in _prime_factors(n).items():
            step = prime**exp
            out = [c * f for c in out for f in (1, step, step * step)]
        products = _FACTOR_LISTS[n] = tuple(sorted(out))
    return products


def clipped_products(
    fa: Sequence[int], fb: Sequence[int], lo: int, hi: int
) -> List[int]:
    """The products a * b in [lo, hi] with a in fa and b in fb, both sorted
    and positive.  With factor_list(p) and factor_list(q) for a coprime
    pair they are its valuation candidates, each once, unsorted.

    The loop runs over the shorter list and only over the a with
    lo <= a * max(fb) and a <= hi; the b for each a are found by bisection,
    so no product outside [lo, hi] is formed."""
    if len(fa) > len(fb):
        fa, fb = fb, fa
    below = lo - 1
    out: List[int] = []
    for a in fa[bisect_right(fa, below // fb[-1]):bisect_right(fa, hi)]:
        i = bisect_right(fb, below // a)
        for b in fb[i:bisect_right(fb, hi // a, i)]:
            out.append(a * b)
    return out


def pair_count(p: int) -> int:
    """The number of admissible pairs for p, in closed form: q runs over
    1 <= q <= 59p - 1 with q != p and q coprime to p, so there are
    59 phi(p) of them, or 57 for p = 1."""
    if p == 1:
        return 57
    phi = p
    for prime in _prime_factors(p):
        phi -= phi // prime
    return 59 * phi


def _scan_p(p: int) -> Tuple[int, int, int, int, tuple]:
    """Worker: search every pair for one p, walking q upward until the first
    coprime q > p with an empty range.  Returns (p, pairs_examined,
    pairs_nonempty, candidates_evaluated, hits).

    A root goes straight to `reconstruct_cuboid`: the search inequality
    (p^2 + t)(pq + t) > 2 t^2 holds exactly for t between its negative root
    and r(q), and every candidate is positive and at most hi < r(q)."""
    fp = factor_list(p)
    nonempty = evaluated = 0
    hits: List[CuboidWitness] = []
    for q in itertools.count(1):
        if q == p or math.gcd(p, q) != 1:
            continue
        bounds = t_bounds(p, q)
        if bounds is None:
            if q > p:
                break
            continue
        nonempty += 1
        candidates = clipped_products(fp, factor_list(q), *bounds)
        if not candidates:
            continue
        evaluated += len(candidates)
        c0, c2, c4, c6, c8 = qpq_coefficients(p, q)
        for t in candidates:
            u = t * t
            if ((((u + c8) * u + c6) * u + c4) * u + c2) * u + c0:
                continue
            for tag in CaseTag:
                hits.append(reconstruct_cuboid(p, q, t, tag))
    hits.sort(key=lambda w: (w.p, w.q, w.t, w.case_tag.value))
    return p, pair_count(p), nonempty, evaluated, tuple(hits)


def use_pool(worker_count: int, todo: Sequence[int]) -> bool:
    """Whether to search the values of p in `todo` on a worker pool: only
    with several workers, several p and at least POOL_MIN_WORK work."""
    return worker_count > 1 and len(todo) > 1 and sum(todo) >= POOL_MIN_WORK


def _json_line(obj: dict) -> str:
    return json.dumps(obj, separators=(",", ":")) + "\n"


def _kept_witness(obj: dict, line: str, where: str) -> CuboidWitness:
    """Rebuild and verify the witness of a hit line from the completed
    prefix; the line must be exactly that witness's serialisation."""
    try:
        tag = CaseTag(obj["case"])
        witness = reconstruct_cuboid(obj["p"], obj["q"], obj["t"], tag)
    except (KeyError, TypeError, ValueError) as exc:
        raise ResumeMismatch(f"{where} is not a verified hit: {exc}") from None
    if _json_line(witness.to_json_dict()) != line.rstrip("\n") + "\n":
        raise ResumeMismatch(f"{where} differs from the hit it records")
    return witness


def _load_resume_state(
    config: SearchConfig,
) -> Tuple[SearchCheckpoint, List[CuboidWitness]]:
    """Validate the checkpoint and salvage the hits of completed p.

    The checkpoint must be for the configured p range, and its last
    completed p must lie in that range.  Returns the checkpoint and the
    witnesses of the hit lines kept, each rebuilt from its (p, q, t, case)
    and checked against its line.  Lines for p beyond the checkpoint
    (interrupted mid-p), any stale summary line and an unparsable final line
    (torn by the interruption) are dropped, so the final file is
    byte-identical to an uninterrupted run.
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
    kept = []
    if os.path.exists(config.output_path):
        lines = _read_lines(config.output_path)
        for number, line in enumerate(lines, start=1):
            if not line.strip():
                continue
            where = f"output {config.output_path} line {number}"
            try:
                obj = json.loads(line)
            except ValueError:
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


ProgressFn = Callable[[int, int, int, int, int], None]


def run_search(
    config: SearchConfig,
    progress: Optional[ProgressFn] = None,
    abort_after_p: Optional[int] = None,
) -> SearchReport:
    """Run the full search over [p_min, p_max].

    Results are merged in p order and the JSONL output (hit lines plus one
    final summary line of counters) is deterministic for any worker count.
    The checkpoint, a snapshot of the p range and the summary counters taken
    right after each p is merged and flushed, is rewritten atomically after
    the p that brings the work merged since its last write to
    CHECKPOINT_MIN_WORK, after the last p, and when the run is interrupted
    or fails.  The report's wall time is that of this call alone.
    `progress(p, pairs, nonempty, evaluated, hits)` is called per completed
    p.  `abort_after_p` simulates an interruption right after that p
    completes (test hook for the resume contract).
    """
    start = time.monotonic()
    report = SearchReport()
    resume_from = config.p_min

    resuming = config.checkpoint_path and os.path.exists(config.checkpoint_path)
    if resuming:
        ckpt, report.hits = _load_resume_state(config)
        resume_from = ckpt.last_completed_p + 1
        report.pairs_examined = ckpt.pairs_examined
        report.pairs_nonempty = ckpt.pairs_nonempty
        report.candidates_evaluated = ckpt.candidates_evaluated

    out = open(config.output_path, "w", encoding="utf-8")
    try:
        out.writelines(_json_line(w.to_json_dict()) for w in report.hits)
        out.flush()

        todo = list(range(resume_from, config.p_max + 1))
        if use_pool(config.worker_count, todo):
            # imported here: only pool runs need it, and it takes about a
            # third of the CLI's import time
            from concurrent.futures import ProcessPoolExecutor

            # a fork-started pool forks all its workers up front
            executor = ProcessPoolExecutor(
                max_workers=min(config.worker_count, len(todo))
            )
            results = executor.map(_scan_p, todo)
        else:
            executor = None
            results = map(_scan_p, todo)
        last = None  # checkpoint for the last merged p
        unsaved = 0  # work merged since `last` was written
        try:
            for p, pairs, nonempty, evaluated, hits in results:
                report.pairs_examined += pairs
                report.pairs_nonempty += nonempty
                report.candidates_evaluated += evaluated
                for witness in hits:
                    report.hits.append(witness)
                    out.write(_json_line(witness.to_json_dict()))
                out.flush()
                if config.checkpoint_path:
                    last = SearchCheckpoint(
                        version=CHECKPOINT_VERSION,
                        p_min=config.p_min,
                        p_max=config.p_max,
                        last_completed_p=p,
                        candidates_found=len(report.hits),
                        pairs_examined=report.pairs_examined,
                        pairs_nonempty=report.pairs_nonempty,
                        candidates_evaluated=report.candidates_evaluated,
                    )
                    unsaved += p
                    if unsaved >= CHECKPOINT_MIN_WORK:
                        last.write(config.checkpoint_path)
                        unsaved = 0
                if progress:
                    progress(p, pairs, nonempty, evaluated, len(hits))
                if abort_after_p is not None and p >= abort_after_p:
                    raise KeyboardInterrupt("simulated interruption")
        finally:
            # on completion, interruption or failure alike
            if unsaved:
                last.write(config.checkpoint_path)
            if executor is not None:
                executor.shutdown(cancel_futures=True)

        out.write(_json_line({
            "summary": True,
            "pairs_examined": report.pairs_examined,
            "pairs_nonempty": report.pairs_nonempty,
            "candidates_evaluated": report.candidates_evaluated,
            "hits": len(report.hits),
        }))
    finally:
        out.close()
    report.wall_time = time.monotonic() - start
    return report
