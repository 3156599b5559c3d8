"""The cuboidsearch benchmark.

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a source checkout: the program is imported from
`src/` as it stands, with nothing installed.  Every repetition is a fresh
child process (bench/child.py) that imports `cuboidsearch.cli` and makes
its CLI calls through `cuboidsearch.cli.main(argv)`.  The benchmark passes
only the options `--p-min`, `--p-max`, `--threads`, `--checkpoint` and
`--out` to `search`, so that changes to the search modes and sieves can be
measured on the same workloads.

Workloads (BENCHMARK.json says why each was chosen):
  search-cold    search --p-min 1 --p-max 40 --threads 1, fresh.
  search-resume  an interrupted run is made untimed with the library's own
                 run_search(..., abort_after_p=26); the timed run resumes
                 it to p = 40 with one worker per CPU available.
  audit          roots --p p --q q for 80 seeded coprime pairs with
                 59p <= q <= 118p, p <= 50, then identity-check --max-pq 120.
The seed picks the audit pairs only; the search workloads' inputs are their
p ranges, which do not depend on it.

With --trace 0 the run repeats the workload for --seconds (at least three
times) and reports the end-to-end metrics:
  setup_s      launch of the child until it is ready for its first CLI call
               (interpreter start and `import cuboidsearch.cli`)
  wall_s       the timed calls
  pairs_per_s  (p, q) pairs covered per second of wall_s, counted by the
               benchmark: the coprime q < 59p, q != p of the searched p on
               the search workloads; the certified pairs plus the pairs the
               identity check covers on audit
  cpu_s        user + sys CPU of the child and its pool workers (os.wait4)
  rss_peak_mb  peak resident memory of the child (os.wait4)
Each is the median over the run's repetitions.  The times are scaled to a
reference host speed: on a shared host the speed of the same code drifts by
up to a factor of two over periods of seconds to minutes, so that raw times
mostly say how busy the host was.  Each child therefore times a fixed piece
of pure-Python work (child.probe) right before and right after its timed
calls, and a repetition's times are multiplied by PROBE_REF_S over the mean
of its two probe times (set-up by the first probe only).  The probe uses no
program code, so a change to the program moves the scaled times as it moves
the raw ones.  The raw times and probe times of every repetition, and on
audit the per-call latency of `roots` (median and p95 pooled over
repetitions, with the sample count) and the duration of `identity-check`,
are in the line before the result.

With --trace 1 the run alternates untraced and traced repetitions and
reports the per-layer metrics of spans.py, medians over the traced ones
with times scaled as above, plus trace.overhead_s: median traced wall_s
minus median untraced wall_s.

Every CLI call is one operation.  A nonzero exit code or a failed output
check fails it: search must exit 0, write no hit line and a summary with
hits == 0 and, where the summary has it, pairs_examined equal to the
benchmark's own pair count; a resumed output must be byte-identical to an
uninterrupted run of the same range, made once per run and untimed; every
roots call must exit 0; identity-check must report exactly the benchmark's
own count of coprime pairs.

The line before the result holds the machine facts, sample counts and the
error rate; the last line is the result object.  The run exits 2 without a
result when it is not started from a checkout holding the program.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import os
import platform
import random
import re
import shutil
import signal
import statistics
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
CHILD = os.path.join(HERE, "child.py")
sys.path.insert(0, HERE)
import spans  # noqa: E402

WORKDIR = ".bench_work"
# A run ends within this many seconds even when the program hangs: a child
# still running then is killed and its calls count as failed.
RUN_LIMIT_S = 170
MIN_REPS = 3
MAX_REPS = 200
# Seconds that child.probe() takes on an unloaded reference host (the
# 2-vCPU host the benchmark was defined on, Python 3.11).
PROBE_REF_S = 0.05

SIZES = {
    "full": dict(
        cold_p_max=40, resume_from_p=26, resume_p_max=40,
        audit_pairs=80, audit_p_max=50, audit_q_factor=2, identity_max_pq=120,
    ),
    "tiny": dict(
        cold_p_max=5, resume_from_p=2, resume_p_max=5,
        audit_pairs=5, audit_p_max=5, audit_q_factor=2, identity_max_pq=20,
    ),
}

END_TO_END = {
    "setup_s": "s",
    "wall_s": "s",
    "pairs_per_s": "1/s",
    "cpu_s": "s",
    "rss_peak_mb": "MB",
}


class ChildFailed(RuntimeError):
    """A child made for the run's untimed set-up did not succeed."""


def search_pair_count(p_lo, p_hi):
    """Coprime pairs (p, q) with p_lo <= p <= p_hi, 1 <= q < 59p, q != p."""
    return sum(
        1
        for p in range(p_lo, p_hi + 1)
        for q in range(1, 59 * p)
        if q != p and math.gcd(p, q) == 1
    )


def identity_pair_count(max_pq):
    """Coprime pairs (p, q) with 1 <= p < q <= max_pq."""
    return sum(
        1 for q in range(2, max_pq + 1) for p in range(1, q) if math.gcd(p, q) == 1
    )


def search_output_problems(path, expected_pairs):
    """Problems with a search output file: hit lines, or a missing or wrong
    summary line."""
    try:
        with open(path, encoding="utf-8") as fh:
            records = [json.loads(line) for line in fh if line.strip()]
    except (OSError, ValueError) as exc:
        return [f"unreadable output {path}: {exc}"]
    problems = []
    hits = [r for r in records if not r.get("summary")]
    if hits:
        problems.append(f"{len(hits)} hit lines")
    if not records or not records[-1].get("summary") or len(hits) != len(records) - 1:
        return problems + ["no single summary line at the end"]
    summary = records[-1]
    if summary.get("hits") != 0:
        problems.append(f"summary hits = {summary.get('hits')}")
    if "pairs_examined" in summary and summary["pairs_examined"] != expected_pairs:
        problems.append(
            f"pairs_examined = {summary['pairs_examined']}, expected {expected_pairs}"
        )
    return problems


class Runner:
    """Spawns children from the checkout root and keeps the run's counts."""

    def __init__(self, root, work, deadline):
        self.root = root
        self.work = work
        self.deadline = deadline
        self.attempted = 0
        self.failed = 0
        self.env = dict(os.environ)
        self.env["PYTHONPATH"] = os.path.join(root, "src")
        self.env["PYTHONHASHSEED"] = "0"
        # Set-up is measured with the bytecode cache in use, as for an
        # installed program, whatever the caller's environment says.
        self.env.pop("PYTHONDONTWRITEBYTECODE", None)
        self._spawned = 0

    def fail(self, message):
        self.failed += 1
        print(f"FAILED: {message}", file=sys.stderr)

    def spawn(self, request):
        """Run one child to completion.  Returns (reply or None, exit code,
        setup_s, cpu_s, rss_peak_mb)."""
        self._spawned += 1
        base = os.path.join(self.work, f"child-{self._spawned}")
        with open(base + ".req", "w", encoding="utf-8") as fh:
            json.dump(request, fh)
        flags = os.O_WRONLY | os.O_CREAT | os.O_TRUNC
        actions = [
            (os.POSIX_SPAWN_OPEN, 0, os.devnull, os.O_RDONLY, 0),
            (os.POSIX_SPAWN_OPEN, 1, base + ".out", flags, 0o644),
            (os.POSIX_SPAWN_OPEN, 2, base + ".err", flags, 0o644),
        ]
        argv = [sys.executable, CHILD, base + ".req"]
        start = time.monotonic()
        pid = os.posix_spawn(sys.executable, argv, self.env, file_actions=actions, setsid=True)
        status, usage = _wait(pid, max(0.1, self.deadline - time.monotonic()))
        code = os.waitstatus_to_exitcode(status) if status is not None else None
        with open(base + ".out", encoding="utf-8") as fh:
            lines = fh.read().splitlines()
        reply = None
        if code == 0 and lines:
            try:
                reply = json.loads(lines[-1])
            except ValueError:
                reply = None
        if reply is None:
            with open(base + ".err", encoding="utf-8", errors="replace") as fh:
                sys.stderr.write(fh.read()[-4000:])
            return None, code, None, None, None
        return (
            reply,
            code,
            reply["ready"] - start,
            usage.ru_utime + usage.ru_stime,
            usage.ru_maxrss / 1024.0,
        )


class _Timeout(Exception):
    pass


def _alarm(signum, frame):
    raise _Timeout()


def _wait(pid, timeout):
    """Wait for the child; on timeout kill its whole process group, pool
    workers included.  Returns (status or None on timeout, rusage)."""
    previous = signal.signal(signal.SIGALRM, _alarm)
    signal.setitimer(signal.ITIMER_REAL, timeout)
    try:
        _, status, usage = os.wait4(pid, 0)
        return status, usage
    except _Timeout:
        os.killpg(pid, signal.SIGKILL)
        _, _, usage = os.wait4(pid, 0)
        return None, usage
    except BaseException:
        os.killpg(pid, signal.SIGKILL)
        os.wait4(pid, 0)
        raise
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, previous)


class Workload:
    """One workload: its untimed preparation, the calls of one repetition,
    and the checks on their outputs."""

    seed_affects_inputs = False

    def __init__(self, runner, sizes, seed):
        self.runner = runner
        self.sizes = sizes

    def prepare(self):
        pass

    def calls(self, repdir):
        """(argv list, capture-stdout flags) for one repetition."""
        raise NotImplementedError

    def check(self, repdir, calls):
        """Record a failure for each call whose output is wrong."""
        raise NotImplementedError

    def extra(self, reps):
        """Workload-specific figures for the line before the result."""
        return {}


class SearchCold(Workload):
    def __init__(self, runner, sizes, seed):
        super().__init__(runner, sizes, seed)
        self.p_max = sizes["cold_p_max"]
        self.pairs = search_pair_count(1, self.p_max)
        self.first_output = None

    def calls(self, repdir):
        argv = [
            "search", "--p-min", "1", "--p-max", str(self.p_max),
            "--threads", "1", "--out", os.path.join(repdir, "out.jsonl"),
        ]
        return [argv], [False]

    def check(self, repdir, calls):
        path = os.path.join(repdir, "out.jsonl")
        problems = search_output_problems(path, self.pairs)
        if calls[0]["code"] != 0:
            problems.append(f"exit code {calls[0]['code']}")
        if not problems:
            with open(path, "rb") as fh:
                output = fh.read()
            if self.first_output is None:
                self.first_output = output
            elif output != self.first_output:
                problems.append("output differs from the first repetition")
        if problems:
            self.runner.fail("search-cold: " + "; ".join(problems))

    def facts(self):
        return {"p_min": 1, "p_max": self.p_max, "threads": 1, "pairs": self.pairs}


class SearchResume(Workload):
    def __init__(self, runner, sizes, seed):
        super().__init__(runner, sizes, seed)
        self.k = sizes["resume_from_p"]
        self.p_max = sizes["resume_p_max"]
        # One worker per CPU, but no more workers than values of p to resume.
        self.threads = min(len(os.sched_getaffinity(0)), self.p_max - self.k)
        self.all_pairs = search_pair_count(1, self.p_max)
        self.pairs = search_pair_count(self.k + 1, self.p_max)
        self.fixture = os.path.join(runner.work, "fixture")
        self.reference = None

    def _argv(self, out, checkpoint=None):
        argv = ["search", "--p-min", "1", "--p-max", str(self.p_max),
                "--threads", str(self.threads)]
        if checkpoint:
            argv += ["--checkpoint", checkpoint]
        return argv + ["--out", out]

    def prepare(self):
        runner = self.runner
        ref_path = os.path.join(runner.work, "reference.jsonl")
        runner.attempted += 1
        reply, code, *_ = runner.spawn(
            {"kind": "calls", "calls": [self._argv(ref_path)], "capture": [False]}
        )
        if reply is None or reply["calls"][0]["code"] != 0:
            runner.fail(f"search-resume: uninterrupted reference run failed ({code})")
        else:
            problems = search_output_problems(ref_path, self.all_pairs)
            if problems:
                runner.fail("search-resume: reference: " + "; ".join(problems))
            else:
                with open(ref_path, "rb") as fh:
                    self.reference = fh.read()
        os.makedirs(self.fixture)
        reply, code, *_ = runner.spawn({
            "kind": "interrupt", "p_max": self.p_max, "abort_after_p": self.k,
            "checkpoint": os.path.join(self.fixture, "run.ckpt"),
            "out": os.path.join(self.fixture, "out.jsonl"),
        })
        if reply is None or not os.path.exists(os.path.join(self.fixture, "run.ckpt")):
            raise ChildFailed(f"could not make the interrupted run (exit {code})")

    def calls(self, repdir):
        for name in os.listdir(self.fixture):
            shutil.copyfile(os.path.join(self.fixture, name), os.path.join(repdir, name))
        argv = self._argv(os.path.join(repdir, "out.jsonl"), os.path.join(repdir, "run.ckpt"))
        return [argv], [False]

    def check(self, repdir, calls):
        path = os.path.join(repdir, "out.jsonl")
        problems = search_output_problems(path, self.all_pairs)
        if calls[0]["code"] != 0:
            problems.append(f"exit code {calls[0]['code']}")
        if not problems:
            with open(path, "rb") as fh:
                if fh.read() != self.reference:
                    problems.append("resumed output differs from the uninterrupted run")
        if problems:
            self.runner.fail("search-resume: " + "; ".join(problems))

    def facts(self):
        return {"p_min": 1, "resume_after_p": self.k, "p_max": self.p_max,
                "threads": self.threads, "pairs": self.pairs}


class Audit(Workload):
    seed_affects_inputs = True

    def __init__(self, runner, sizes, seed):
        super().__init__(runner, sizes, seed)
        rng = random.Random(seed)
        self.audit_pairs = []
        for _ in range(sizes["audit_pairs"]):
            p = rng.randint(1, sizes["audit_p_max"])
            lo, hi = 59 * p, sizes["audit_q_factor"] * 59 * p
            q = rng.randint(lo, hi)
            while math.gcd(p, q) != 1:
                q = rng.randint(lo, hi)
            self.audit_pairs.append((p, q))
        self.max_pq = sizes["identity_max_pq"]
        self.identity_pairs = identity_pair_count(self.max_pq)
        self.pairs = len(self.audit_pairs) + self.identity_pairs

    def calls(self, repdir):
        argvs = [["roots", "--p", str(p), "--q", str(q)] for p, q in self.audit_pairs]
        argvs.append(["identity-check", "--max-pq", str(self.max_pq)])
        return argvs, [False] * len(self.audit_pairs) + [True]

    def check(self, repdir, calls):
        for (p, q), call in zip(self.audit_pairs, calls):
            if call["code"] != 0:
                self.runner.fail(f"audit: roots --p {p} --q {q} exit {call['code']}")
        ident = calls[-1]
        match = re.search(r"identity holds for all (\d+) coprime pairs", ident.get("stdout", ""))
        if ident["code"] != 0 or not match or int(match.group(1)) != self.identity_pairs:
            self.runner.fail(
                f"audit: identity-check exit {ident['code']}, expected "
                f"{self.identity_pairs} pairs, output {ident.get('stdout', '')!r}"
            )

    def extra(self, reps):
        roots_ms = [c["s"] * 1000 for r in reps for c in r["calls"][:-1]]
        identity_s = [r["calls"][-1]["s"] for r in reps]
        p95 = _p95(roots_ms)
        return {
            "roots_p50_ms": statistics.median(roots_ms),
            "roots_p95_ms": p95,
            "roots_samples": len(roots_ms),
            "roots_beyond_p95": sum(1 for x in roots_ms if x > p95),
            "identity_check_s": statistics.median(identity_s),
            "identity_check_samples": len(identity_s),
        }

    def facts(self):
        return {"roots_pairs": len(self.audit_pairs), "p_max": self.sizes["audit_p_max"],
                "q_range": f"59p..{self.sizes['audit_q_factor'] * 59}p",
                "identity_max_pq": self.max_pq, "pairs": self.pairs}


WORKLOADS = {"search-cold": SearchCold, "search-resume": SearchResume, "audit": Audit}


def _p95(values):
    if len(values) < 2:
        return values[0]
    return statistics.quantiles(values, n=20, method="inclusive")[18]


def run_rep(workload, runner, index, traced):
    """One repetition in a fresh child; None if the child itself failed."""
    repdir = os.path.join(runner.work, f"rep-{index}")
    os.makedirs(repdir)
    argvs, capture = workload.calls(repdir)
    runner.attempted += len(argvs)
    reply, code, setup_s, cpu_s, rss_mb = runner.spawn(
        {"kind": "calls", "calls": argvs, "capture": capture, "trace": traced}
    )
    if reply is None:
        runner.failed += len(argvs)
        print(f"FAILED: child exited {code} without a reply", file=sys.stderr)
        shutil.rmtree(repdir)
        return None
    workload.check(repdir, reply["calls"])
    shutil.rmtree(repdir)
    reply.update(setup_s=setup_s, cpu_s=cpu_s, rss_mb=rss_mb)
    return reply


def git_revision(root):
    """The checked-out commit, read from .git without running git; None
    outside a git checkout."""
    git = os.path.join(root, ".git")
    try:
        with open(os.path.join(git, "HEAD"), encoding="utf-8") as fh:
            head = fh.read().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        ref_path = os.path.join(git, ref)
        if os.path.exists(ref_path):
            with open(ref_path, encoding="utf-8") as fh:
                return fh.read().strip()
        with open(os.path.join(git, "packed-refs"), encoding="utf-8") as fh:
            for line in fh:
                if line.rstrip().endswith(" " + ref):
                    return line.split()[0]
    except OSError:
        pass
    return None


def source_digest(root):
    digest = hashlib.sha256()
    src = os.path.join(root, "src")
    for dirpath, dirnames, filenames in os.walk(src):
        dirnames.sort()
        for name in sorted(filenames):
            if name.endswith(".py"):
                path = os.path.join(dirpath, name)
                digest.update(os.path.relpath(path, src).encode())
                with open(path, "rb") as fh:
                    digest.update(fh.read())
    return digest.hexdigest()[:16]


def measure(workload, runner, seconds, trace):
    """Repeat the workload for `seconds`; return (untraced, traced) replies."""
    untraced, traced = [], []
    deadline = time.monotonic() + seconds
    index = 0
    while True:
        for is_traced in ((False, True) if trace else (False,)):
            index += 1
            reply = run_rep(workload, runner, index, is_traced)
            if reply is not None:
                (traced if is_traced else untraced).append(reply)
        now = time.monotonic()
        enough = len(untraced) >= (1 if trace else MIN_REPS)
        if (enough and now >= deadline) or index >= MAX_REPS or now >= runner.deadline:
            return untraced, traced


def slowdown(rep, first_probe_only=False):
    """How much slower than the reference the host ran during a repetition,
    from the probe runs around its timed calls."""
    probes = rep["probe_s"][:1] if first_probe_only else rep["probe_s"]
    return statistics.fmean(probes) / PROBE_REF_S


def end_to_end(workload, untraced):
    """Medians over the repetitions, times scaled to the reference host
    speed."""
    wall = statistics.median(r["phase_s"] / slowdown(r) for r in untraced)
    return {
        "setup_s": statistics.median(r["setup_s"] / slowdown(r, True) for r in untraced),
        "wall_s": wall,
        "pairs_per_s": workload.pairs / wall,
        "cpu_s": statistics.median(r["cpu_s"] / slowdown(r) for r in untraced),
        "rss_peak_mb": statistics.median(r["rss_mb"] for r in untraced),
    }


def per_layer(untraced, traced):
    """Medians over the traced repetitions, times scaled like the
    end-to-end ones."""
    samples = []
    for rep in traced:
        values = spans.layer_metrics(rep["stats"], rep["counts"])
        for name, unit in spans.LAYER_METRICS.items():
            if unit == "s" and name in values:
                values[name] /= slowdown(rep)
        samples.append(values)
    values = {name: statistics.median(s[name] for s in samples) for name in samples[0]}
    values["trace.overhead_s"] = (
        statistics.median(r["phase_s"] / slowdown(r) for r in traced)
        - statistics.median(r["phase_s"] / slowdown(r) for r in untraced)
    )
    return values


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument(
        "--tiny", action="store_true",
        help="smoke-test sizes (p <= 5, 5 audit pairs); not a measurement",
    )
    args = parser.parse_args(argv)

    root = os.getcwd()
    if not os.path.isfile(os.path.join(root, "src", "cuboidsearch", "cli.py")):
        print("error: run from the root of a cuboidsearch checkout "
              "(src/cuboidsearch/cli.py not found)", file=sys.stderr)
        return 2

    run_deadline = time.monotonic() + RUN_LIMIT_S
    sizes = SIZES["tiny" if args.tiny else "full"]
    work = os.path.join(root, WORKDIR, f"{args.workload}-{os.getpid()}")
    os.makedirs(work)
    try:
        runner = Runner(root, work, run_deadline)
        workload = WORKLOADS[args.workload](runner, sizes, args.seed)
        # Untimed: fills the bytecode cache and the file cache, as an
        # installed program would have them.
        runner.spawn({"kind": "calls", "calls": [], "capture": []})
        workload.prepare()
        untraced, traced = measure(workload, runner, args.seconds, args.trace)
        if not untraced or (args.trace and not traced):
            print("error: no repetition completed", file=sys.stderr)
            return 1
        if args.trace:
            values = per_layer(untraced, traced)
            units = spans.LAYER_METRICS
        else:
            values = end_to_end(workload, untraced)
            units = END_TO_END
        details = {
            "workload": args.workload,
            "facts": {
                "python": platform.python_version(),
                "implementation": platform.python_implementation(),
                "platform": f"{platform.system()} {platform.release()} {platform.machine()}",
                "cpus_available": len(os.sched_getaffinity(0)),
                "cpu_count": os.cpu_count(),
                "git_revision": git_revision(root),
                "source_sha256": source_digest(root),
                "seed": args.seed,
                "seed_affects_inputs": workload.seed_affects_inputs,
                "sizes": workload.facts(),
            },
            "samples": {"untraced_reps": len(untraced), "traced_reps": len(traced)},
            "reps": {key: [r[key] for r in untraced]
                     for key in ("setup_s", "phase_s", "cpu_s", "rss_mb", "probe_s")},
            "error_rate": {
                "failed": runner.failed,
                "attempted": runner.attempted,
                "value": runner.failed / runner.attempted,
                "base": "CLI calls",
            },
            "workload_metrics": workload.extra(untraced),
        }
        if traced:
            details["absent"] = traced[0].get("absent", [])
        print(json.dumps({"details": details}))
        print(json.dumps({
            "correct": runner.failed == 0,
            "attempted": runner.attempted,
            "failed": runner.failed,
            "metrics": {name: {"value": values[name], "unit": unit}
                        for name, unit in units.items()},
        }))
        return 0
    except ChildFailed as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(work, ignore_errors=True)
        try:
            os.rmdir(os.path.join(root, WORKDIR))
        except OSError:
            pass


if __name__ == "__main__":
    sys.exit(main())
