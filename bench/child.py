"""One child process of the benchmark.

    python3 bench/child.py REQUEST.json

The child imports `cuboidsearch.cli` before anything else, so that the
parent can time interpreter start plus that import as set-up: it records the
moment it is ready to make its first CLI call on the system-wide monotonic
clock.  It then does what the request asks and prints one JSON reply line.

Request kinds:
  {"kind": "calls", "calls": [argv, ...], "capture": [bool, ...], "trace": bool}
      make each call through `cuboidsearch.cli.main(argv)` in turn, timing
      each; return the exit codes, the captured standard output where asked,
      the times of probe() right before and right after the calls (run.py
      scales by them) and, when traced, the aggregated spans (spans.py).
  {"kind": "interrupt", "p_max": P, "abort_after_p": K, "checkpoint": path,
   "out": path}
      make the interrupted search that a resume starts from, with the
      library's own `run_search(..., abort_after_p=K)`, so that the
      checkpoint format stays the program's own.
"""

import sys
import time

import cuboidsearch.cli

READY = time.monotonic()

import contextlib  # noqa: E402  imports after READY are the benchmark's own
import io  # noqa: E402
import json  # noqa: E402
import traceback  # noqa: E402
from fractions import Fraction  # noqa: E402


def probe():
    """Seconds taken by a fixed piece of pure-Python work that resembles
    the program's: residue-set membership tests, modular Horner steps and
    rational arithmetic.  It uses nothing from the program, so its time
    only tracks how fast the host runs this interpreter at the moment."""
    start = time.perf_counter()
    residues = [
        (m, frozenset(r for r in range(m) if (r * r * r + 3 * r + 5) % m == 0 or r % 3 == 0))
        for m in (64, 81, 25, 7, 11, 13)
    ]
    passed = 0
    for t in range(60000):
        if not any(t % m not in rs for m, rs in residues):
            passed += 1
    acc = 0
    for x in range(30000):
        acc = (acc * x + 7) % 1000003
    total = Fraction(0)
    for i in range(1, 560):
        total += Fraction(i % 7, i)
    return time.perf_counter() - start


def _calls(request):
    reply = {"calls": []}
    cli = cuboidsearch.cli
    if request.get("trace"):
        import spans
        from cuboidsearch import asymptotics, cuboid_eqs, exact_arith, search

        tracer = spans.Tracer()
        reply["absent"] = spans.install(tracer, {
            "cli": cli, "search": search, "cuboid_eqs": cuboid_eqs,
            "asymptotics": asymptotics, "exact_arith": exact_arith,
        })
    reply["probe_s"] = [probe()]
    start = time.perf_counter()
    for argv, capture in zip(request["calls"], request["capture"]):
        out = io.StringIO()
        t0 = time.perf_counter()
        try:
            with contextlib.redirect_stdout(out):
                code = cli.main(argv)
        except Exception:  # a crash is one failed call; the run goes on
            traceback.print_exc()
            code = None
        elapsed = time.perf_counter() - t0
        call = {"code": code, "s": elapsed}
        if capture:
            call["stdout"] = out.getvalue()
        reply["calls"].append(call)
    reply["phase_s"] = time.perf_counter() - start
    reply["probe_s"].append(probe())
    if request.get("trace"):
        reply["stats"] = tracer.stats
        reply["counts"] = tracer.counts
    return reply


def _interrupt(request):
    from cuboidsearch.search import SearchConfig, run_search

    config = SearchConfig(
        p_min=1,
        p_max=request["p_max"],
        worker_count=1,
        checkpoint_path=request["checkpoint"],
        output_path=request["out"],
    )
    try:
        run_search(config, abort_after_p=request["abort_after_p"])
    except KeyboardInterrupt:
        pass
    return {}


def main():
    with open(sys.argv[1], encoding="utf-8") as fh:
        request = json.load(fh)
    handler = {"calls": _calls, "interrupt": _interrupt}[request["kind"]]
    reply = handler(request)
    reply["ready"] = READY
    sys.stdout.write(json.dumps(reply) + "\n")


if __name__ == "__main__":
    main()
