"""Smoke test of the benchmark itself, at tiny sizes.

    python3 bench/smoke_check.py

Run from anywhere; it runs the benchmark from the checkout root that holds
this directory.  It checks that every workload, traced and untraced, emits
exactly the metrics BENCHMARK.json names, each with its unit; that the
tracer's self-time arithmetic is right; and that names a later version of
the program deletes are reported as absent, not as errors.  The file name
keeps it out of the program's own test suite.
"""

import json
import os
import shutil
import subprocess
import sys
import types
import unittest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, HERE)
import run  # noqa: E402
import spans  # noqa: E402


def load_benchmark():
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        return json.load(fh)


class ScriptedClock:
    def __init__(self, times):
        self.times = list(times)

    def __call__(self):
        return self.times.pop(0)


class TracerArithmetic(unittest.TestCase):
    def test_self_time_excludes_direct_children(self):
        # a [0, 10] holds b [1, 3] and c [4, 5]; b holds d [1.5, 2.5]
        tracer = spans.Tracer(clock=ScriptedClock([0, 1, 1.5, 2.5, 3, 4, 5, 10]))
        tracer.open("a")
        tracer.open("b")
        tracer.open("d")
        tracer.close()
        tracer.close()
        tracer.open("c")
        tracer.close()
        tracer.close()
        self.assertEqual(tracer.stats["a"], [1, 10, 7])
        self.assertEqual(tracer.stats["b"], [1, 2, 1])
        self.assertEqual(tracer.stats["c"], [1, 1, 1])
        self.assertEqual(tracer.stats["d"], [1, 1, 1])

    def test_nested_same_name_counts_busy_once(self):
        tracer = spans.Tracer(clock=ScriptedClock([0, 2, 3, 6]))
        tracer.open("f")
        tracer.open("f")
        tracer.close()
        tracer.close()
        self.assertEqual(tracer.stats["f"], [2, 6, 6])

    def test_pool_wait_and_merge(self):
        # result 1 arrives at 2 (waited 2), parent merges until 5, result 2
        # arrives at 6 (waited 1), merge until 6.5, end of results at 7
        tracer = spans.Tracer(clock=ScriptedClock([0, 2, 5, 5, 6, 6.5, 6.5, 7]))
        items = list(spans._timed_results(tracer, iter([1, 2])))
        self.assertEqual(items, [1, 2])
        self.assertEqual(tracer.stats[spans.POOL_WAIT], [3, 3.5, 3.5])
        self.assertEqual(tracer.stats[spans.MERGE], [2, 3.5, 3.5])


class AbsentNames(unittest.TestCase):
    def test_deleted_names_are_absent_not_errors(self):
        def scan_pair(pair, config):
            return None

        class IntPoly:
            def eval_int(self, x):
                return 0

        modules = {
            "cli": types.SimpleNamespace(main=lambda argv: 0),
            "search": types.SimpleNamespace(scan_pair=scan_pair),
            "cuboid_eqs": types.SimpleNamespace(),
            "asymptotics": types.SimpleNamespace(),
            "exact_arith": types.SimpleNamespace(IntPoly=IntPoly),
        }
        tracer = spans.Tracer()
        absent = spans.install(tracer, modules)
        for name in ("search.modular_sieve", "search.divisor_candidates",
                     "search.scan_pair(evaluate)", "exact_arith.IntPoly.eval_mod"):
            self.assertIn(name, absent)
        self.assertNotIn("search.scan_pair", absent)
        modules["search"].scan_pair(1, 2)
        self.assertEqual(tracer.stats[spans.SCAN][0], 1)
        values = spans.layer_metrics(tracer.stats, tracer.counts)
        self.assertEqual(values["search.modular_sieve.calls"], 0)


class TinyRuns(unittest.TestCase):
    def run_bench(self, workload, trace):
        out = subprocess.run(
            [sys.executable, os.path.join("bench", "run.py"), "--workload", workload,
             "--seed", "7", "--seconds", "0.1", "--trace", str(trace), "--tiny"],
            cwd=ROOT, capture_output=True, text=True, timeout=170,
        )
        self.assertEqual(out.returncode, 0, out.stderr)
        return [json.loads(line) for line in out.stdout.splitlines()[-2:]]

    def test_every_metric_with_its_unit(self):
        bench = load_benchmark()
        declared = {
            0: {m["name"]: m["unit"] for m in bench["end_to_end"]},
            1: {m["name"]: m["unit"] for m in bench["per_layer"]},
        }
        self.assertEqual(declared[0], run.END_TO_END)
        self.assertEqual(declared[1], spans.LAYER_METRICS)
        self.assertEqual(sorted(w["name"] for w in bench["workloads"]), sorted(run.WORKLOADS))
        for workload in run.WORKLOADS:
            for trace in (0, 1):
                with self.subTest(workload=workload, trace=trace):
                    details, result = self.run_bench(workload, trace)
                    self.assertEqual(set(result), {"correct", "attempted", "failed", "metrics"})
                    self.assertTrue(result["correct"])
                    self.assertEqual(result["failed"], 0)
                    self.assertGreaterEqual(result["attempted"], 1)
                    metrics = result["metrics"]
                    self.assertEqual(set(metrics), set(declared[trace]))
                    for name, metric in metrics.items():
                        self.assertEqual(metric["unit"], declared[trace][name])
                        self.assertIsInstance(metric["value"], (int, float))
                        if trace == 0:
                            self.assertGreater(metric["value"], 0, name)
                    facts = details["details"]["facts"]
                    for key in ("python", "cpus_available", "git_revision", "seed", "sizes"):
                        self.assertIn(key, facts)
                    if trace == 1:
                        self.assertIsInstance(details["details"]["absent"], list)
                        self.assertGreater(metrics["cli.main.calls"]["value"], 0)

    def test_refuses_without_the_program(self):
        # a directory holding only BENCHMARK.json and the benchmark's files
        bare = os.path.join(ROOT, run.WORKDIR, "smoke-bare")
        shutil.rmtree(bare, ignore_errors=True)
        shutil.copytree(HERE, os.path.join(bare, "bench"),
                        ignore=shutil.ignore_patterns("__pycache__"))
        shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), bare)
        try:
            out = subprocess.run(
                [sys.executable, os.path.join("bench", "run.py"), "--workload", "audit",
                 "--seed", "1", "--seconds", "1", "--trace", "0"],
                cwd=bare, capture_output=True, text=True, timeout=170,
            )
        finally:
            shutil.rmtree(bare)
            try:
                os.rmdir(os.path.join(ROOT, run.WORKDIR))
            except OSError:
                pass
        self.assertNotEqual(out.returncode, 0)
        self.assertEqual(out.stdout, "")


if __name__ == "__main__":
    unittest.main()
