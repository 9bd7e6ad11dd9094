"""Tests of the benchmark's own arithmetic and checks.

Run from the root of a checkout: python3 perfbench/selftest.py
(The file name keeps it out of the repository's default pytest collection.)
"""

import json
import sys
import threading
import types
import unittest
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))

import run  # noqa: E402
import tracing  # noqa: E402
from tracing import Span  # noqa: E402


class SelfTimeTest(unittest.TestCase):
    def test_nested_spans(self):
        # a [0, 10] holds b [1, 4] and c [5, 9]; b holds d [2, 3]
        main = [Span("a", 0.0, 10.0, -1, 0.0), Span("b", 1.0, 4.0, 0, 0.0),
                Span("d", 2.0, 3.0, 1, 0.0), Span("c", 5.0, 9.0, 0, 0.0)]
        stats = tracing.span_stats([main])
        self.assertAlmostEqual(stats["a"]["self_s"], 3.0)
        self.assertAlmostEqual(stats["b"]["self_s"], 2.0)
        self.assertAlmostEqual(stats["c"]["self_s"], 4.0)
        self.assertAlmostEqual(stats["d"]["self_s"], 1.0)
        self.assertAlmostEqual(stats["a"]["total_s"], 10.0)
        self.assertEqual(stats["a"]["calls"], 1)

    def test_inner_span_stays_in_caller(self):
        main = [Span("edu", 0.0, 4.0, -1, 0.0),
                Span("numcore.lstm_cell_step", 1.0, 2.0, 0, 0.0),
                Span("numcore.lstm_cell_step", 2.0, 3.0, 0, 0.0)]
        stats = tracing.span_stats([main])
        self.assertAlmostEqual(stats["edu"]["self_s"], 4.0)
        self.assertAlmostEqual(stats["numcore.lstm_cell_step"]["self_s"], 2.0)
        self.assertEqual(stats["numcore.lstm_cell_step"]["calls"], 2)

    def test_two_threads(self):
        # The main thread waits in "pool" [0, 10] for two workers whose spans
        # overlap in time: [1, 8] and [2, 9]. Each worker nests one child.
        main = [Span("setup", -2.0, -1.0, -1, 0.0), Span("pool", 0.0, 10.0, -1, 0.0)]
        w1 = [Span("train", 1.0, 8.0, -1, 3.0), Span("step", 2.0, 5.0, 0, 0.0)]
        w2 = [Span("train", 2.0, 9.0, -1, 4.0), Span("step", 3.0, 4.0, 0, 0.0)]
        stats = tracing.span_stats([main, w1, w2])
        # the union of the workers' spans covers [1, 9]: 8 of the 10 seconds
        self.assertAlmostEqual(stats["pool"]["self_s"], 2.0)
        self.assertAlmostEqual(stats["setup"]["self_s"], 1.0)
        # each worker's self time subtracts only its own thread's child
        self.assertAlmostEqual(stats["train"]["self_s"], (7.0 - 3.0) + (7.0 - 1.0))
        self.assertAlmostEqual(stats["train"]["cpu_s"], 7.0)
        self.assertEqual(stats["train"]["calls"], 2)
        self.assertAlmostEqual(stats["step"]["self_s"], 4.0)

    def test_total_under_ancestor(self):
        main = [Span("trainer.train", 0.0, 10.0, -1, 0.0),
                Span("trainer.classify", 1.0, 2.0, 0, 0.0),
                Span("trainer.evaluate_model", 5.0, 9.0, 0, 0.0),
                Span("trainer.classify", 6.0, 6.5, 2, 0.0),
                Span("inner", 7.0, 8.0, 2, 0.0),
                Span("trainer.classify", 7.2, 7.5, 4, 0.0)]
        inside, outside = tracing.total_under([main], "trainer.classify",
                                              "trainer.evaluate_model")
        self.assertAlmostEqual(inside, 0.8)
        self.assertAlmostEqual(outside, 1.0)

    def test_tracer_keeps_one_stack_per_thread(self):
        fake = types.ModuleType("perfbench_fake_layer")

        def leaf(x):
            return x + 1

        def outer(x):
            return fake.leaf(x) * 2

        fake.leaf, fake.outer = leaf, outer
        sys.modules[fake.__name__] = fake
        targets = tracing.SPAN_TARGETS
        tracing.SPAN_TARGETS = ((fake.__name__, "outer", "fake.outer"),
                                (fake.__name__, "leaf", "fake.leaf"),
                                (fake.__name__, "gone", "fake.gone"))
        try:
            tracer = tracing.Tracer()
            tracer.install_spans()
            self.assertEqual(fake.outer(1), 4)
            barrier = threading.Barrier(2, timeout=10)

            def work():
                barrier.wait()
                for i in range(200):
                    fake.outer(i)

            threads = [threading.Thread(target=work) for _ in range(2)]
            for t in threads:
                t.start()
            for t in threads:
                t.join(timeout=30)
                self.assertFalse(t.is_alive())
            tracer.uninstall()
            self.assertIs(fake.outer, outer)
        finally:
            tracing.SPAN_TARGETS = targets
            del sys.modules[fake.__name__]
        self.assertEqual(tracer.absent, [f"{fake.__name__}.gone (fake.gone)"])
        recorded = tracer.threads()
        self.assertEqual(len(recorded), 3)
        self.assertEqual(len(recorded[0]), 2)  # the main thread comes first
        for spans in recorded:
            for s in spans:
                if s.name == "fake.leaf":
                    self.assertEqual(spans[s.parent].name, "fake.outer")
                else:
                    self.assertEqual(s.parent, -1)
        stats = tracing.span_stats(recorded)
        self.assertEqual(stats["fake.outer"]["calls"], 401)
        self.assertEqual(stats["fake.leaf"]["calls"], 401)


class SummaryTest(unittest.TestCase):
    def test_median_and_high_percentile(self):
        few = tracing.summarize([3.0, 1.0, 2.0, 5.0])
        self.assertEqual((few["n"], few["value"], few["high"]), (4, 2.5, None))
        # 20 samples leave only 2 beyond p90: no high percentile yet
        self.assertIsNone(tracing.summarize(list(range(20)))["high"])
        hundred = tracing.summarize([float(i) for i in range(1, 101)])
        self.assertEqual(hundred["n"], 100)
        self.assertEqual(hundred["value"], 50.5)
        self.assertEqual(hundred["high"], (90.0, 90.0))
        thousand = tracing.summarize([float(i) for i in range(1, 1001)])
        self.assertEqual(thousand["high"], (99.0, 990.0))
        many = tracing.summarize([float(i) for i in range(1, 10001)])
        self.assertEqual(many["high"], (99.9, 9990.0))
        with self.assertRaises(ValueError):
            tracing.summarize([])


class OutputCheckTest(unittest.TestCase):
    REPORT = {"accuracy": 0.5, "macro_f1": 0.4, "confusion": [[1, 0, 0], [0, 0, 1], [1, 0, 1]]}

    def op(self, loss):
        return {"seed": 100, "diverged_on": None, "epoch_losses": [loss],
                "report": dict(self.REPORT)}

    def test_loss_perturbation_fails(self):
        ref = run.reference_view(self.op(1.0595114441800628))
        self.assertIsNone(run.op_problem(self.op(1.0595114441800628), 4, ref))
        # rounding inside the allowance passes, a real change does not
        self.assertIsNone(run.op_problem(self.op(1.0595114441800628 + 1e-13), 4, ref))
        self.assertIn("reference", run.op_problem(self.op(1.0595114441800628 + 1e-6), 4, ref))

    def test_malformed_operations_fail(self):
        self.assertIn("diverged", run.op_problem(dict(self.op(1.0), diverged_on="d7"), 4, None))
        self.assertIn("not 5", run.op_problem(self.op(1.0), 5, None))
        self.assertIn("boom", run.op_problem({"error": "Traceback\nValueError: boom\n"}, 4, None))
        self.assertIn("non-finite", run.op_problem(self.op(float("nan")), 4, None))

    def test_rerun_must_repeat_bit_for_bit(self):
        wl = run.WORKLOADS["rst_edu"]

        def child(loss):
            return types.SimpleNamespace(mode="plain", variant="main", error=None,
                                         spec={"n_test": 4},
                                         result={"ops": [self.op(loss)]})

        seen = {}
        self.assertEqual(run.check_outputs("rst_edu", 3, [child(1.0), child(1.0)],
                                           wl, None, seen)[:2], (2, 0))
        attempted, failed, problems = run.check_outputs(
            "rst_edu", 3, [child(1.0 + 1e-15)], wl, None, seen)
        self.assertEqual((attempted, failed), (1, 1))
        self.assertIn("bit-identical", problems[0])


class InputsTest(unittest.TestCase):
    def test_balanced_spreads_edu_counts_evenly(self):
        sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))
        from rstcoh import corpus, rst_data

        gen = corpus.GeneratorConfig(n_train=4 * 26, n_test=1, edu_range=(4, 16),
                                     **run.GENERATOR)
        pool = corpus.synthesize_corpus(gen, 7).train
        docs = run.balanced(pool, 26, (4, 16))
        sizes = sorted(rst_data.count_leaves(doc.tree) for doc in docs)
        self.assertEqual(sizes, [4 + i // 2 for i in range(26)])
        ids = [doc.id for doc in docs]
        self.assertEqual(ids, sorted(ids))  # pool order is kept
        self.assertEqual(ids, [doc.id for doc in run.balanced(pool, 26, (4, 16))])


class ContractTest(unittest.TestCase):
    def test_benchmark_json_names_match_the_runner(self):
        spec = json.loads((Path(run.BENCH_DIR).parent / "BENCHMARK.json").read_text())
        # rst_long_docs runs on request but is not one of the judged workloads.
        self.assertEqual([w["name"] for w in spec["workloads"]],
                         [name for name in run.WORKLOADS if name != "rst_long_docs"])
        self.assertEqual({m["name"]: m["unit"] for m in spec["end_to_end"]}, run.END_TO_END)
        self.assertEqual({m["name"]: m["unit"] for m in spec["per_layer"]}, run.PER_LAYER)


if __name__ == "__main__":
    unittest.main()
