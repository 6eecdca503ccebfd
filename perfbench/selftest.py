"""Self-tests of the benchmark harness.

Run with: python3 perfbench/selftest.py

They use small fits (20 pairs, 30 steps) so the whole file takes
seconds. The file is named so that pytest does not collect it with the
package's own test suite.
"""

import contextlib
import io
import os
import shutil
import sys
import time
import unittest

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)

import child  # noqa: E402
import run  # noqa: E402
import tracer  # noqa: E402

SMALL_PAIRS = 20
SMALL_STEPS = 30


def _small_fit_argv(data, out):
    return run.chirp_fit_argv(data, out, seed=3, pairs=SMALL_PAIRS, steps=SMALL_STEPS)


class HarnessTest(unittest.TestCase):
    @classmethod
    def setUpClass(cls):
        cls.cli = child.import_stack(run.SRC)
        cls.work = os.path.join(run.WORK_DIR, f"selftest-{os.getpid()}")
        os.makedirs(cls.work, exist_ok=True)
        cls.data = os.path.join(cls.work, "chirp.csv")
        run.write_chirp(cls.data, seed=3)

    @classmethod
    def tearDownClass(cls):
        shutil.rmtree(cls.work, ignore_errors=True)

    def _attributes(self):
        return {(mod.__name__, name): value for mod in tracer.package_modules()
                for name, value in vars(mod).items()}

    def _run_in_process(self, trace):
        """Run a small fit through child.run_command; returns the wrappers seen."""
        seen = []
        original_main = self.cli.main

        def probe(argv):
            seen.extend(tracer.installed_wrappers())
            return original_main(argv)

        self.cli.main = probe
        out = os.path.join(self.work, f"inproc-{trace}")
        try:
            with contextlib.redirect_stdout(io.StringIO()), \
                    contextlib.redirect_stderr(io.StringIO()):
                code, _, spans = child.run_command(
                    self.cli, _small_fit_argv(self.data, out), trace, "selftest")
        finally:
            self.cli.main = original_main
        self.assertEqual(code, 0)
        self.assertEqual(spans is not None, trace)
        return seen

    def test_wrappers_removed_after_traced_run_and_absent_untraced(self):
        before = self._attributes()
        seen = self._run_in_process(trace=True)
        # a name imported into another module is wrapped there as well
        for site in (("spectral_rff.features", "features_for_mode"),
                     ("spectral_rff.model", "features_for_mode"),
                     ("spectral_rff.training", "features_for_mode"),
                     ("spectral_rff.training", "solve_triangular")):
            self.assertIn(site, seen)
        self.assertNotIn(("spectral_rff.linalg", "solve_triangular"), seen)
        self.assertEqual(tracer.installed_wrappers(), [])
        after = self._attributes()
        self.assertEqual(before.keys(), after.keys())
        for key, value in before.items():
            self.assertIs(after[key], value, key)

        self.assertEqual(self._run_in_process(trace=False), [])
        self.assertEqual(tracer.installed_wrappers(), [])

    def test_self_time_is_duration_minus_children(self):
        def span(i, parent, start, end, run_id="a"):
            return {"id": i, "name": f"s{i}", "parent": parent, "run": run_id,
                    "start_ns": start, "end_ns": end}

        spans = [span(0, None, 0, 100), span(1, 0, 10, 40), span(2, 1, 15, 25),
                 span(3, 0, 50, 60),
                 # the same ids in another run must not mix with run "a"
                 span(0, None, 0, 7, "b")]
        self.assertEqual(tracer.self_times_ns(spans),
                         {"s0": 60 + 7, "s1": 20, "s2": 10, "s3": 10})

        ticks = iter(range(0, 1000, 5))
        t = tracer.Tracer("clock", clock=lambda: next(ticks))
        inner = t._wrap("inner", lambda: None)
        outer = t._wrap("outer", lambda: (inner(), inner()))
        outer()
        # outer 0..25, inner 5..10 and 15..20
        self.assertEqual(tracer.self_times_ns(t.spans), {"outer": 15, "inner": 10})

    def _run_children(self, trace):
        runner = run.Runner(self.work, time.perf_counter(), "selftest")
        out = os.path.join(self.work, f"child-{trace}")
        runner.start()
        try:
            result, stdout, stderr = runner.child(_small_fit_argv(self.data, out), trace=trace)
        finally:
            runner.stop()
        self.assertIsNotNone(result, stderr)
        self.assertEqual(result["returncode"], 0, stderr)
        facts = run.check_fit(stdout, out, steps=SMALL_STEPS)
        return dict(result, **facts)

    def test_gradient_calls_match_trace_csv_and_mse_matches_untraced(self):
        untraced = self._run_children(trace=False)
        traced = self._run_children(trace=True)
        self.assertIsNone(untraced["spans"])
        run.check_trace(traced)
        metrics = run.per_layer_metrics([traced], [untraced["wall_s"]])
        self.assertEqual(metrics["training.lml_gradient.calls"][0], len(traced["step_ms"]))
        self.assertEqual(len(traced["step_ms"]), SMALL_STEPS)
        self.assertEqual(traced["test_mse"], untraced["test_mse"])
        self_sum = sum(v for k, (v, _) in metrics.items() if k.endswith(".self_ms"))
        self.assertAlmostEqual(self_sum, metrics["cli.main.ms"][0], places=6)


if __name__ == "__main__":
    unittest.main()
