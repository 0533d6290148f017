"""Self-tests of the benchmark itself.

Run from the repository root::

    python3 e2ebench/selftest.py

They check that the tracer leaves nothing installed after a traced run,
that the host-speed probe samples while on and leaves no timer behind,
that a smoke-scale run of every workload passes the correctness gate
(traced and untraced digests agree, no shape problems), that the printed
metric names are the ones ``METRICS.md`` and ``BENCHMARK.json`` list, and
that the benchmark refuses to run without the program's sources.
"""

from __future__ import annotations

import json
import shutil
import signal
import subprocess
import sys
import tempfile
import unittest
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))
sys.path.insert(0, str(ROOT / "src"))

import run  # noqa: E402
import speed  # noqa: E402
import tracer as tracing  # noqa: E402
import workloads  # noqa: E402

#: The per-layer metrics the benchmark was specified with, plus each
#: layer's self time.
SPECIFIED_PER_LAYER = {
    "startup.import_s", "hdl.build_s", "hdl.synth_s", "hdl.synth_calls",
    "formal.explicit.explore_s", "formal.explicit.states", "formal.explicit.check_s",
    "formal.explicit.checks",
    "formal.sat.check_s", "formal.sat.solves", "formal.sat.conflicts",
    "formal.sat.propagations", "formal.sat.decisions", "formal.sat.encoded_variables",
    "formal.sat.induction_step_queries",
    "formal.proofcache.lookups", "formal.proofcache.hits", "formal.proofcache.hit_ratio",
    "formal.proofcache.flushes", "formal.proofcache.flush_s", "formal.proofcache.file_bytes",
    "formal.batches", "formal.checks", "formal.busy_s", "formal.s_per_check", "formal.true",
    "formal.false", "formal.unknown", "formal.unbounded_proofs",
    "sim.calls", "sim.cycles", "sim.busy_s", "sim.cycles_per_s",
    "coverage.cycles", "coverage.busy_s",
    "mining.rows", "mining.ingest_s", "mining.build_s", "mining.refine_s", "mining.candidates",
    "core.closures", "core.iterations", "core.counterexamples", "core.self_s",
    "faults.mutants", "faults.inject_s", "faults.mutant_p50_s", "faults.mutant_tail_s",
    "runner.jobs", "runner.job_p50_s", "runner.job_tail_s", "runner.checkpoint_appends",
    "runner.checkpoint_s", "runner.worker_restarts", "runner.pool_overhead_s",
    "trace.overhead_s", "trace.covered_ratio",
} | {f"{layer}.self_s" for layer in tracing.LAYERS}

#: ``error_rate`` is specified too; it is printed as a line and carried
#: by ``attempted``/``failed``, since a metric that reads 0 on a correct
#: run cannot carry a relative bound.
SPECIFIED_END_TO_END = {"wall_s", "cpu_s", "setup_s", "peak_rss_mb"}


def bench(*args: str, cwd: Path = ROOT) -> subprocess.CompletedProcess:
    return subprocess.run([sys.executable, str(cwd / "e2ebench" / "run.py"), *args],
                          cwd=cwd, capture_output=True, text=True, timeout=180)


class TracerTests(unittest.TestCase):
    def test_wrappers_removed_after_traced_run(self):
        from repro.core import goldmine, refinement
        from repro.designs import load
        from repro.hdl import synth

        before = (synth.synthesize, goldmine.synthesize, refinement.CoverageClosure.run)
        tracer = tracing.Tracer()
        tracer.install()
        try:
            self.assertTrue(tracer.leaks(), "install wrapped nothing")
            self.assertIsNot(goldmine.synthesize, before[1])
            with tracer.span("bench.work"):
                synth.synthesize(load("arbiter2"))
        finally:
            tracer.uninstall()
        self.assertEqual(tracer.leaks(), [])
        self.assertEqual((synth.synthesize, goldmine.synthesize,
                          refinement.CoverageClosure.run), before)
        self.assertEqual(tracer.missing, [])
        self.assertEqual(tracer.reduce()["hdl.synth_calls"], 1)

    def test_self_time_excludes_children(self):
        tracer = tracing.Tracer()
        with tracer.span("bench.work"):
            with tracer.span("core.closure"):
                with tracer.span("formal.check_all"):
                    pass
        metrics = tracer.reduce()
        work = metrics["trace.work_s"]
        self.assertAlmostEqual(metrics["core.self_s"] + metrics["formal.self_s"],
                               tracer.spans[1][2] - tracer.spans[1][1], places=9)
        self.assertLessEqual(metrics["trace.covered_ratio"], 1.0)
        self.assertGreater(work, 0.0)


class SpeedProbeTests(unittest.TestCase):
    def test_probe_samples_and_restores_the_handler(self):
        before = signal.getsignal(signal.SIGALRM)
        probe = speed.SpeedProbe()
        probe.start()
        try:
            mark = probe.mark()
            busy_until = speed.time.perf_counter() + 0.3
            while speed.time.perf_counter() < busy_until:
                speed._kernel(50)
            seconds, probe_s, mean_speed = probe.span(mark)
        finally:
            probe.stop()
        self.assertGreaterEqual(len(probe.speeds), 5)
        self.assertTrue(0 < probe_s < seconds)
        self.assertGreater(mean_speed, 0)
        self.assertIs(signal.getsignal(signal.SIGALRM), before)
        self.assertEqual(signal.getitimer(signal.ITIMER_REAL), (0.0, 0.0))


class SmokeRunTests(unittest.TestCase):
    def test_every_workload_passes_the_gate_traced(self):
        names = [name for name, _, _ in run.PER_LAYER]
        for workload in sorted(workloads.WORKLOADS):
            with self.subTest(workload=workload):
                done = bench("--workload", workload, "--seed", "0", "--seconds", "1",
                             "--trace", "1", "--scale", "smoke")
                self.assertEqual(done.returncode, 0, done.stderr)
                result = json.loads(done.stdout.strip().splitlines()[-1])
                self.assertTrue(result["correct"], done.stdout)
                self.assertEqual(result["failed"], 0)
                self.assertEqual(list(result["metrics"]), names)
                self.assertIn("error_rate", done.stdout)

    def test_untraced_run_prints_end_to_end_metrics(self):
        done = bench("--workload", "random-mine", "--seed", "1", "--seconds", "1",
                     "--trace", "0", "--scale", "smoke")
        self.assertEqual(done.returncode, 0, done.stderr)
        result = json.loads(done.stdout.strip().splitlines()[-1])
        self.assertTrue(result["correct"])
        self.assertEqual(set(result), {"correct", "attempted", "failed", "metrics"})
        self.assertEqual(set(result["metrics"]), SPECIFIED_END_TO_END)
        self.assertIn("provenance", done.stdout)

    def test_refuses_to_run_without_the_sources(self):
        with tempfile.TemporaryDirectory() as scratch:
            shutil.copytree(HERE, Path(scratch) / "e2ebench",
                            ignore=shutil.ignore_patterns("__pycache__"))
            shutil.copy(ROOT / "BENCHMARK.json", scratch)
            done = bench("--workload", "random-mine", "--seed", "0", "--seconds", "1",
                         "--trace", "0", cwd=Path(scratch))
        self.assertNotEqual(done.returncode, 0)
        self.assertNotIn('"correct"', done.stdout)


class MetricNameTests(unittest.TestCase):
    def test_names_match_the_specification(self):
        self.assertEqual({name for name, _, _ in run.PER_LAYER}, SPECIFIED_PER_LAYER)
        self.assertEqual({name for name, _ in run.END_TO_END}, SPECIFIED_END_TO_END)

    def test_benchmark_json_matches_the_runner(self):
        spec = json.loads((ROOT / "BENCHMARK.json").read_text())
        self.assertEqual([(m["name"], m["unit"]) for m in spec["end_to_end"]],
                         list(run.END_TO_END))
        self.assertEqual([(m["name"], m["unit"], m["better"]) for m in spec["per_layer"]],
                         list(run.PER_LAYER))
        self.assertEqual({w["name"] for w in spec["workloads"]}, set(workloads.WORKLOADS))
        for entry in spec["workloads"]:
            self.assertEqual(entry["why"], workloads.WORKLOADS[entry["name"]].why)

    def test_metric_map_documents_every_metric(self):
        text = (HERE / "METRICS.md").read_text()
        names = [name for name, _, _ in run.PER_LAYER] + [name for name, _ in run.END_TO_END]
        self.assertEqual([name for name in names if f"`{name}`" not in text], [])


if __name__ == "__main__":
    unittest.main(verbosity=2)
