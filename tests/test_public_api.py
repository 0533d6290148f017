"""Tests for the top-level public API surface."""

from __future__ import annotations

import os
import re
import subprocess
import sys
from pathlib import Path

import repro

_IMPORT_PROBE = """
import sys
before = set(sys.modules)
import repro
print("\\n".join(sorted({name.split(".")[0] for name in set(sys.modules) - before})))
"""


class TestPublicApi:
    def test_version(self):
        # The value itself is single-sourced (tests/test_version.py pins
        # setup metadata and the changelog to it); here we only require
        # the export to exist and be semver-shaped, so a release bump
        # never has to edit this file.
        assert "__version__" in repro.__all__
        assert re.fullmatch(r"\d+\.\d+\.\d+", repro.__version__)

    def test_import_loads_only_the_standard_library(self):
        """``import repro`` pulls in no third-party package (numpy is lazy)."""
        package_root = str(Path(repro.__file__).resolve().parent.parent)
        env = dict(os.environ)
        env["PYTHONPATH"] = os.pathsep.join(
            filter(None, [package_root, env.get("PYTHONPATH")]))
        result = subprocess.run([sys.executable, "-c", _IMPORT_PROBE], env=env,
                                capture_output=True, text=True, check=True)
        loaded = set(result.stdout.split())
        third_party = loaded - {"repro"} - set(sys.stdlib_module_names)
        assert "repro" in loaded and not third_party, sorted(third_party)

    def test_all_exports_resolve(self):
        for name in repro.__all__:
            assert hasattr(repro, name), name

    def test_engine_surface_exported(self):
        """The PR-1 engine API must be reachable from the top level."""
        from repro import SIM_ENGINES, SimulatorBase, create_simulator
        from repro.designs import arbiter2

        assert set(SIM_ENGINES) == {"scalar", "batched"}
        simulator = create_simulator(arbiter2(), engine="batched", lanes=4)
        assert isinstance(simulator, SimulatorBase)
        assert simulator.lanes == 4

    def test_mining_engine_surface_exported(self):
        """The PR-4 mining engine API must be reachable from the top level."""
        from repro import MINE_ENGINES
        from repro.designs import arbiter2
        from repro.mining import ColumnarDecisionTree, create_dataset, create_decision_tree

        assert set(MINE_ENGINES) == {"rowwise", "columnar"}
        dataset = create_dataset(arbiter2(), "gnt0", engine="columnar", window=2)
        assert isinstance(create_decision_tree(dataset), ColumnarDecisionTree)

    def test_coverage_surface_exported(self):
        from repro import CoverageRunner, RandomStimulus, measure_coverage
        from repro.designs import arbiter2

        runner = CoverageRunner(arbiter2())
        runner.run_stimulus(RandomStimulus(8, seed=1))
        assert runner.report().percent("line") > 0.0
        report = measure_coverage(arbiter2(), RandomStimulus(8, seed=1))
        assert report.as_dict() == runner.report().as_dict()

    def test_runner_surface_importable(self):
        """repro.runner is intentionally not imported at top level (it pulls
        the experiment drivers); it must import cleanly on demand."""
        from repro.runner import RunOptions, experiment_names, get_experiment

        names = experiment_names()
        assert "fig12" in names and "sweep" in names
        jobs = get_experiment("fig13").expand(RunOptions(smoke=True))
        assert all(job.experiment == "fig13" for job in jobs)

    def test_readme_quickstart_flow(self):
        """The README/docstring quickstart must keep working verbatim."""
        from repro import CoverageClosure, GoldMineConfig
        from repro.designs import arbiter2

        module = arbiter2()
        closure = CoverageClosure(module, outputs=["gnt0"],
                                  config=GoldMineConfig(window=2))
        result = closure.run()
        assert result.converged
        assert result.input_space_coverage("gnt0") == 1.0

    def test_parse_and_simulate_roundtrip(self):
        from repro import DirectedStimulus, Simulator, parse_module

        module = parse_module(
            "module inv(a, y); input a; output y; assign y = ~a; endmodule"
        )
        trace = Simulator(module).run(DirectedStimulus([{"a": 0}, {"a": 1}]))
        assert trace.column("y") == [1, 0]

    def test_design_registry_importable_from_examples(self):
        from repro.designs import design_names, load

        assert "arbiter2" in design_names()
        assert load("arbiter2").name == "arbiter2"
