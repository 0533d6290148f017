"""Smoke/shape tests for the experiment drivers (scaled-down parameters).

The full-size runs live in ``benchmarks/``; these tests exercise the same
drivers with reduced workloads so the experiment code is covered by the
ordinary test suite.
"""

from __future__ import annotations

import inspect

import pytest

from repro.core.config import ENGINE_FIELDS, GoldMineConfig
from repro.core.refinement import CoverageClosure
from repro.coverage.runner import CoverageRunner
from repro.experiments import (
    ablation_engines,
    ablation_incremental,
    arbiter_walkthrough,
    common,
    fig12_arbiter,
    fig13_design_space,
    fig15_high_coverage,
    fig16_itc99,
    iteration_coverage,
    table1_zero_seed,
    table3_rigel,
)
from repro.runner.registry import RunOptions, experiment_names, get_experiment


class TestCommonHelpers:
    def test_closure_for_design_uses_registered_metadata(self):
        result, module = common.closure_for_design("arbiter2", outputs=["gnt0"])
        assert module.name == "arbiter2"
        assert result.converged

    def test_closure_for_design_leaves_caller_config_alone(self):
        config = GoldMineConfig(window=1)
        common.closure_for_design("arbiter2", outputs=["gnt0"], window=2,
                                  config=config, max_iterations=2)
        assert config.window == 1

    def test_coverage_of_random(self):
        report, cycles = common.coverage_of_random("b01", 40, seed=1)
        assert cycles == 40
        assert 0.0 < report.percent("line") <= 100.0

    def test_format_table_alignment(self):
        text = common.format_table(["a", "bb"], [[1, 22], [333, 4]])
        lines = text.splitlines()
        assert len(lines) == 4
        assert lines[0].startswith("a")

    def test_suite_prefix_matches_cumulative_cycles(self):
        result, module = common.closure_for_design("arbiter2", outputs=["gnt0"])
        for record in result.iterations:
            prefix = iteration_coverage.suite_prefix_for_record(result, record)
            assert sum(len(seq) for seq in prefix) == record.cumulative_test_cycles


class TestFigureDrivers:
    def test_fig12_shape(self):
        result = fig12_arbiter.run()
        assert result.converged
        assert result.input_space[0] == 0.0
        assert result.input_space[-1] == 100.0
        assert len(result.expression) == len(result.input_space)

    def test_fig13_monotone(self):
        result = fig13_design_space.run(subjects=(("arbiter2", "gnt0", "seq"),),
                                        seed_cycles=3)
        series = result.series_for("arbiter2")
        assert series.coverage_percent[-1] == 100.0
        assert all(b >= a for a, b in zip(series.coverage_percent,
                                          series.coverage_percent[1:]))

    def test_table1_zero_seed_single_subject(self):
        result = table1_zero_seed.run(subjects=(("arbiter2", "gnt0"),))
        series = result.series_for("arbiter2", "gnt0")
        assert series.coverage_percent[0] == 0.0
        assert series.coverage_percent[-1] == 100.0
        assert len(series.at_checkpoints()) == len(table1_zero_seed.PAPER_CHECKPOINTS)

    def test_fig15_never_regresses(self):
        result = fig15_high_coverage.run(random_cycles=20)
        for metric, before in result.before.items():
            assert result.after[metric] >= before - 1e-9

    def test_fig16_single_design(self):
        result = fig16_itc99.run(designs=["b01"], cycles={"b01": 40},
                                 goldmine_seed_cycles=10)
        random_row = result.row_for("b01", "random")
        goldmine_row = result.row_for("b01", "goldmine")
        for metric in fig16_itc99.METRICS:
            assert goldmine_row.metric(metric) >= random_row.metric(metric) - 1e-9

    def test_table3_single_module(self):
        result = table3_rigel.run(modules=["wbstage"], baseline_cycles=128)
        directed = result.row_for("wbstage", "directed")
        goldmine = result.row_for("wbstage", "goldmine")
        assert goldmine.cycles < directed.cycles
        for metric in table3_rigel.METRICS:
            assert goldmine.metric(metric) >= directed.metric(metric) - 1e-9


class TestNarrativeAndAblations:
    def test_walkthrough_snapshots(self):
        result = arbiter_walkthrough.run()
        assert result.converged
        assert result.snapshots[0].failed
        assert result.snapshots[-1].counterexamples == 0
        assert result.final_assertions_sva

    def test_ablation_incremental(self):
        result = ablation_incremental.run(design_name="arbiter2", output="gnt0",
                                          seed_cycles=6)
        # Both variants must reach closure with full output-centric coverage;
        # the check-count comparison on the larger arbiter4 workload lives in
        # benchmarks/bench_ablation_incremental_tree.py.
        assert result.incremental.converged and result.rebuilt.converged
        assert result.incremental.input_space_coverage == 1.0
        assert result.rebuilt.input_space_coverage == 1.0

    def test_ablation_engines_agree(self):
        comparisons = ablation_engines.run(designs=("arbiter2",), seed_cycles=6,
                                           max_assertions_per_design=10)
        assert comparisons[0].disagreements == 0
        assert comparisons[0].bmc_contradictions == 0

    def test_experiment_result_containers(self):
        result = fig12_arbiter.run().as_experiment_result()
        assert result.name == "fig12"
        assert "input_space_%" in result.series


class TestConfigThreading:
    """Every driver must hand the runner's engine stack to every closure
    and coverage replay it builds (``ablation-engines``' own explicit/BMC/
    BDD checkers are fixed by the ablation and out of scope)."""

    @pytest.mark.parametrize("name", experiment_names())
    def test_no_driver_drops_the_config(self, name, monkeypatch, tmp_path):
        stack = GoldMineConfig(sim_engine="batched", sim_lanes=8, engine="tiered",
                               induction_k=2, mine_engine="columnar",
                               formal_workers=2,
                               formal_proof_cache=str(tmp_path / "cache.json"),
                               formal_query_timeout=60.0, ir_opt=True)
        defaults = GoldMineConfig()
        assert all(getattr(stack, field) != getattr(defaults, field)
                   for field in ENGINE_FIELDS)
        closures, runners = [], []
        closure_init = CoverageClosure.__init__
        runner_init = CoverageRunner.__init__
        runner_signature = inspect.signature(runner_init)

        def record_closure(self, *args, **kwargs):
            closure_init(self, *args, **kwargs)
            closures.append(self.config.engine_stack())

        def record_runner(self, *args, **kwargs):
            bound = runner_signature.bind(self, *args, **kwargs)
            bound.apply_defaults()
            runners.append((bound.arguments["engine"], bound.arguments["lanes"]))
            runner_init(self, *args, **kwargs)

        monkeypatch.setattr(CoverageClosure, "__init__", record_closure)
        monkeypatch.setattr(CoverageRunner, "__init__", record_runner)
        spec = get_experiment(name)
        for job in spec.expand(RunOptions(smoke=True, max_iterations=1, config=stack)):
            spec.execute(job.params)
        assert closures
        assert all(seen == stack.engine_stack() for seen in closures)
        assert all(seen == (stack.sim_engine, stack.sim_lanes) for seen in runners)
