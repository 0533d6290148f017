"""Tests for the single-pass GoldMine engine."""

from __future__ import annotations

import pytest

from repro.core.config import GoldMineConfig
from repro.core.goldmine import GoldMine
from repro.sim.simulator import Simulator
from repro.sim.stimulus import RandomStimulus


class TestConfig:
    def test_defaults_valid(self):
        config = GoldMineConfig()
        assert config.window == 1 and config.engine == "explicit"

    @pytest.mark.parametrize("kwargs", [
        {"window": 0}, {"max_iterations": 0}, {"random_cycles": -1},
    ])
    def test_invalid_values_rejected(self, kwargs):
        with pytest.raises(ValueError):
            GoldMineConfig(**kwargs)

    @pytest.mark.parametrize("field", ["engine", "sim_engine", "mine_engine"])
    def test_unknown_engine_names_rejected(self, field):
        with pytest.raises(ValueError, match=f"{field} must be one of"):
            GoldMineConfig(**{field: "bogus"})


class TestTargets:
    def test_single_bit_outputs(self, arbiter2_module):
        engine = GoldMine(arbiter2_module)
        assert engine.target_outputs() == [("gnt0", None), ("gnt1", None)]

    def test_multibit_outputs_expand_to_bits(self, counter_module):
        engine = GoldMine(counter_module)
        targets = dict.fromkeys(name for name, _ in engine.target_outputs())
        assert "count" in targets
        count_bits = [bit for name, bit in engine.target_outputs() if name == "count"]
        assert count_bits == [0, 1, 2]

    def test_explicit_output_selection(self, arbiter2_module):
        engine = GoldMine(arbiter2_module)
        assert engine.target_outputs(["gnt1"]) == [("gnt1", None)]

    def test_target_label(self):
        assert GoldMine.target_label("z", None) == "z"
        assert GoldMine.target_label("bus", 3) == "bus[3]"


class TestDataGenerator:
    def test_random_trace_generated(self, arbiter2_module):
        engine = GoldMine(arbiter2_module, GoldMineConfig(random_cycles=25))
        trace = engine.generate_data()
        assert len(trace) == 25

    def test_explicit_stimulus_respected(self, arbiter2_module):
        engine = GoldMine(arbiter2_module)
        trace = engine.generate_data(RandomStimulus(7, seed=3))
        assert len(trace) == 7


class TestBatchShape:
    """Edge cases of the batched data generator's (cycles, lanes) split."""

    def test_budget_smaller_than_window_clamps_to_one_lane(self, arbiter2_module):
        # A lane must span window+1 cycles to contribute a single mining
        # row; with a 3-cycle budget and window=4 no honest split exists,
        # so the generator falls back to one lane of the minimum length.
        config = GoldMineConfig(window=4, random_cycles=3, sim_engine="batched",
                                sim_lanes=64)
        per_lane, lanes = GoldMine(arbiter2_module, config)._batch_shape()
        assert lanes == 1
        assert per_lane == config.window + 1

    def test_budget_exactly_one_window_is_one_lane(self, arbiter2_module):
        config = GoldMineConfig(window=2, random_cycles=3, sim_engine="batched",
                                sim_lanes=8)
        per_lane, lanes = GoldMine(arbiter2_module, config)._batch_shape()
        assert (per_lane, lanes) == (3, 1)

    def test_lanes_capped_by_configured_maximum(self, arbiter2_module):
        config = GoldMineConfig(window=1, random_cycles=1000, sim_engine="batched",
                                sim_lanes=4)
        per_lane, lanes = GoldMine(arbiter2_module, config)._batch_shape()
        assert lanes == 4
        assert per_lane == 250

    def test_lanes_capped_by_cycle_budget(self, arbiter2_module):
        config = GoldMineConfig(window=1, random_cycles=10, sim_engine="batched",
                                sim_lanes=64)
        per_lane, lanes = GoldMine(arbiter2_module, config)._batch_shape()
        assert lanes == 5  # 10 cycles / (window+1) lanes of >= 2 cycles
        assert per_lane == 2

    def test_zero_budget_uses_default_cycles(self, arbiter2_module):
        config = GoldMineConfig(window=1, random_cycles=0, sim_engine="batched",
                                sim_lanes=64)
        per_lane, lanes = GoldMine(arbiter2_module, config)._batch_shape()
        assert lanes * per_lane <= 64
        assert per_lane >= config.window + 1

    @pytest.mark.parametrize("cycles,window,sim_lanes", [
        (3, 4, 64), (10, 1, 64), (1000, 1, 4), (64, 2, 16),
    ])
    def test_split_never_exceeds_budget(self, arbiter2_module, cycles, window,
                                        sim_lanes):
        config = GoldMineConfig(window=window, random_cycles=cycles,
                                sim_engine="batched", sim_lanes=sim_lanes)
        per_lane, lanes = GoldMine(arbiter2_module, config)._batch_shape()
        assert 1 <= lanes <= sim_lanes
        assert per_lane >= window + 1
        # Either the budget is respected, or the minimum lane length forced
        # the single-lane fallback past a tiny budget.
        assert lanes * per_lane <= max(cycles or 64, window + 1)


class TestMiningPass:
    def test_mined_assertions_are_true_on_design(self, arbiter2_module):
        engine = GoldMine(arbiter2_module, GoldMineConfig(window=2))
        simulator = Simulator(arbiter2_module)
        trace = simulator.run(RandomStimulus(40, seed=9))
        report = engine.mine(traces=[trace])
        assert set(report.summaries) == {"gnt0", "gnt1"}
        # Every assertion reported true must indeed pass an independent check.
        for summary in report.summaries.values():
            for assertion in summary.true_assertions:
                assert engine.verifier.check(assertion).is_true

    def test_false_candidates_reported_separately(self, arbiter2_module):
        engine = GoldMine(arbiter2_module, GoldMineConfig(window=1))
        simulator = Simulator(arbiter2_module)
        # A tiny trace leaves plenty of behaviour unseen, so some candidates fail.
        trace = simulator.run(RandomStimulus(3, seed=0))
        summary = engine.mine_output("gnt0", [trace])
        assert summary.candidates
        assert len(summary.true_assertions) + len(summary.false_assertions) == \
            len(summary.candidates)

    def test_precision_metric(self, arbiter2_module):
        engine = GoldMine(arbiter2_module, GoldMineConfig(window=1))
        simulator = Simulator(arbiter2_module)
        summary = engine.mine_output("gnt0", [simulator.run(RandomStimulus(30, seed=2))])
        assert 0.0 <= summary.precision <= 1.0

    def test_mine_with_generated_data(self, cex_small_module):
        engine = GoldMine(cex_small_module, GoldMineConfig(random_cycles=20))
        report = engine.mine(outputs=["z"])
        assert report.candidate_count >= 1
        assert report.summaries["z"].true_assertions

    def test_combinational_assertions_single_cycle(self, cex_small_module):
        engine = GoldMine(cex_small_module, GoldMineConfig(window=1))
        report = engine.mine(outputs=["z"], stimulus=RandomStimulus(30, seed=1))
        for assertion in report.true_assertions:
            assert assertion.consequent.cycle == 0

    def test_mine_output_verifies_candidates_as_one_batch(self, arbiter2_module):
        """The stand-alone mining flow must go through the batched
        ``check_all`` path (one warm engine context / one pool wave), not
        one cold ``check`` call per candidate."""
        engine = GoldMine(arbiter2_module, GoldMineConfig(window=1))
        trace = Simulator(arbiter2_module).run(RandomStimulus(30, seed=2))
        batches: list[int] = []
        original = engine.verifier.check_all

        def spying_check_all(assertions):
            batches.append(len(assertions))
            return original(assertions)

        engine.verifier.check_all = spying_check_all
        summary = engine.mine_output("gnt0", [trace])
        assert batches == [len(summary.candidates)]

    def test_mine_with_parallel_workers_matches_serial(self, arbiter2_module):
        trace = Simulator(arbiter2_module).run(RandomStimulus(30, seed=9))
        serial = GoldMine(arbiter2_module, GoldMineConfig(window=2)).mine(
            traces=[trace])
        parallel = GoldMine(arbiter2_module, GoldMineConfig(
            window=2, formal_workers=2)).mine(traces=[trace])
        for label, summary in serial.summaries.items():
            other = parallel.summaries[label]
            assert summary.candidates == other.candidates
            assert summary.true_assertions == other.true_assertions
            assert summary.false_assertions == other.false_assertions
