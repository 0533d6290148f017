"""Tests for the cycle-accurate simulator."""

from __future__ import annotations

import pytest

from repro.hdl.ast import DictContext
from repro.hdl.parser import parse_module
from repro.hdl.synth import synthesize
from repro.sim.observer import Observer
from repro.sim.simulator import SimulationError, Simulator, simulate
from repro.sim.stimulus import DirectedStimulus, RandomStimulus


class TestReset:
    def test_registers_take_reset_values(self, counter_module):
        simulator = Simulator(counter_module)
        simulator.reset()
        assert simulator.peek("count") == 0
        assert simulator.peek("rollover") == 0

    def test_declared_initial_value_used(self):
        module = parse_module("""
            module m(clk, y); input clk; output y;
              reg state = 1;
              assign y = state;
              always @(posedge clk) state <= state;
            endmodule
        """)
        simulator = Simulator(module)
        simulator.reset()
        assert simulator.peek("state") == 1
        assert simulator.peek("y") == 1

    def test_reset_notifies_observers(self, arbiter2_module):
        class Recorder(Observer):
            def __init__(self):
                self.resets = 0

            def on_reset(self, values):
                self.resets += 1

        recorder = Recorder()
        simulator = Simulator(arbiter2_module, observers=[recorder])
        simulator.reset()
        assert recorder.resets == 1


class TestArbiterBehaviour:
    """The paper's arbiter trace (Figure 7) reproduced cycle by cycle."""

    def test_grant_follows_request(self, arbiter2_module):
        simulator = Simulator(arbiter2_module)
        trace = simulator.run(DirectedStimulus([
            {"rst": 0, "req0": 1, "req1": 0},
            {"rst": 0, "req0": 1, "req1": 1},
            {"rst": 0, "req0": 0, "req1": 1},
            {"rst": 0, "req0": 1, "req1": 1},
        ]))
        assert trace.column("gnt0") == [0, 1, 0, 0]
        assert trace.column("gnt1") == [0, 0, 1, 1]

    def test_reset_input_clears_grants(self, arbiter2_module):
        simulator = Simulator(arbiter2_module)
        simulator.run(DirectedStimulus([
            {"rst": 0, "req0": 1, "req1": 0},
            {"rst": 1, "req0": 1, "req1": 0},
        ]))
        assert simulator.peek("gnt0") == 0

    def test_round_robin_alternation(self, arbiter2_module):
        simulator = Simulator(arbiter2_module)
        trace = simulator.run(DirectedStimulus(
            [{"rst": 0, "req0": 1, "req1": 1}] * 6
        ))
        # With both requests high the grant alternates between the ports.
        gnt0 = trace.column("gnt0")
        assert gnt0[1:] == [1, 0, 1, 0, 1]


class TestSemantics:
    def test_nonblocking_assignments_use_pre_edge_values(self):
        module = parse_module("""
            module m(clk, a, x, y); input clk, a; output reg x, y;
              always @(posedge clk) begin
                x <= a;
                y <= x;
              end
            endmodule
        """)
        simulator = Simulator(module)
        simulator.reset()
        simulator.step({"a": 1})
        # y must capture the OLD x (0), not the newly assigned value.
        assert simulator.peek("x") == 1
        assert simulator.peek("y") == 0

    def test_blocking_assignments_in_comb_are_sequentially_visible(self):
        module = parse_module("""
            module m(a, y); input a; output y; reg y; reg t;
              always @* begin
                t = ~a;
                y = t;
              end
            endmodule
        """)
        simulator = Simulator(module)
        simulator.reset()
        sampled = simulator.step({"a": 0})
        assert sampled["y"] == 1

    def test_combinational_chain_settles_in_one_cycle(self):
        module = parse_module("""
            module m(a, y); input a; output y;
              wire t1, t2, t3;
              assign t1 = ~a;
              assign t2 = ~t1;
              assign t3 = ~t2;
              assign y = ~t3;
            endmodule
        """)
        simulator = Simulator(module)
        simulator.reset()
        assert simulator.step({"a": 1})["y"] == 1
        assert simulator.step({"a": 0})["y"] == 0

    def test_false_cycle_settles_by_fixpoint(self):
        """Constructs that depend on each other while their signals do not
        (the always block writes x, read by the assign, and reads y, written
        by it) keep construct order and settle by fixpoint iteration."""
        module = parse_module("""
            module m(a, x, y, z); input a; output x, y, z; reg x, z;
              assign y = x & a;
              always @(*) begin x = a; z = y; end
            endmodule
        """)
        simulator = Simulator(module)
        assert simulator._comb_has_cycle
        trace = simulator.run_vectors([{"a": 1}, {"a": 0}, {"a": 1}])
        synth = synthesize(module)
        for cycle, a in enumerate((1, 0, 1)):
            row = trace.cycle(cycle)
            assert row["x"] == row["y"] == row["z"] == a
            values = {"a": a}
            for name in synth.comb_order:
                values[name] = synth.comb[name].evaluate(DictContext(values))
            assert {name: row[name] for name in synth.comb} == {
                name: values[name] for name in synth.comb}

    def test_case_default_branch(self):
        module = parse_module("""
            module m(clk, sel, y); input clk; input [1:0] sel; output reg y;
              always @(posedge clk) begin
                case (sel)
                  0: y <= 0;
                  default: y <= 1;
                endcase
              end
            endmodule
        """)
        simulator = Simulator(module)
        simulator.reset()
        simulator.step({"sel": 3})
        assert simulator.peek("y") == 1
        simulator.step({"sel": 0})
        assert simulator.peek("y") == 0

    def test_values_masked_to_width(self, counter_module):
        simulator = Simulator(counter_module)
        simulator.reset()
        simulator.step({"load": 1, "enable": 0, "load_value": 7})
        assert simulator.peek("count") == 7
        simulator.step({"load": 0, "enable": 1, "load_value": 0})
        assert simulator.peek("count") == 0  # wrapped by the design's own logic
        assert simulator.peek("rollover") == 1

    def test_unknown_input_rejected(self, arbiter2_module):
        simulator = Simulator(arbiter2_module)
        simulator.reset()
        with pytest.raises(SimulationError):
            simulator.step({"nonexistent": 1})

    def test_poke_and_peek(self, arbiter2_module):
        simulator = Simulator(arbiter2_module)
        simulator.reset()
        simulator.poke("gnt0", 1)
        assert simulator.peek("gnt0") == 1

    def test_load_state_settles_combinational(self, counter_module):
        simulator = Simulator(counter_module)
        simulator.reset()
        simulator.load_state({"count": 7})
        assert simulator.peek("at_max") == 1


class TestRunHelpers:
    def test_run_returns_trace_with_all_columns(self, arbiter2_module):
        trace = simulate(arbiter2_module, RandomStimulus(10, seed=1))
        assert len(trace) == 10
        assert set(trace.columns) >= {"req0", "req1", "gnt0", "gnt1", "rst"}

    def test_run_vectors_matches_directed_stimulus(self, arbiter2_module):
        vectors = [{"rst": 0, "req0": 1, "req1": 0}] * 3
        sim_a = Simulator(arbiter2_module)
        sim_b = Simulator(arbiter2_module)
        assert sim_a.run_vectors(vectors).rows == \
            sim_b.run(DirectedStimulus(vectors)).rows

    def test_reset_between_runs_restores_state(self, counter_module):
        simulator = Simulator(counter_module)
        simulator.run(DirectedStimulus([{"load": 1, "load_value": 5, "enable": 0}]))
        assert simulator.peek("count") == 5
        simulator.run(DirectedStimulus([{"load": 0, "load_value": 0, "enable": 0}]))
        assert simulator.peek("count") == 0

    def test_cycle_count_advances(self, arbiter2_module):
        simulator = Simulator(arbiter2_module)
        simulator.run(RandomStimulus(5, seed=0))
        assert simulator.cycle_count == 5


class TestObserverHooks:
    def test_assign_and_branch_hooks_fire(self, arbiter2_module):
        class Recorder(Observer):
            def __init__(self):
                self.assigns = 0
                self.branches = []
                self.expressions = 0

            def on_assign(self, stmt, value):
                self.assigns += 1

            def on_branch(self, stmt, branch):
                self.branches.append(branch)

            def on_expression(self, expr, ctx):
                self.expressions += 1

        recorder = Recorder()
        simulator = Simulator(arbiter2_module, observers=[recorder])
        simulator.run(DirectedStimulus([{"rst": 1, "req0": 0, "req1": 0},
                                        {"rst": 0, "req0": 1, "req1": 0}]))
        assert recorder.assigns == 4          # two registers x two cycles
        assert recorder.branches == ["then", "else"]
        assert recorder.expressions > 0

    def test_cycle_hooks_report_cycle_number(self, arbiter2_module):
        class Recorder(Observer):
            def __init__(self):
                self.starts = []
                self.ends = []

            def on_cycle_start(self, cycle, values):
                self.starts.append(cycle)

            def on_cycle_end(self, cycle, values):
                self.ends.append(cycle)

        recorder = Recorder()
        Simulator(arbiter2_module, observers=[recorder]).run(RandomStimulus(3, seed=2))
        assert recorder.starts == [0, 1, 2]
        assert recorder.ends == [0, 1, 2]
