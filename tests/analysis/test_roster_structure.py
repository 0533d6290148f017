"""Structural invariants of every bundled design.

The symbolic engines, the logic-cone analysis and the miner all read the
synthesized functional view of a design rather than the simulator.  These
tests pin, on every design in :mod:`repro.designs`, that this view is
well-formed and agrees with simulation:

* every driving function reads only declared signals, and the
  combinational evaluation order is topological;
* a logic cone is closed under the supports it was built from, and
  signals outside it really cannot affect the cone (checked by
  simulating with the outside inputs changed);
* the unrolling the SAT engines encode equals simulation bit for bit;
* every register leaves its reset value under random stimulus, so no
  bundled design carries dead state.
"""

from __future__ import annotations

import random

import pytest

from repro.analysis.cone import cone_of_influence
from repro.analysis.unroll import Unroller, bit_variable
from repro.designs import DESIGNS
from repro.hdl.synth import synthesize
from repro.sim.simulator import Simulator
from repro.sim.stimulus import RandomStimulus

ROSTER = sorted(DESIGNS)
STATEFUL_ROSTER = [name for name in ROSTER if DESIGNS[name].build().state_names]


def random_vectors(module, cycles, rng, fixed=None):
    """Random data-input vectors with reset held low; ``fixed`` overrides."""
    vectors = []
    for cycle in range(cycles):
        vector = {name: rng.randrange(1 << module.width_of(name))
                  for name in module.data_input_names}
        if fixed is not None:
            vector.update(fixed[cycle])
        if module.reset is not None:
            vector[module.reset] = 0
        vectors.append(vector)
    return vectors


@pytest.mark.parametrize("design_name", ROSTER)
def test_synthesized_functions_are_well_formed(design_name):
    module = DESIGNS[design_name].build()
    synth = synthesize(module)
    synth.check_no_latches()
    assert synth.registers == sorted(module.state_names)
    assert sorted(synth.comb_order) == sorted(synth.comb)
    sources = (set(module.input_names) - {module.clock}) | set(synth.next_state)
    for name in list(synth.comb) + synth.registers:
        assert synth.expression_for(name).signals() <= set(module.signals), name
        # Inlining leaves only inputs and current-cycle register values.
        assert synth.support_of(name) <= sources, name
    for position, name in enumerate(synth.comb_order):
        earlier = set(synth.comb_order[:position])
        assert synth.comb[name].signals() & set(synth.comb) <= earlier, (
            f"[{design_name}] {name} is ordered before a signal it reads")


@pytest.mark.parametrize("design_name", ROSTER)
def test_cone_of_influence_is_closed_and_sound(design_name):
    module = DESIGNS[design_name].build()
    synth = synthesize(module)
    rng = random.Random(7)
    for output in module.output_names:
        cone = cone_of_influence(module, output, synth)
        assert output in cone and cone <= set(module.signals)
        for name in cone:
            if name in synth.comb or name in synth.next_state:
                assert synth.support_of(name) <= cone, (
                    f"[{design_name}] cone of '{output}' lost part of "
                    f"{name}'s support")
        # Changing every input outside the cone changes nothing inside it.
        first = random_vectors(module, 40, rng)
        kept = [{name: vector[name] for name in vector if name in cone}
                for vector in first]
        second = random_vectors(module, 40, rng, fixed=kept)
        one = Simulator(module).run_vectors(first)
        two = Simulator(module).run_vectors(second)
        for name in cone - {module.clock}:
            assert one.column(name) == two.column(name), (
                f"[{design_name}] '{name}' in the cone of '{output}' moved "
                f"with inputs outside the cone")


@pytest.mark.parametrize("design_name", ROSTER)
def test_unrolling_matches_simulation(design_name):
    """Every signal bit of the from-reset unrolling equals the simulator."""
    module = DESIGNS[design_name].build()
    cycles = 4
    design = Unroller(module).unroll(cycles - 1)
    rng = random.Random(1)
    signals = [name for name in module.signals
               if name not in (module.clock, module.reset)]
    for _ in range(8):
        vectors = random_vectors(module, cycles, rng)
        assignment = {
            bit_variable(name, bit, cycle): bool((vector[name] >> bit) & 1)
            for cycle, vector in enumerate(vectors)
            for name in module.data_input_names
            for bit in range(module.width_of(name))
        }
        trace = Simulator(module).run_vectors(vectors)
        for cycle in range(cycles):
            for name in signals:
                bits = design.signal_bits(name, cycle)
                value = sum(1 << bit for bit, expr in enumerate(bits)
                            if expr.evaluate(assignment))
                assert value == trace.value(name, cycle), (
                    f"[{design_name}] {name}@{cycle}: unrolled {value} != "
                    f"simulated {trace.value(name, cycle)}")


@pytest.mark.parametrize("design_name", STATEFUL_ROSTER)
def test_every_register_leaves_its_reset_value(design_name):
    """A register that never moves is dead state; none is expected here."""
    module = DESIGNS[design_name].build()
    moved = set()
    for seed in range(4):
        trace = Simulator(module).run(RandomStimulus(200, seed=seed))
        for name in module.state_names:
            reset_value = module.signal(name).reset_value
            if any(value != reset_value for value in trace.column(name)):
                moved.add(name)
    assert moved == set(module.state_names), (
        f"[{design_name}] stuck at reset: "
        f"{sorted(set(module.state_names) - moved)}")
