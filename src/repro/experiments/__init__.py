"""Experiment drivers reproducing every table and figure of the paper.

Each module reproduces one artifact of Section 7 (plus the Section 6
worked example and two ablations).  The drivers are importable, testable
library code with no side effects; the layers above consume them:

* ``python -m repro run <name>`` — the canonical entry point: every
  driver is registered as a declarative job spec in
  :mod:`repro.runner.specs` and runs sharded/parallel/checkpointed
  (see ``docs/EXPERIMENTS.md`` for the command per artifact).
* ``benchmarks/`` — full-scale regeneration with shape validation.
* ``tests/experiments/`` — scaled-down smoke/shape tests.

Every driver takes ``config``, a :class:`~repro.core.config.GoldMineConfig`
carrying the engine stack: the simulation back end (also used for
coverage replay), the formal back end and the A-Miner back end, plus how
each executes.  A driver keeps those fields, sets its own window,
iteration budget and depth with :func:`dataclasses.replace`, and never
mutates the caller's object; results are engine-independent::

    fig16_itc99.run(config=GoldMineConfig(sim_engine="batched", mine_engine="columnar"))

| Paper artifact | Driver |
|----------------|--------|
| Fig. 12 (arbiter coverage by iteration)      | :mod:`repro.experiments.fig12_arbiter` |
| Fig. 13 (design-space coverage by iteration) | :mod:`repro.experiments.fig13_design_space` |
| Fig. 14 (expression coverage by iteration)   | :mod:`repro.experiments.fig14_expression` |
| Table 1 (zero-pattern limit study)           | :mod:`repro.experiments.table1_zero_seed` |
| Fig. 15 (high-coverage block)                | :mod:`repro.experiments.fig15_high_coverage` |
| Table 2 (fault detection)                    | :mod:`repro.experiments.table2_faults` |
| Table 3 (Rigel coverage comparison)          | :mod:`repro.experiments.table3_rigel` |
| Fig. 16 (ITC'99 coverage comparison)         | :mod:`repro.experiments.fig16_itc99` |
| Sec. 6 walkthrough                           | :mod:`repro.experiments.arbiter_walkthrough` |
| Ablation: incremental vs rebuilt trees       | :mod:`repro.experiments.ablation_incremental` |
| Ablation: formal engine comparison           | :mod:`repro.experiments.ablation_engines` |
"""

from repro.experiments.common import (
    CoverageRow,
    ExperimentResult,
    closure_for_design,
    coverage_of_suite,
    format_table,
)

__all__ = [
    "CoverageRow",
    "ExperimentResult",
    "closure_for_design",
    "coverage_of_suite",
    "format_table",
]
