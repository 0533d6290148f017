"""Configuration shared by the GoldMine engine and the refinement loop."""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Mapping


@dataclass
class GoldMineConfig:
    """Tuning knobs for mining and refinement.

    Attributes mirror the concepts discussed in the paper:

    * ``window`` — the mining window length (Section 2.1): the number of
      observed cycles an assertion's antecedent may span.
    * ``max_depth`` — optional cap on decision-tree depth, i.e. on the
      number of propositions per assertion ("incremental refinement only
      applied up to a certain depth", Section 7.1).
    * ``include_internal_state`` — whether registers/internal signals are
      visible to the miner (Section 3.1's "flat single-cycle picture").
    * ``engine`` — formal back end: ``explicit`` (exact, default), ``bmc``
      (incremental SAT, one persistent solver context per design),
      ``k-induction`` (BMC base case + simple-path inductive step, proves
      assertions *unbounded*), ``tiered`` (portfolio: BMC falsification
      tier, then induction escalation for proof) or ``bdd``.
    * ``induction_k`` — maximum induction depth for the ``k-induction``
      and ``tiered`` engines (ignored by the others).  Larger values
      prove more assertions at the cost of deeper step queries.
    * ``max_iterations`` — safety bound on counterexample iterations.
    * ``random_cycles`` / ``random_seed`` — the data generator's random
      stimulus phase (Section 2.1 simulates "a fixed number of cycles using
      random input patterns").
    * ``sim_engine`` / ``sim_lanes`` — simulation back end: ``scalar``
      (the interpreting simulator) or ``batched`` (the bit-parallel
      engine in :mod:`repro.sim.batched`, which packs ``sim_lanes``
      independent trials per step).  The batched engine splits the
      random-cycle budget across lanes (many short from-reset runs
      instead of one long one), which both speeds up data generation by
      orders of magnitude and diversifies the mining dataset.
    * ``mine_engine`` — A-Miner back end: ``rowwise`` (per-row feature
      dicts, the differential baseline) or ``columnar`` (big-int bitset
      columns with popcount split gains, :mod:`repro.mining.columnar`).
      Both engines produce node-for-node identical decision trees and
      identical candidate assertions; the columnar engine is just much
      faster.  In a :meth:`~repro.core.goldmine.GoldMine.mine` pass with
      ``sim_engine="batched"``, the random data-generator additionally
      hands the columnar miner its lane-packed words zero-copy.
    * ``formal_workers`` — process parallelism of the formal stage: ``1``
      checks candidates in-process, ``N > 1`` shards every batch across
      ``N`` persistent model-checking worker processes
      (:mod:`repro.formal.parallel`).  Results — verdicts *and*
      counterexamples — are identical for every worker count; only the
      wall clock changes.
    * ``formal_proof_cache`` — cross-run verdict reuse
      (:mod:`repro.formal.proofcache`): ``False`` disables it, ``True``
      shares verdicts in-memory between every run in the process, a path
      string additionally persists them to that JSON file (conventionally
      under ``artifacts/``) so sweeps across seeds/jobs stop re-proving
      identical candidates.  Cache hits reproduce byte-identical results.
    * ``ir_opt`` — route both the formal engines and the batched
      simulator through the bit-level netlist IR (:mod:`repro.ir`):
      structural hashing, constant-register folding, and per-assertion
      cone-of-influence slicing of the SAT encodings.  Verdicts,
      counterexamples, and mined assertions are identical with the flag
      on or off; only encoding size and runtime change.
    * ``formal_query_timeout`` — optional wall-clock budget in seconds
      for each individual formal query (``None`` = unbounded, the
      default).  On expiry the SAT engines abandon the query and report
      an UNKNOWN-style result flagged ``timed_out`` — never cached or
      memoised, since more budget might have produced a verdict — and
      the ``tiered``/``k-induction`` engines degrade the unbounded proof
      tier to plain bounded search before giving up.  Enforced
      identically in-process and inside worker processes.
    """

    window: int = 1
    max_depth: int | None = None
    include_internal_state: bool = True
    engine: str = "explicit"
    bound: int = 10
    induction_k: int = 8
    max_iterations: int = 64
    random_cycles: int = 0
    random_seed: int = 0
    input_bias: Mapping[str, float] = field(default_factory=dict)
    max_states: int = 50_000
    max_input_combinations: int = 4_096
    sim_engine: str = "scalar"
    sim_lanes: int = 64
    mine_engine: str = "rowwise"
    formal_workers: int = 1
    formal_proof_cache: bool | str = False
    formal_query_timeout: float | None = None
    ir_opt: bool = False

    def __post_init__(self) -> None:
        if self.window < 1:
            raise ValueError("window must be at least 1")
        if self.max_iterations < 1:
            raise ValueError("max_iterations must be at least 1")
        if self.random_cycles < 0:
            raise ValueError("random_cycles cannot be negative")
        from repro.formal.checker import FORMAL_ENGINES
        from repro.sim.base import SIM_ENGINES

        if self.engine not in FORMAL_ENGINES:
            raise ValueError(
                f"engine must be one of {FORMAL_ENGINES}, got '{self.engine}'"
            )
        if self.sim_engine not in SIM_ENGINES:
            raise ValueError(
                f"sim_engine must be one of {SIM_ENGINES}, got '{self.sim_engine}'"
            )
        if self.sim_lanes < 1:
            raise ValueError("sim_lanes must be at least 1")
        if self.formal_workers < 1:
            raise ValueError("formal_workers must be at least 1")
        if self.formal_query_timeout is not None and self.formal_query_timeout <= 0:
            raise ValueError("formal_query_timeout must be positive when set")
        if self.induction_k < 0:
            raise ValueError("induction_k cannot be negative")
        from repro.mining import MINE_ENGINES

        if self.mine_engine not in MINE_ENGINES:
            raise ValueError(
                f"mine_engine must be one of {MINE_ENGINES}, got '{self.mine_engine}'"
            )

    # ------------------------------------------------------------------
    def engine_stack(self) -> dict:
        """The :data:`ENGINE_FIELDS` values, keyed by field name."""
        return {name: getattr(self, name) for name in ENGINE_FIELDS}

    def to_json(self) -> dict:
        """Plain-dict form recorded in run manifests (see :mod:`repro.runner`)."""
        from dataclasses import asdict

        data = asdict(self)
        data["input_bias"] = dict(self.input_bias)
        return data

    @staticmethod
    def from_json(data: Mapping) -> "GoldMineConfig":
        """Rebuild a config from :meth:`to_json` output (unknown keys ignored,
        so manifests written by newer versions still load)."""
        from dataclasses import fields

        known = {f.name for f in fields(GoldMineConfig)}
        return GoldMineConfig(**{k: v for k, v in dict(data).items() if k in known})


#: The engine stack: which back end runs each layer and how it executes.
#: ``python -m repro`` sets these once per run (``RunOptions.config``) and
#: ships them to every job; each experiment picks its own window,
#: iteration budget and tree depth.
ENGINE_FIELDS: tuple[str, ...] = (
    "sim_engine", "sim_lanes", "engine", "induction_k", "mine_engine",
    "formal_workers", "formal_proof_cache", "formal_query_timeout", "ir_opt",
)
