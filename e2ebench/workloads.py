"""The benchmark's workloads: inputs generated from a seed, jobs, digests.

Every workload drives ``repro`` through its public API with the library's
default speed knobs (``sim_engine``, ``sim_lanes``, ``mine_engine``,
``ir_opt``, ``formal_workers`` are never passed).  A workload fixes only
inputs that change what is computed: designs, seeds, stimulus length,
iteration budget, formal engine, proof-cache path and runner workers.

A run is split into *units*.  A unit is one execution of the workload's
work on inputs derived from ``(workload, seed, unit index)``; the
benchmark runs each unit in a fresh interpreter.  A unit produces *jobs*,
and each job yields a digest of its deterministic output plus the shape
problems found in it (a closure that did not converge, a fault the suite
missed).  The digest is compared with the reference recorded for the
workload and seed, so a change that alters any output is an error.
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

#: The closure matrix of ``closure-sweep`` and ``closure-tiered``.
#: ``decode`` is left out on purpose: it alone is 86% of an explicit
#: matrix, so it would hide every other design.  Of the rest, arbiter4,
#: fetch and wbstage each take about a quarter of the explicit time.
MATRIX_DESIGNS = ("arbiter4", "fetch", "wbstage", "counter_block",
                  "b01", "b06", "b09", "b12")

#: Designs graded by ``random-mine``: a Rigel stage, an ITC'99 controller
#: FSM, the four-port arbiter and the writeback stage.
MINE_DESIGNS = ("fetch", "b12", "arbiter4", "wbstage")


def derive_seed(*parts) -> int:
    """A stable seed from any parts (independent of ``PYTHONHASHSEED``)."""
    text = "/".join(str(part) for part in parts)
    return int(hashlib.sha256(text.encode()).hexdigest()[:12], 16) % 1_000_003


def digest(data) -> str:
    text = json.dumps(data, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(text.encode()).hexdigest()


@dataclass
class Job:
    """One checked output of a unit."""

    key: str
    digest: str
    problems: list[str]


@dataclass
class Workload:
    name: str
    why: str
    #: Distinct input sets per run; their times are averaged so that one
    #: easy or hard seed does not set a run's figure.
    units: int
    #: Inputs at full and smoke scale (``smoke`` is for self-tests); each
    #: names the ``designs`` that set-up builds and synthesizes.
    scales: dict
    run: Callable
    #: In traced mode, re-runs the unit's jobs in-process so the per-layer
    #: split of work that ran in worker processes is visible.
    replay: Callable | None = None

    def job_count(self, scale: str) -> int:
        return self.scales[scale]["jobs"]


# ----------------------------------------------------------------------
# fault-campaign
# ----------------------------------------------------------------------
def _fault_campaign(ctx, unit_seed: int, params: dict, workdir: Path) -> list[Job]:
    from repro import CoverageClosure, GoldMineConfig, RandomStimulus
    from repro.faults.mutation import StuckAtFault
    from repro.faults.regression import run_fault_campaign

    meta, module = ctx["fetch"]
    closure = CoverageClosure(module, outputs=None,
                              config=GoldMineConfig(window=meta.window,
                                                    max_iterations=params["iterations"]))
    result = closure.run(RandomStimulus(params["cycles"], seed=unit_seed))
    faults = [StuckAtFault(signal, value)
              for signal in params["fault_signals"] for value in (0, 1)]
    campaign = run_fault_campaign(module, result.all_true_assertions, faults)

    problems = []
    if not result.converged:
        problems.append("closure did not converge")
    table = []
    for detection in campaign.detections:
        if not detection.detected:
            problems.append(f"{detection.fault.label} not detected")
        table.append({"fault": detection.fault.label,
                      "checked": detection.checked_assertions,
                      "detecting": [a.to_json() for a in detection.detecting_assertions]})
    output = {"closure": result.deterministic_json(), "campaign": table}
    return [Job(f"fetch/seed{unit_seed}", digest(output), problems)]


# ----------------------------------------------------------------------
# closure-sweep
# ----------------------------------------------------------------------
def _matrix_seeds(unit_seed: int, params: dict) -> tuple[int, ...]:
    return tuple(derive_seed(unit_seed, index) for index in range(params["seeds"]))


def _sweep_jobs(unit_seed: int, params: dict):
    from repro.runner import RunOptions, get_experiment

    options = RunOptions(designs=params["designs"], seeds=_matrix_seeds(unit_seed, params),
                         seed_cycles=params["cycles"], max_iterations=params["iterations"])
    return get_experiment("sweep").expand(options)


def _record_job(record: dict) -> Job:
    problems = []
    if record.get("status") != "ok":
        problems.append(f"status {record.get('status')}: {record.get('error', '')}")
        return Job(record["job_id"], "", problems)
    payload = record["payload"]
    if not any("converged=True" in note for note in payload.get("notes", [])):
        problems.append("closure did not converge")
    return Job(record["job_id"], digest(payload), problems)


def _closure_sweep(ctx, unit_seed: int, params: dict, workdir: Path) -> list[Job]:
    from repro.runner import RunCheckpoint, execute_jobs

    jobs = _sweep_jobs(unit_seed, params)
    checkpoint = RunCheckpoint(workdir / "sweep")
    checkpoint.ensure_manifest({"experiment": "sweep",
                                "jobs": [job.job_id for job in jobs]})
    records = execute_jobs(jobs, checkpoint, workers=params["workers"], stats={})
    return [_record_job(records[job.job_id]) for job in jobs]


def _closure_sweep_replay(ctx, unit_seed: int, params: dict, workdir: Path) -> list[Job]:
    from repro.runner import run_one_job

    return [_record_job(run_one_job(job.task())) for job in _sweep_jobs(unit_seed, params)]


# ----------------------------------------------------------------------
# closure-tiered
# ----------------------------------------------------------------------
def _closure_tiered(ctx, unit_seed: int, params: dict, workdir: Path) -> list[Job]:
    from repro import CoverageClosure, CoverageRunner, GoldMineConfig, RandomStimulus
    from repro.designs import info

    cache_path = workdir / "proofcache.json"
    jobs = []
    for design in params["designs"]:
        meta = info(design)
        for seed in _matrix_seeds(unit_seed, params):
            config = GoldMineConfig(window=meta.window,
                                    max_iterations=params["iterations"],
                                    engine="tiered",
                                    formal_proof_cache=str(cache_path))
            closure = CoverageClosure(meta.build(), outputs=list(meta.mining_outputs) or None,
                                      config=config)
            result = closure.run(RandomStimulus(params["cycles"], seed=seed))
            runner = CoverageRunner(meta.build(), fsm_signals=meta.fsm_signals or None)
            runner.run_suite(result.test_suite)
            output = {"closure": result.deterministic_json(),
                      "coverage": runner.report().as_dict()}
            problems = [] if result.converged else ["closure did not converge"]
            jobs.append(Job(f"{design}/seed{seed}", digest(output), problems))
    ctx["extra"]["formal.proofcache.file_bytes"] = \
        cache_path.stat().st_size if cache_path.exists() else 0
    return jobs


# ----------------------------------------------------------------------
# random-mine
# ----------------------------------------------------------------------
def _random_mine(ctx, unit_seed: int, params: dict, workdir: Path) -> list[Job]:
    from repro import CoverageRunner, GoldMine, GoldMineConfig, RandomStimulus

    jobs = []
    for design in params["designs"]:
        meta, module = ctx[design]
        stimulus = RandomStimulus(params["cycles"], seed=derive_seed(unit_seed, design))
        report = GoldMine(module, GoldMineConfig(window=meta.window)).mine(
            stimulus=stimulus, outputs=list(meta.mining_outputs) or None)
        runner = CoverageRunner(module, fsm_signals=meta.fsm_signals or None)
        runner.run_stimulus(stimulus)
        mined = {}
        for label, summary in report.summaries.items():
            true = set(summary.true_assertions)
            mined[label] = [[candidate.to_json(), candidate in true]
                            for candidate in summary.candidates]
        output = {"mined": mined, "coverage": runner.report().as_dict()}
        problems = [] if report.candidate_count else ["no candidates mined"]
        jobs.append(Job(f"{design}/seed{stimulus.seed}", digest(output), problems))
    return jobs


# ----------------------------------------------------------------------
# registry
# ----------------------------------------------------------------------
_PAPER_FAULT_SITES = ("stall_in", "branch_pc", "branch_mispredict", "icache_rdvl_i")

WORKLOADS = {
    # The Table 2 flow on fetch: an explicit-engine closure from seeded
    # random stimulus, then a formal stuck-at campaign over the paper's four
    # fault sites (8 mutants), serially in-process.  Why: the explicit
    # engine does almost all the work and the campaign re-checks the whole
    # suite once per mutant, so the bitset explicit evaluator should show
    # here; simulation, mining and SAT do little.  2000 seed cycles (not
    # Table 2's 30) keep the suite size, and so the campaign's cost, from
    # varying twofold between seeds; the closure still replays
    # counterexamples on most seeds.  A campaign's cost still varies by
    # about 10% between seeds, so a run averages 6 of them.
    "fault-campaign": Workload(
        name="fault-campaign",
        why="explicit-engine closure on fetch, then a formal stuck-at campaign "
            "over the paper's 8 mutants; the explicit engine does nearly all the work",
        units=6,
        scales={
            "full": {"designs": ("fetch",), "cycles": 2000, "iterations": 16,
                     "fault_signals": _PAPER_FAULT_SITES, "jobs": 1},
            "smoke": {"designs": ("fetch",), "cycles": 2000, "iterations": 16,
                      "fault_signals": _PAPER_FAULT_SITES[:1], "jobs": 1},
        },
        run=_fault_campaign,
    ),
    # The user's ``sweep`` job: a design x seed closure matrix with default
    # knobs and per-job coverage grading, through
    # ``repro.runner.execute_jobs`` with two workers (this machine's nproc)
    # and a fresh checkpoint directory.  Why: the same explicit engine in
    # closure shape (small iterative batches that produce counterexamples),
    # so an explicit-engine change that wins on campaigns but costs per
    # batch shows here; it is also the only workload that exercises the
    # supervised pool, checkpoint appends and per-job design rebuilds.
    "closure-sweep": Workload(
        name="closure-sweep",
        why="design x seed closure matrix through the supervised runner pool "
            "(2 workers, fresh checkpoint); explicit engine in closure shape",
        units=1,
        scales={
            "full": {"designs": MATRIX_DESIGNS, "seeds": 6, "cycles": 25,
                     "iterations": 24, "workers": 2, "jobs": 6 * len(MATRIX_DESIGNS)},
            "smoke": {"designs": ("arbiter2", "b01"), "seeds": 1, "cycles": 10,
                      "iterations": 12, "workers": 2, "jobs": 2},
        },
        run=_closure_sweep,
        replay=_closure_sweep_replay,
    ),
    # The same matrix with ``engine="tiered"``, serially in-process, with
    # a persistent proof cache in a fresh file per unit.  Why: SAT,
    # bit-blasting, unrolling and induction do all the formal work and the
    # explicit engine none; the cache flushes once per closure and gets
    # deterministic cross-seed hits.  One matrix's cost varies by about
    # 8% between seeds (up to 25%), so a run averages 6 matrices on
    # different sub-seeds, each with its own fresh cache.
    "closure-tiered": Workload(
        name="closure-tiered",
        why="same closure matrix on the tiered SAT engine with a persistent proof "
            "cache; SAT and induction do all formal work",
        units=6,
        scales={
            "full": {"designs": MATRIX_DESIGNS, "seeds": 6, "cycles": 25,
                     "iterations": 24, "jobs": 6 * len(MATRIX_DESIGNS)},
            "smoke": {"designs": ("arbiter2", "b01"), "seeds": 1, "cycles": 10,
                      "iterations": 12, "jobs": 2},
        },
        run=_closure_tiered,
    ),
    # One ``GoldMine.mine`` pass over long seeded random stimulus on several
    # designs, then ``CoverageRunner`` grading of that same stimulus.  Why:
    # at 10k cycles simulation, coverage collectors, dataset ingest and
    # tree induction take about 80% of the time and formal about 3%, so a
    # faster simulator or miner (or a flipped sim/mine default) shows
    # here, while the closure workloads show whether it costs short runs.
    "random-mine": Workload(
        name="random-mine",
        why="one mining pass plus coverage grading over 10k random cycles on "
            "four designs; simulation, coverage and mining dominate",
        units=1,
        scales={
            "full": {"designs": MINE_DESIGNS, "cycles": 10_000,
                     "jobs": len(MINE_DESIGNS)},
            "smoke": {"designs": ("arbiter2", "b01"), "cycles": 500, "jobs": 2},
        },
        run=_random_mine,
    ),
}


def setup(workload: Workload, scale: str) -> dict:
    """Build and synthesize the workload's designs (the measured set-up)."""
    from repro.designs import info
    from repro.hdl.synth import synthesize

    ctx: dict = {"extra": {}}
    for design in workload.scales[scale]["designs"]:
        meta = info(design)
        module = meta.build()
        synthesize(module)
        ctx[design] = (meta, module)
    return ctx
