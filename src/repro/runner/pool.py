"""Supervised execution of experiment job sets.

``execute_jobs`` fans a list of :class:`~repro.runner.registry.JobSpec`
jobs out across a :class:`SupervisedJobPool` (or runs them inline for
``workers <= 1`` with no governance flags), appending one checkpoint
record per completed job as it finishes.  Jobs already present in the
checkpoint are skipped, which is what makes a killed run resumable:
re-invoking the same command picks up exactly where the log ends.

:class:`SupervisedJobPool` is the job runner's use of the shared
:class:`repro.supervise.SupervisedPool`, which detects dead, over-deadline
and over-budget workers and respawns them.  This module decides what a
fault means for the job the worker held:

* **Worker death** (SIGKILL, OOM kill, segfault) — the job is requeued
  on a fresh worker; the run continues.
* **Runaway jobs** — an optional per-job wall-clock deadline
  (``job_timeout``) ends an over-deadline worker with terminate→kill
  escalation and requeues the job.
* **Memory pressure** — an optional RSS watchdog (``memory_budget_mb``)
  kills a worker whose resident set grows more than the budget past its
  post-spawn baseline and retries the job once in degraded mode
  (``sim_lanes``/``formal_workers`` reduced — payloads are invariant to
  both, so the artifact is unchanged; the degradation is recorded).
* **Poison jobs** — every fault is charged to the job's bounded retry
  budget (exponential backoff between attempts); a job that exhausts it
  is quarantined as ``status: "poisoned"`` (or ``"timed_out"`` when the
  final fault was its deadline) with its attempt count and fault history
  persisted, and is never retried on resume without ``retry_poisoned``.

Determinism contract: a job's payload depends only on its params, never
on scheduling or supervision, so serial, parallel, and fault-recovered
runs of the same job set produce identical artifact JSON (timing and
attempt accounting aside).  Failures *inside* a job are recorded
(``status: "failed"`` with the exception text) rather than aborting the
whole run; the surviving jobs still checkpoint, and the CLI exits
non-zero.

Fault injection: an installed :class:`repro.chaos.FaultPlan` keys its
faults by job index and delivers each with that job's first in-run
attempt; its supervision overrides replace the caller's settings.
"""

from __future__ import annotations

import time
import traceback
from collections import deque
from dataclasses import dataclass, field
from typing import Callable, Sequence

from repro import chaos
from repro.runner.checkpoint import RunCheckpoint
from repro.runner.registry import JobSpec, get_experiment
from repro.supervise import (
    BACKOFF_CAP_SECONDS,
    DEFAULT_BACKOFF_SECONDS,
    SupervisedPool,
)

#: Default per-job retry budget: faults beyond these retries quarantine
#: the job.  Chosen to match the formal layer's restart allowance.
DEFAULT_RETRY_BUDGET = 2
#: Degraded-mode overrides applied after a memory kill (only to params
#: the job actually has): fewer simulation lanes, in-process formal
#: execution.  Both are payload-invariant knobs.
DEGRADED_SIM_LANES = 16
DEGRADED_FORMAL_WORKERS = 1

#: Counter keys ``execute_jobs`` maintains in its ``stats`` out-param.
STAT_KEYS = ("worker_restarts", "job_timeouts", "memory_kills",
             "degraded_retries", "poisoned_jobs", "timed_out_jobs")


def run_one_job(task: tuple[str, str, dict]) -> dict:
    """Execute one (experiment, job_id, params) task; never raises.

    This is the function pool workers run.  Only the task tuple crosses
    the process boundary; the worker resolves the experiment spec from
    the registry in its own interpreter.
    """
    experiment, job_id, params = task
    record = {"job_id": job_id, "experiment": experiment}
    start = time.perf_counter()
    try:
        spec = get_experiment(experiment)
        payload, cycles = spec.execute(params)
        record.update(status="ok", payload=payload, cycles=int(cycles))
    except Exception as exc:  # noqa: BLE001 - failures become records
        record.update(status="failed",
                      error=f"{type(exc).__name__}: {exc}",
                      trace=traceback.format_exc(limit=8))
    record["seconds"] = round(time.perf_counter() - start, 6)
    return record


def _job_handler():
    """Worker setup: every request is a job task for :func:`run_one_job`."""
    return run_one_job


def _degraded_overrides(params) -> dict:
    """Reduced-resource params for a memory-kill retry (present keys only)."""
    overrides = {}
    if "sim_lanes" in params:
        overrides["sim_lanes"] = min(int(params["sim_lanes"]), DEGRADED_SIM_LANES)
    if "formal_workers" in params:
        overrides["formal_workers"] = DEGRADED_FORMAL_WORKERS
    return overrides


@dataclass
class _JobState:
    """Supervision bookkeeping for one pending job."""

    job: JobSpec
    #: Position in the run's pending list — the key fault plans use.
    index: int
    #: Executions recorded by previous runs (from the checkpoint record).
    prior_attempts: int = 0
    #: Executions started in this run.
    runs: int = 0
    #: Faults charged to the retry budget in this run.
    retries_used: int = 0
    faults: list = field(default_factory=list)
    degraded: dict | None = None
    #: Earliest monotonic time the next attempt may dispatch (backoff).
    ready_at: float = 0.0

    @property
    def attempts(self) -> int:
        return self.prior_attempts + self.runs

    def current_task(self) -> tuple[str, str, dict]:
        task = self.job.task()
        if self.degraded:
            task[2].update(self.degraded)
        return task


class SupervisedJobPool(SupervisedPool):
    """Job states on supervised workers: requeue, deadlines, governance.

    One-shot: construct, :meth:`run` one batch of job states, done.
    ``stats`` (a mutable dict) accumulates the :data:`STAT_KEYS` counters
    so callers can assert recovery actually fired.
    """

    name = "runner-worker"

    def __init__(self, workers: int, *,
                 job_timeout: float | None = None,
                 memory_budget_mb: float | None = None,
                 retry_budget: int = DEFAULT_RETRY_BUDGET,
                 backoff: float = DEFAULT_BACKOFF_SECONDS,
                 chaos_plan=None,
                 stats: dict | None = None):
        if retry_budget < 0:
            raise ValueError("retry_budget must be >= 0")
        super().__init__(workers, memory_budget_mb=memory_budget_mb)
        self._job_timeout = job_timeout
        self._retry_budget = retry_budget
        self._backoff = backoff
        self._chaos_plan = chaos_plan
        self.stats = stats if stats is not None else {}
        for key in STAT_KEYS:
            self.stats.setdefault(key, 0)
        self._pending: deque[_JobState] = deque()
        self._absorb: Callable[[dict], None] | None = None

    def _worker_setup(self):
        return _job_handler, ()

    def run(self, states: Sequence[_JobState],
            absorb: Callable[[dict], None]) -> None:
        """Run every job state to a final record, surviving worker faults."""
        self._pending = deque(states)
        self._absorb = absorb
        try:
            while self._pending or self._busy():
                self._poll(self._dispatch())
        finally:
            self.stats["worker_restarts"] += self.restarts
            self.close()

    def _dispatch(self) -> float | None:
        """Give ready jobs to idle slots, replacing idle workers that died.

        Returns when the first backed-off job becomes ready if a slot is
        left idle waiting for it, else ``None``.
        """
        now = time.monotonic()
        waiting = False
        for index, slot in enumerate(self._slots):
            if slot is None:
                self._spawn(index)
            elif slot.task is not None:
                continue
            elif not slot.process.is_alive():
                self._respawn(index)  # idle worker died (external kill)
            state = self._next_ready(now)
            if state is None:
                waiting = waiting or bool(self._pending)
                continue
            fault = None
            if self._chaos_plan is not None and state.runs == 0:
                fault = self._chaos_plan.take_fault(state.index)
            state.runs += 1
            self._submit(index, state, state.current_task(),
                         timeout=self._job_timeout, fault=fault)
        if waiting:
            return min(state.ready_at for state in self._pending)
        return None

    def _next_ready(self, now: float):
        """Pop the first pending state whose backoff has elapsed."""
        pending = self._pending
        for _ in range(len(pending)):
            if pending[0].ready_at <= now:
                return pending.popleft()
            pending.rotate(-1)
        return None

    def _on_reply(self, index: int, state: _JobState, reply) -> None:
        _, record = reply  # run_one_job never raises
        record["attempts"] = state.attempts
        if state.degraded:
            record["degraded"] = dict(state.degraded)
        if state.faults:
            record["faults"] = list(state.faults)
        self._absorb(record)

    def _on_fault(self, index: int, state: _JobState, kind: str,
                  detail: dict) -> None:
        """Charge a fault to the job: requeue, degrade, or quarantine."""
        started_at = self._slots[index].started_at
        self._respawn(index)
        if kind == "deadline":
            self.stats["job_timeouts"] += 1
            detail = {"timeout_seconds": self._job_timeout}
        elif kind == "memory":
            self.stats["memory_kills"] += 1
        entry = {"fault": kind, "attempt": state.attempts}
        entry.update(detail)
        state.faults.append(entry)
        now = time.monotonic()
        if kind == "memory" and state.degraded is None:
            # One free degraded-mode retry before memory faults start
            # consuming the regular budget.
            state.degraded = _degraded_overrides(state.job.params)
            state.ready_at = now
            self.stats["degraded_retries"] += 1
            self._pending.append(state)
            return
        if state.retries_used < self._retry_budget:
            state.retries_used += 1
            state.ready_at = now + min(BACKOFF_CAP_SECONDS,
                                       self._backoff * (2 ** (state.retries_used - 1)))
            self._pending.append(state)
            return
        # Budget exhausted: quarantine with the full fault history.
        if kind == "deadline":
            status = "timed_out"
            error = (f"job exceeded {self._job_timeout:g}s deadline "
                     f"({state.attempts} attempts)")
            self.stats["timed_out_jobs"] += 1
        else:
            status = "poisoned"
            what = ("worker exceeded memory budget" if kind == "memory"
                    else f"worker died (exitcode {detail.get('exitcode')})")
            error = f"{what} ({state.attempts} attempts)"
            self.stats["poisoned_jobs"] += 1
        record = {
            "job_id": state.job.job_id,
            "experiment": state.job.experiment,
            "status": status,
            "error": error,
            "seconds": round(now - started_at, 6),
            "attempts": state.attempts,
            "faults": list(state.faults),
        }
        if state.degraded:
            record["degraded"] = dict(state.degraded)
        self._absorb(record)


#: Record statuses that are final: never retried on resume without
#: ``retry_poisoned`` (both are only ever written on budget exhaustion).
_QUARANTINED = ("poisoned", "timed_out")


def execute_jobs(jobs: Sequence[JobSpec], checkpoint: RunCheckpoint,
                 workers: int = 1,
                 progress: Callable[[str], None] | None = None, *,
                 job_timeout: float | None = None,
                 memory_budget_mb: float | None = None,
                 retry_budget: int = DEFAULT_RETRY_BUDGET,
                 retry_poisoned: bool = False,
                 backoff: float = DEFAULT_BACKOFF_SECONDS,
                 stats: dict | None = None) -> dict[str, dict]:
    """Run every job not already completed; return all records by job id.

    ``workers`` caps pool size (it is further capped by the job count);
    ``progress`` receives one human-readable line per job event.
    ``job_timeout`` / ``memory_budget_mb`` enable the per-job deadline
    and RSS-growth watchdog; ``retry_budget`` bounds fault retries both
    within a run and cumulatively across resumes (``attempts`` in each
    record carries the count forward); ``retry_poisoned`` re-admits
    quarantined and budget-exhausted jobs with a fresh in-run budget.
    ``stats``, when given, accumulates the :data:`STAT_KEYS` recovery
    counters for the caller.
    """
    def say(message: str) -> None:
        if progress is not None:
            progress(message)

    if stats is None:
        stats = {}
    for key in STAT_KEYS:
        stats.setdefault(key, 0)

    plan = chaos.active_plan()
    if plan is not None:
        if plan.timeout is not None:
            job_timeout = plan.timeout
        if plan.memory_budget_mb is not None:
            memory_budget_mb = plan.memory_budget_mb
        if plan.max_restarts is not None:
            retry_budget = plan.max_restarts
        if plan.backoff is not None:
            backoff = plan.backoff

    records = checkpoint.completed()
    # Resume triage.  A failed record does not count as done —
    # re-running retries it — but only while its cumulative attempt
    # count is inside the budget; quarantined jobs (poisoned/timed_out)
    # and budget-exhausted failures stay skipped without retry_poisoned.
    pending: list[tuple[JobSpec, int]] = []
    quarantined = 0
    for job in jobs:
        record = records.get(job.job_id)
        if record is None:
            pending.append((job, 0))
            continue
        status = record.get("status")
        if status == "ok":
            continue
        prior = max(1, int(record.get("attempts", 1) or 1))
        if not retry_poisoned:
            if status in _QUARANTINED:
                quarantined += 1
                continue
            if prior >= 1 + retry_budget:
                quarantined += 1
                continue
        pending.append((job, prior))
    skipped = len(jobs) - len(pending)
    if skipped:
        say(f"resume: {skipped}/{len(jobs)} jobs already complete, "
            f"{len(pending)} to run")
    if quarantined:
        say(f"quarantine: {quarantined} job(s) kept skipped after exhausting "
            f"their retry budget (pass --retry-poisoned to re-admit them)")

    total = len(jobs)
    finished = skipped

    def absorb(record: dict) -> None:
        nonlocal finished
        finished += 1
        checkpoint.append(record)
        records[record["job_id"]] = record
        status = record["status"]
        note = f"{record['seconds']:.2f}s"
        if status != "ok":
            note = record.get("error", status)
        say(f"[{finished}/{total}] {record['job_id']} {status} ({note})")

    if not pending:
        return records

    supervised = (workers > 1 or job_timeout is not None
                  or memory_budget_mb is not None or plan is not None)
    if not supervised:
        for job, prior in pending:
            record = run_one_job(job.task())
            record["attempts"] = prior + 1
            absorb(record)
        return records

    workers = max(1, min(workers, len(pending)))
    states = [_JobState(job=job, index=index, prior_attempts=prior)
              for index, (job, prior) in enumerate(pending)]
    pool = SupervisedJobPool(workers,
                             job_timeout=job_timeout,
                             memory_budget_mb=memory_budget_mb,
                             retry_budget=retry_budget,
                             backoff=backoff,
                             chaos_plan=plan,
                             stats=stats)
    pool.run(states, absorb)
    return records
