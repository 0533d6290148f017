"""Process-parallel formal verification on the supervised worker pool.

The refinement loop's candidate checks are independent — the paper's
Section 3 loop verifies every candidate of an iteration on its own — so
:class:`FormalWorkerPool` checks each batch on persistent worker
processes of a :class:`repro.supervise.SupervisedPool`:

* **Warm engines.**  Each worker builds its engine once and keeps it for
  the pool's whole lifetime.  For the incremental SAT engine that means
  one long-lived solver context per (design, from_reset) *per worker*,
  whose encodings and learned clauses stay warm across batches.
* **Pinned shards.**  Candidates are sharded across slots by a content
  hash of their canonical form
  (:func:`repro.formal.proofcache.assertion_shard`), so the same
  candidate always lands on the same slot — across iterations, runs and
  processes — and re-checks hit warm encodings.
* **Canonical merge.**  Results are merged back by submission sequence.
  Every engine produces canonical, history-independent results (see
  :mod:`repro.formal.bmc`), and the whole
  :class:`~repro.formal.result.CheckResult` crosses the pipe, including
  ``proof_strength``, so the merged batch is identical to the serial
  engine's for any worker count.

Supervision is the shared pool's: a worker that dies (crash, OOM kill,
SIGKILL) or wedges (no answer by the shard deadline) is respawned and
its unanswered shard resent verbatim, within a per-slot
:class:`~repro.supervise.RestartBudget`; once a slot's budget is
exhausted, its shards are checked on an in-process fallback engine
instead.  Either way the batch is field-for-field identical to a
fault-free run.  Only *deterministic* failures — the engine raising, or
failing to build — propagate as
:class:`~repro.formal.result.FormalEngineError`: respawning cannot fix
those, and masking them would hide real bugs.
"""

from __future__ import annotations

from typing import Mapping, Sequence

from repro import chaos
from repro.assertions.assertion import Assertion
from repro.formal.proofcache import assertion_shard
from repro.formal.result import CheckResult, FormalEngineError
from repro.hdl.module import Module
from repro.supervise import (
    DEFAULT_BACKOFF_SECONDS,
    DEFAULT_MAX_RESTARTS,
    RestartBudget,
    SupervisedPool,
)

#: Ceiling on a stats round trip (a wedged worker must not hang
#: ``close()``'s final telemetry read).
_STATS_TIMEOUT_SECONDS = 5.0
#: Extra slack on top of ``len(shard) * query_timeout`` when the wedge
#: deadline is derived from the per-query budget.
_WEDGE_SLACK_SECONDS = 30.0
#: The request asking a worker for its engine's reuse counters.
_STATS = "stats"


def _engine_handler(module: Module, engine_name: str, engine_kwargs: dict):
    """Worker setup: build the engine once, then answer shards and stats."""
    from repro.formal.checker import build_engine

    engine = build_engine(module, engine_name, **engine_kwargs)

    def handle(request):
        if request == _STATS:
            reuse_stats = getattr(engine, "reuse_stats", None)
            return reuse_stats() if reuse_stats else {}
        return [(sequence, engine.check(assertion))
                for sequence, assertion in request]

    return handle


class FormalWorkerPool(SupervisedPool):
    """A supervised pool of persistent model-checking workers for one design.

    ``max_restarts``/``restart_backoff`` bound the per-slot restart
    budget; ``wedge_timeout`` is the no-answer deadline per shard after
    which a silent worker is declared wedged and killed.  ``None`` (the
    default) derives the deadline from the engine's ``query_timeout``
    when one is configured — ``len(shard) * query_timeout`` plus slack —
    and otherwise disables wedge detection (an unbounded query cannot be
    told apart from a slow one without a budget).
    """

    name = "formal-worker"

    def __init__(self, module: Module, engine_name: str,
                 engine_kwargs: Mapping | None = None, workers: int = 2,
                 max_restarts: int = DEFAULT_MAX_RESTARTS,
                 restart_backoff: float = DEFAULT_BACKOFF_SECONDS,
                 wedge_timeout: float | None = None):
        super().__init__(workers)
        self.module = module
        self.engine_name = engine_name
        self.engine_kwargs = dict(engine_kwargs or {})
        self.max_restarts = max_restarts
        self.restart_backoff = restart_backoff
        self.wedge_timeout = wedge_timeout
        self.batches = 0
        self.dispatched = 0
        # Supervision telemetry (operational; deterministic artifacts
        # strip formal_reuse).  ``restarts`` lives on the base pool.
        self.wedge_kills = 0
        self.fallback_checks = 0
        self._fallback = None
        #: Answers of the round in flight: results by sequence for a
        #: batch, reuse counters by slot for a stats round.
        self._answers: dict = {}

    def ensure_started(self) -> None:
        """Spawn the worker processes (idempotent; restarts after close)."""
        if self.started:
            return
        plan = chaos.active_plan()
        if plan is not None:
            if plan.timeout is not None:
                self.wedge_timeout = plan.timeout
            if plan.max_restarts is not None:
                self.max_restarts = plan.max_restarts
            if plan.backoff is not None:
                self.restart_backoff = plan.backoff
        self._budget = RestartBudget(self.max_restarts, self.restart_backoff)
        for index in range(self.workers):
            self._spawn(index, plan.take_fault(index) if plan else None)

    def _worker_setup(self):
        return _engine_handler, (self.module, self.engine_name,
                                 self.engine_kwargs)

    # ------------------------------------------------------------------
    def check_batch(self, indexed: Sequence[tuple[int, Assertion]]
                    ) -> dict[int, CheckResult]:
        """Check a batch of (sequence, assertion) pairs; results by sequence.

        Sharding is a pure function of each assertion's canonical form,
        so the partition — and with canonical engines, every result — is
        independent of scheduling.  One round trip per participating
        worker per batch keeps IPC overhead at O(workers + assertions).
        """
        if not indexed:
            return {}
        self.ensure_started()
        shards: dict[int, list[tuple[int, Assertion]]] = {}
        for sequence, assertion in indexed:
            shards.setdefault(assertion_shard(assertion, self.workers),
                              []).append((sequence, assertion))
        self.batches += 1
        self.dispatched += len(indexed)
        self._answers = results = {}
        for worker in sorted(shards):
            self._submit_shard(worker, shards[worker])
        while self._busy():
            self._poll()
        return results

    def _submit_shard(self, worker: int, shard: list) -> None:
        if self.wedge_timeout is not None:
            timeout = self.wedge_timeout
        elif self.engine_kwargs.get("query_timeout"):
            timeout = (len(shard) * self.engine_kwargs["query_timeout"]
                       + _WEDGE_SLACK_SECONDS)
        else:
            timeout = None
        self._submit(worker, shard, shard, timeout=timeout)

    def _on_reply(self, worker: int, task, reply) -> None:
        kind, payload = reply
        if kind != "ok":
            # A deterministic failure inside the engine.  Other workers
            # of this round may still answer; tear the pool down so a
            # retry starts on clean pipes instead of merging stale
            # results by sequence id.
            self.close()
            raise FormalEngineError(f"formal worker {worker} failed:\n{payload}")
        if task == _STATS:
            self._answers[worker] = payload
        else:
            self._answers.update(payload)

    def _on_fault(self, worker: int, task, kind: str, detail: dict) -> None:
        if task == _STATS:
            self.close()
            raise FormalEngineError(
                f"formal worker {worker} did not answer a stats request "
                f"({kind}: {detail})")
        if kind == "deadline":
            self.wedge_kills += 1
        if self._respawn(worker):
            self._submit_shard(worker, task)
            return
        # Restart budget exhausted: the in-process degradation tier.
        if self._fallback is None:
            from repro.formal.checker import build_engine

            self._fallback = build_engine(self.module, self.engine_name,
                                          **self.engine_kwargs)
        for sequence, assertion in task:
            self._answers[sequence] = self._fallback.check(assertion)
        self.fallback_checks += len(task)

    # ------------------------------------------------------------------
    def reuse_stats(self) -> dict[str, int]:
        """Engine reuse counters summed over every worker, plus pool totals.

        Whatever int-valued counters the engine reports — including the
        SAT core's ``sat_*`` instrumentation — merge by summation, so the
        result reads as cluster-wide totals.  Dead workers are skipped
        (their counters died with them); the in-process fallback engine,
        when it ever ran, contributes its counters too.  The supervision
        totals ride along under ``worker_*``/``fallback_*`` keys.
        """
        self._answers = {}
        for worker, slot in enumerate(self._slots):
            if slot is not None and slot.process.is_alive():
                self._submit(worker, _STATS, _STATS,
                             timeout=_STATS_TIMEOUT_SECONDS)
        while self._busy():
            self._poll()
        sources = [self._answers[worker] for worker in sorted(self._answers)]
        fallback_stats = getattr(self._fallback, "reuse_stats", None)
        if fallback_stats is not None:
            sources.append(fallback_stats())
        merged: dict[str, int] = {}
        for payload in sources:
            for key, value in payload.items():
                merged[key] = merged.get(key, 0) + int(value)
        merged["formal_workers"] = self.workers
        merged["dispatched"] = self.dispatched
        merged["dispatch_batches"] = self.batches
        merged["worker_restarts"] = self.restarts
        merged["worker_wedge_kills"] = self.wedge_kills
        merged["fallback_checks"] = self.fallback_checks
        return merged

    def __enter__(self) -> "FormalWorkerPool":
        self.ensure_started()
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()
