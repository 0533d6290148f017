"""Deterministic fault injection for the supervised worker pools.

Supervision earns its keep on the bad day — a worker SIGKILLed mid-task,
a worker wedged in a query, a job ballooning past its memory budget, a
cache or checkpoint file damaged on disk.  This module makes those days
*reproducible*: a :class:`FaultPlan` is a seeded or pinned schedule of
:class:`Fault` entries that :class:`repro.supervise.SupervisedPool` users
consult behind a test-only hook, plus file-corruption helpers.

A plan's faults are keyed by an integer whose meaning belongs to the
pool that consumes the plan: the formal pool
(:class:`repro.formal.parallel.FormalWorkerPool`) keys them by **worker
slot** and delivers each on that slot's ``after_messages + 1``-th
request; the job runner (:func:`repro.runner.pool.execute_jobs`) keys
them by **job index** (position in the run's pending list) and delivers
each on that job's first attempt.

Fault kinds, suffered by the worker *instead of* answering:

* ``kill`` — a real SIGKILL: no cleanup hooks, a negative exitcode and an
  unanswered request, exactly what the OOM killer or ``kill -9`` leaves.
* ``wedge`` — ignore SIGTERM and spin silently; only the supervisor's
  deadline (terminate→kill escalation) brings the worker down.
* ``oom`` — balloon the resident set by ``balloon_mb`` and then spin, so
  a configured memory budget's kill-and-degrade path fires.

Design rules:

* **Deterministic.**  A plan is written out fault-by-fault or derived
  from a seed via :meth:`FaultPlan.seeded`; nothing samples wall clock
  or global RNG state, so re-running a schedule replays it exactly.
* **Once-only.**  A fault is *popped* from the plan when it is handed to
  a worker, so the supervised retry or respawned worker always runs
  clean — the recover-from-a-transient-fault scenario supervision is for.
* **Invisible when uninstalled.**  Pools consult :func:`active_plan` once
  per start; with no plan installed (always, in production) the hook is
  a single module lookup.

The invariant every schedule must preserve — asserted by
``tests/formal/test_chaos.py`` and ``tests/runner/test_runner_chaos.py``
— is that the recovered run's artifact is byte-identical to the
fault-free run's and no orphan worker processes survive.
"""

from __future__ import annotations

import os
import random
from contextlib import contextmanager
from dataclasses import dataclass, field
from pathlib import Path

FAULT_KILL = "kill"
FAULT_WEDGE = "wedge"
FAULT_OOM = "oom"

_KINDS = (FAULT_KILL, FAULT_WEDGE, FAULT_OOM)

#: Default resident-set balloon of an ``oom`` fault, comfortably above
#: the memory budgets the chaos batteries configure (tens of MB).
DEFAULT_BALLOON_MB = 192
#: Deadline a plan arms when it schedules a wedge and names no timeout:
#: a wedged worker only ever comes down through a deadline.
WEDGE_TIMEOUT_SECONDS = 1.0


@dataclass(frozen=True)
class Fault:
    """One scheduled fault: the worker serves ``after_messages`` requests
    normally, then suffers ``kind`` instead of answering the next one."""

    kind: str
    after_messages: int = 0
    balloon_mb: int = DEFAULT_BALLOON_MB

    def __post_init__(self) -> None:
        if self.kind not in _KINDS:
            raise ValueError(f"unknown fault kind '{self.kind}'")
        if self.after_messages < 0:
            raise ValueError("after_messages must be >= 0")
        if self.balloon_mb < 1:
            raise ValueError("balloon_mb must be >= 1")

    def fires(self, sent_messages: int) -> bool:
        """True when the ``sent_messages``-th request triggers the fault."""
        return sent_messages > self.after_messages


@dataclass
class FaultPlan:
    """A pinned schedule of faults plus supervision overrides.

    The overrides replace the consuming pool's own setting when not
    ``None``; their defaults keep chaos batteries in test time while
    exercising the code paths production settings would:

    * ``timeout`` — seconds a worker may hold one request before it is
      killed (the formal pool's ``wedge_timeout``, the runner's
      ``job_timeout``);
    * ``max_restarts`` — the formal pool's per-slot restart budget, the
      runner's per-job ``retry_budget``;
    * ``backoff`` — base of the exponential delay before a retry;
    * ``memory_budget_mb`` — the runner's RSS-growth watchdog budget.
    """

    faults: dict[int, Fault] = field(default_factory=dict)
    timeout: float | None = None
    max_restarts: int | None = None
    backoff: float | None = 0.01
    memory_budget_mb: float | None = None

    def __post_init__(self) -> None:
        if self.timeout is None and any(fault.kind == FAULT_WEDGE
                                        for fault in self.faults.values()):
            self.timeout = WEDGE_TIMEOUT_SECONDS

    @classmethod
    def seeded(cls, seed: int, slots: int, faults: int = 1,
               kinds: tuple[str, ...] = (FAULT_KILL, FAULT_WEDGE),
               max_after: int = 2) -> "FaultPlan":
        """Derive a reproducible plan from ``seed`` over keys ``range(slots)``.

        Picks ``faults`` distinct keys and gives each a fault of a seeded
        kind at a seeded message index in ``[0, max_after]`` (job-keyed
        plans fire on the job's first attempt whatever the index).  Same
        seed, same plan — always.  ``oom`` is not a default kind because it
        only fires observably under a memory budget.
        """
        rng = random.Random(seed)
        count = max(0, min(faults, slots))
        keys = rng.sample(range(slots), count)
        return cls(faults={
            key: Fault(kind=rng.choice(list(kinds)),
                       after_messages=rng.randint(0, max_after))
            for key in sorted(keys)
        })

    def take_fault(self, key: int) -> Fault | None:
        """Pop the fault scheduled for ``key`` (once-only)."""
        return self.faults.pop(key, None)

    @property
    def exhausted(self) -> bool:
        """True once every scheduled fault has been handed to a worker."""
        return not self.faults


# ----------------------------------------------------------------------
# the test-only installation hook the pools consult
# ----------------------------------------------------------------------
_active_plan: FaultPlan | None = None


def install(plan: FaultPlan) -> None:
    """Arm ``plan`` for the next pool start in this process (test-only)."""
    global _active_plan
    _active_plan = plan


def uninstall() -> None:
    global _active_plan
    _active_plan = None


def active_plan() -> FaultPlan | None:
    return _active_plan


@contextmanager
def injected(plan: FaultPlan):
    """``with chaos.injected(plan):`` — install for the block, always clean up."""
    install(plan)
    try:
        yield plan
    finally:
        uninstall()


# ----------------------------------------------------------------------
# worker-side fault execution (runs inside worker processes)
# ----------------------------------------------------------------------
def _spin_until_orphaned(max_seconds: float = 60.0) -> None:  # pragma: no cover
    """Ignore SIGTERM and spin; exit if the parent dies or time runs out.

    The SIGTERM ignore forces the supervisor's kill() escalation, and the
    parent-liveness check guarantees a wedged worker never outlives the
    test that injected it.  ``max_seconds`` bounds a schedule that wedges
    without any deadline: the worker then dies on its own, which the
    supervisor handles like a kill.
    """
    import multiprocessing
    import signal
    import time

    try:
        signal.signal(signal.SIGTERM, signal.SIG_IGN)
    except (ValueError, OSError):
        pass
    parent = multiprocessing.parent_process()
    deadline = time.monotonic() + max_seconds
    while ((parent is None or parent.is_alive())
           and time.monotonic() < deadline):
        time.sleep(0.05)
    os._exit(173)


def suffer(fault: Fault) -> None:  # pragma: no cover - dies/spins
    """Execute ``fault`` inside a worker process.  Does not return."""
    if fault.kind == FAULT_KILL:
        import signal

        os.kill(os.getpid(), signal.SIGKILL)
    if fault.kind == FAULT_OOM:
        # Unique written pages: an untouched or repeating buffer can be
        # elided by lazy mapping or same-page merging.  Hold them while
        # spinning so the parent's RSS probe sees the pressure.
        hog = [os.urandom(1 << 20) for _ in range(fault.balloon_mb)]
        assert hog
    _spin_until_orphaned()


# ----------------------------------------------------------------------
# file-corruption helpers (proof cache / checkpoint batteries)
# ----------------------------------------------------------------------
def truncate_file(path: str | os.PathLike, keep_ratio: float = 0.5) -> None:
    """Chop a file mid-byte, like a crashed writer or a full disk."""
    target = Path(path)
    data = target.read_bytes()
    target.write_bytes(data[: int(len(data) * keep_ratio)])


def garble_file(path: str | os.PathLike, seed: int = 0,
                flips: int = 32) -> None:
    """Deterministically flip bytes across a file (bit-rot stand-in)."""
    target = Path(path)
    data = bytearray(target.read_bytes())
    if not data:
        return
    rng = random.Random(seed)
    for _ in range(flips):
        position = rng.randrange(len(data))
        data[position] ^= 0xFF
    target.write_bytes(bytes(data))


def corrupt_jsonl_line(path: str | os.PathLike, line_index: int,
                       replacement: str = '{"job_id": broke') -> int:
    """Replace one line of a JSONL file with undecodable text.

    Returns the number of lines the file holds; ``line_index`` is clamped
    into range so schedules stay valid as logs grow.
    """
    target = Path(path)
    lines = target.read_text(encoding="utf-8").splitlines()
    if not lines:
        return 0
    index = max(0, min(line_index, len(lines) - 1))
    lines[index] = replacement
    target.write_text("\n".join(lines) + "\n", encoding="utf-8")
    return len(lines)
