"""Process supervision and durability shared by every layer.

:class:`SupervisedPool` is the one supervised worker pool in the code
base.  The formal layer (:class:`repro.formal.parallel.FormalWorkerPool`,
content-hashed shards pinned to slots, warm engines, in-process fallback)
and the experiment runner (:class:`repro.runner.pool.SupervisedJobPool`,
jobs to any free slot, quarantine and degraded retries) are thin
subclasses that supply what the worker serves and what to do with each
answer or fault.  The pool owns everything else:

* **Workers** — one daemon process per slot running :func:`_worker_main`
  (the only worker loop), talking to the parent over a ``multiprocessing``
  Pipe.  Daemon workers keep ``FormalVerifier._can_spawn_workers`` from
  nesting pools, and each worker exits on its own once its parent is
  gone, so even ``os._exit``/SIGKILL of the parent strands nothing.
* **Detection** — :meth:`SupervisedPool._poll` blocks in
  ``multiprocessing.connection.wait`` on the busy slots' pipes and
  process sentinels until the nearest deadline.  An answer is read
  before death is considered, so a worker that answered and then died is
  credited once.  A dead worker (crash, OOM kill, SIGKILL), one past its
  request deadline, or one whose resident set grew past the memory
  budget is reported to the subclass as a ``crash``/``deadline``/
  ``memory`` fault.
* **Respawn** — :meth:`SupervisedPool._respawn` replaces a slot's worker
  on a fresh pipe after the :class:`RestartBudget` backoff, or reports
  the budget exhausted so the caller can degrade.
* **Shutdown** — :meth:`SupervisedPool.close` asks every worker to stop,
  then escalates with :func:`stop_process`; a ``weakref.finalize`` on the
  live-process list (:func:`reap_processes`) sweeps workers of a pool
  that was never closed.

Fault injection (:mod:`repro.chaos`) rides the same request channel: a
scheduled fault travels with the request the worker must fail on.

The durability half — :func:`durable_write` / :func:`fsync_directory`,
crash-safe whole-file replacement — and :func:`process_rss_bytes`, the
memory probe, are plain functions.

Determinism note: supervision decides only *where* work runs (original
worker, respawned worker, or a degraded retry), never *what* it
computes.  Every payload in this repository is a pure function of its
parameters, so a recovered run is field-for-field identical to a
fault-free one.
"""

from __future__ import annotations

import os
import time
import traceback
import weakref
from pathlib import Path

from repro import chaos


#: Default restart allowance per supervised slot before degrading.
DEFAULT_MAX_RESTARTS = 2
#: Base backoff before the first restart; doubles per restart of a slot.
DEFAULT_BACKOFF_SECONDS = 0.1
#: Backoff is capped so a slot nearing budget exhaustion cannot stall a
#: batch for longer than a couple of seconds.
BACKOFF_CAP_SECONDS = 2.0
#: How long an idle worker waits for a request before checking that its
#: parent is still alive (the self-exit-on-orphan poll).
_PARENT_POLL_SECONDS = 0.5
#: RSS probe cadence while a memory budget is armed.
_RSS_POLL_SECONDS = 0.05


class RestartBudget:
    """Bounded restart allowance with exponential backoff, per slot.

    ``next_delay(slot)`` either charges one restart to the slot and
    returns the delay to sleep before respawning (``backoff * 2**used``,
    capped), or returns ``None`` when the slot's budget is exhausted —
    the caller's signal to stop supervising and degrade gracefully.
    """

    def __init__(self, max_restarts: int = DEFAULT_MAX_RESTARTS,
                 backoff: float = DEFAULT_BACKOFF_SECONDS,
                 cap: float = BACKOFF_CAP_SECONDS):
        if max_restarts < 0:
            raise ValueError("max_restarts must be >= 0")
        if backoff < 0:
            raise ValueError("backoff must be >= 0")
        self.max_restarts = max_restarts
        self.backoff = backoff
        self.cap = cap
        self._used: dict[int, int] = {}

    def next_delay(self, slot: int) -> float | None:
        used = self._used.get(slot, 0)
        if used >= self.max_restarts:
            return None
        self._used[slot] = used + 1
        return min(self.cap, self.backoff * (2 ** used))

    def used(self, slot: int) -> int:
        return self._used.get(slot, 0)

    def exhausted(self, slot: int) -> bool:
        return self._used.get(slot, 0) >= self.max_restarts

    def total_used(self) -> int:
        return sum(self._used.values())


def stop_process(process, grace: float = 1.0) -> int | None:
    """Stop ``process`` with terminate→kill escalation; returns exitcode.

    SIGTERM first and a ``grace`` period to die; a survivor (wedged in
    uninterruptible work, or ignoring SIGTERM outright) is SIGKILLed.
    Safe on already-dead processes.
    """
    try:
        if process.is_alive():
            process.terminate()
            process.join(grace)
        if process.is_alive():
            kill = getattr(process, "kill", process.terminate)
            kill()
            process.join(grace)
    except (ValueError, OSError):  # pragma: no cover - already closed
        pass
    return process.exitcode


def reap_processes(processes: list) -> None:
    """Best-effort sweep of every process still alive in ``processes``.

    Registered via ``weakref.finalize`` on the pool's live-process list;
    runs when the pool is collected *or* at interpreter exit (finalize's
    atexit guarantee), whichever comes first.  Never raises.
    """
    for process in list(processes):
        try:
            if process.is_alive():
                stop_process(process, grace=0.5)
        except Exception:  # noqa: BLE001 - exit-path cleanup must not raise
            pass
    del processes[:]


# ----------------------------------------------------------------------
# the supervised pool
# ----------------------------------------------------------------------
def _worker_main(conn, setup, args) -> None:
    """The worker loop: build a handler, then answer requests until stopped.

    ``setup(*args)`` returns the request handler; a setup failure is
    answered ``("fatal", traceback)``.  Requests arrive as ``(request,
    fault)`` and are answered ``("ok", result)`` or ``("error",
    traceback)``; ``None`` asks the worker to stop.  A scheduled fault is
    suffered instead of answering.  Between requests the worker checks
    that its parent is alive and exits if it is not.
    """
    import multiprocessing

    parent = multiprocessing.parent_process()
    try:
        handle = setup(*args)
    except Exception:  # noqa: BLE001 - reported to the parent
        conn.send(("fatal", traceback.format_exc(limit=8)))
        return
    while True:
        try:
            if not conn.poll(_PARENT_POLL_SECONDS):
                if parent is not None and not parent.is_alive():
                    return
                continue
            message = conn.recv()
        except (EOFError, OSError):
            return
        if message is None:
            return
        request, fault = message
        if fault is not None:
            chaos.suffer(fault)
        try:
            reply = ("ok", handle(request))
        except Exception:  # noqa: BLE001 - reported to the parent
            reply = ("error", traceback.format_exc(limit=8))
        try:
            conn.send(reply)
        except OSError:  # the parent is gone
            return


class _Slot:
    """One supervised worker: process, pipe, and the request it holds."""

    __slots__ = ("process", "conn", "baseline_rss", "fault", "sent", "task",
                 "started_at", "deadline")

    def __init__(self, process, conn, baseline_rss, fault):
        self.process = process
        self.conn = conn
        #: RSS right after spawn: the memory watchdog meters growth over
        #: it, since a forked child's absolute RSS includes every page
        #: inherited from the parent.  ``None`` disables the watchdog.
        self.baseline_rss = baseline_rss
        #: Scheduled fault, delivered with the request it fires on.
        self.fault = fault
        self.sent = 0
        self.task = None
        self.started_at = 0.0
        self.deadline: float | None = None


class SupervisedPool:
    """Per-slot supervised daemon workers; subclasses supply the hooks.

    * ``_worker_setup()`` returns ``(setup, args)``: the worker calls
      ``setup(*args)`` once to build its request handler.
    * ``_on_reply(index, task, reply)`` receives slot ``index``'s answer
      to the request submitted with ``task``.
    * ``_on_fault(index, task, kind, detail)`` receives a ``crash``
      (``detail["exitcode"]``), ``deadline`` or ``memory``
      (``detail["rss_bytes"]``/``["baseline_bytes"]``) fault of a busy
      slot, whose worker is already stopped.

    A subclass may set ``_budget`` to a :class:`RestartBudget` to bound
    :meth:`_respawn` per slot (``None``: unbounded and immediate);
    ``memory_budget_mb`` arms the RSS-growth watchdog.
    """

    name = "worker"

    def __init__(self, workers: int, *, memory_budget_mb: float | None = None):
        import multiprocessing

        if workers < 1:
            raise ValueError("workers must be >= 1")
        self.workers = workers
        self.restarts = 0
        self._budget: RestartBudget | None = None
        self._memory_budget_bytes = (None if memory_budget_mb is None
                                     else memory_budget_mb * (1 << 20))
        # fork where available: workers inherit the parent's elaborated
        # designs, registry and hash seed, so nothing is pickled.
        try:
            self._context = multiprocessing.get_context("fork")
        except ValueError:  # pragma: no cover - Windows
            self._context = multiprocessing.get_context()
        self._slots: list[_Slot | None] = [None] * workers
        #: Stable list the exit finalizer sweeps; it holds this list,
        #: never the pool (which would leak it).
        self._live: list = []
        self._finalizer = weakref.finalize(self, reap_processes, self._live)

    @property
    def started(self) -> bool:
        return any(slot is not None for slot in self._slots)

    def _busy(self) -> list[tuple[int, _Slot]]:
        return [(index, slot) for index, slot in enumerate(self._slots)
                if slot is not None and slot.task is not None]

    # ------------------------------------------------------------------
    def _spawn(self, index: int, fault=None) -> None:
        """Start slot ``index``'s worker on a fresh pipe, replacing any old one.

        A replacement never shares a channel with the worker it replaces,
        so a partial message from a dead worker cannot reach the parent.
        """
        self._forget(index)
        setup, args = self._worker_setup()
        conn, child = self._context.Pipe()
        process = self._context.Process(target=_worker_main,
                                        args=(child, setup, args),
                                        name=f"{self.name}-{index}",
                                        daemon=True)
        process.start()
        child.close()
        self._live.append(process)
        baseline = (process_rss_bytes(process.pid)
                    if self._memory_budget_bytes is not None else None)
        self._slots[index] = _Slot(process, conn, baseline, fault)

    def _respawn(self, index: int) -> bool:
        """Replace slot ``index``'s worker after the budget's backoff.

        Returns ``False``, leaving the slot as it is, once the slot's
        restart budget is exhausted.
        """
        delay = 0.0 if self._budget is None else self._budget.next_delay(index)
        if delay is None:
            return False
        if delay > 0:
            time.sleep(delay)
        self._spawn(index)
        self.restarts += 1
        return True

    def _forget(self, index: int) -> None:
        slot, self._slots[index] = self._slots[index], None
        if slot is None:
            return
        if slot.process in self._live:
            self._live.remove(slot.process)
        slot.conn.close()

    def close(self) -> None:
        """Stop every worker (idempotent): stop request, grace join, escalation."""
        slots = [slot for slot in self._slots if slot is not None]
        for slot in slots:
            try:
                slot.conn.send(None)
            except (OSError, ValueError):
                pass
        for slot in slots:
            slot.process.join(2.0)
            stop_process(slot.process)
        for index in range(self.workers):
            self._forget(index)

    # ------------------------------------------------------------------
    def _submit(self, index: int, task, request, *,
                timeout: float | None = None, fault=None) -> None:
        """Send ``request`` to slot ``index``, which is busy with ``task``
        until it answers, or fails, or ``timeout`` seconds pass."""
        slot = self._slots[index]
        slot.sent += 1
        if fault is None and slot.fault is not None and slot.fault.fires(slot.sent):
            fault, slot.fault = slot.fault, None
        slot.task = task
        slot.started_at = time.monotonic()
        slot.deadline = None if timeout is None else slot.started_at + timeout
        try:
            slot.conn.send((request, fault))
        except (OSError, ValueError):
            pass  # the worker is dead; _poll reports it

    def _poll(self, wake_at: float | None = None) -> None:
        """Wait for the busy slots, then hand every event to the hooks.

        Blocks on every busy slot's pipe and process sentinel until one
        is ready, the nearest request deadline, ``wake_at``, or (with a
        memory budget) the next RSS probe.  An answer is read before the
        worker's death is considered, so an answer-then-die worker is
        credited exactly once.
        """
        from multiprocessing.connection import wait

        busy = self._busy()
        now = time.monotonic()
        wakes = [slot.deadline for _, slot in busy if slot.deadline is not None]
        if wake_at is not None:
            wakes.append(wake_at)
        if busy and self._memory_budget_bytes is not None:
            wakes.append(now + _RSS_POLL_SECONDS)
        if not busy and not wakes:
            return
        timeout = max(0.0, min(wakes) - now) if wakes else None
        ready = set(wait([handle for _, slot in busy
                          for handle in (slot.conn, slot.process.sentinel)],
                         timeout))
        now = time.monotonic()
        for index, slot in busy:
            if slot.conn in ready or slot.process.sentinel in ready:
                try:
                    reply = slot.conn.recv() if slot.conn.poll() else None
                except (EOFError, OSError):
                    reply = None
                if reply is not None:
                    task, slot.task = slot.task, None
                    self._on_reply(index, task, reply)
                else:
                    self._fail(index, slot, "crash",
                               {"exitcode": stop_process(slot.process)})
            elif slot.deadline is not None and now >= slot.deadline:
                stop_process(slot.process)
                self._fail(index, slot, "deadline", {})
            elif self._memory_budget_bytes is not None \
                    and slot.baseline_rss is not None:
                rss = process_rss_bytes(slot.process.pid)
                if (rss is not None and
                        rss - slot.baseline_rss > self._memory_budget_bytes):
                    stop_process(slot.process)
                    self._fail(index, slot, "memory",
                               {"rss_bytes": rss,
                                "baseline_bytes": slot.baseline_rss})

    def _fail(self, index: int, slot: _Slot, kind: str, detail: dict) -> None:
        task, slot.task = slot.task, None
        self._on_fault(index, task, kind, detail)


# ----------------------------------------------------------------------
# memory governance
# ----------------------------------------------------------------------
def process_rss_bytes(pid: int) -> int | None:
    """Resident-set size of process ``pid`` in bytes, or ``None``.

    Reads ``/proc/<pid>/statm`` (field 2 is resident pages), so the
    probe costs one small file read — cheap enough to run on every
    supervision poll.  Returns ``None`` when the process is gone or the
    platform has no procfs; a memory watchdog built on this must treat
    ``None`` as "probe unavailable", never as "zero bytes".
    """
    try:
        with open(f"/proc/{pid}/statm", "rb") as handle:
            fields = handle.read().split()
        return int(fields[1]) * os.sysconf("SC_PAGE_SIZE")
    except (OSError, ValueError, IndexError):
        return None


# ----------------------------------------------------------------------
# durable file replacement
# ----------------------------------------------------------------------
def fsync_directory(directory: str | os.PathLike) -> None:
    """fsync a directory so a just-renamed entry survives power loss.

    ``os.replace`` makes the *content* swap atomic, but the new directory
    entry itself lives in the directory's data blocks — without this
    fsync a crash can roll the rename back, leaving the *old* file (or
    on a fresh create, no file at all).  Best-effort: platforms that
    cannot open or fsync directories simply skip the barrier.
    """
    try:
        fd = os.open(os.fspath(directory), os.O_RDONLY)
    except OSError:  # pragma: no cover - platform without dir-open
        return
    try:
        os.fsync(fd)
    except OSError:  # pragma: no cover - platform without dir-fsync
        pass
    finally:
        os.close(fd)


def durable_write(path: str | os.PathLike, text: str) -> None:
    """Crash-safe whole-file replacement: the reader sees old or new, never less.

    Write to a pid-suffixed tmp in the same directory, flush + fsync the
    tmp (so the *data* is on disk before the rename makes it visible),
    atomically rename over the target, then fsync the directory entry.
    A kill, crash or power loss at any point leaves either the complete
    old file or the complete new file — never a truncated or empty one.
    """
    target = Path(path)
    tmp = target.with_name(f"{target.name}.tmp{os.getpid()}")
    with open(tmp, "w", encoding="utf-8") as handle:
        handle.write(text)
        handle.flush()
        os.fsync(handle.fileno())
    os.replace(tmp, target)
    fsync_directory(target.parent)
