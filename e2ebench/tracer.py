"""Layer-boundary tracing for the end-to-end benchmark.

The tracer wraps the public entry points of each layer of ``repro`` from
the outside (nothing under ``src/`` knows about it).  Every wrapped call
becomes a span with a name, a start, an end and its parent span; spans
are kept in memory and reduced to per-layer self time and counts when the
traced run ends.  Counts are read from the public objects the wrapped
calls return (``ClosureResult``, ``CheckResult`` lists, ``Trace``
lengths, runner records), never from inside a layer.

Only layer-boundary calls are wrapped -- never per-step or per-cycle
functions -- so the overhead stays a small share of the traced run;
``trace.overhead_s`` reports it.  :meth:`Tracer.uninstall` restores every
original attribute, and :meth:`Tracer.leaks` lists any that are not, so
untraced timing never pays for a wrapper.
"""

from __future__ import annotations

import contextlib
import functools
import importlib
import statistics
import sys
import time
import weakref
from collections import defaultdict
from typing import Callable

#: Layer prefixes whose self time is reported as ``<layer>.self_s``.
LAYERS = ("hdl", "sim", "coverage", "mining", "formal", "faults", "core", "runner")


# ----------------------------------------------------------------------
# count hooks: (tracer, receiver, args, kwargs, result, token) -> None
# ----------------------------------------------------------------------
def _count_synth(tracer, receiver, args, kwargs, result, token):
    tracer.counts["hdl.synth_calls"] += 1


def _count_sim(tracer, receiver, args, kwargs, result, token):
    traces = result if isinstance(result, list) else [result]
    tracer.counts["sim.calls"] += 1
    tracer.counts["sim.cycles"] += sum(len(trace) for trace in traces)


def _coverage_enter(receiver, args, kwargs):
    return receiver.cycles_run


def _count_coverage(tracer, receiver, args, kwargs, result, token):
    tracer.counts["coverage.cycles"] += receiver.cycles_run - token


def _count_rows(tracer, receiver, args, kwargs, result, token):
    tracer.counts["mining.rows"] += int(result)


def _count_check_all(tracer, receiver, args, kwargs, result, token):
    counts = tracer.counts
    counts["formal.batches"] += 1
    counts["formal.checks"] += len(result)
    for check in result:
        verdict = check.verdict.name.lower()
        counts[f"formal.{verdict}"] += 1
        if check.proof_strength == "unbounded":
            counts["formal.unbounded_proofs"] += 1
    if not tracer.inside("faults.campaign"):
        # Candidates the miner handed to the verifier; the campaign's
        # re-checks of a finished suite are not mining output.
        counts["mining.candidates"] += len(result)


def _count_explicit(tracer, receiver, args, kwargs, result, token):
    tracer.counts["formal.explicit.checks"] += 1


def _count_explore(tracer, receiver, args, kwargs, result, token):
    # ``explore`` is called once per check and caches its answer; count
    # each state space's reachable states once.  State spaces are
    # unhashable dataclasses, so they are tracked by weak identity.
    seen = tracer.explored.get(id(receiver))
    if seen is None or seen() is not receiver:
        tracer.explored[id(receiver)] = weakref.ref(receiver)
        tracer.counts["formal.explicit.states"] += len(result)


def _count_flush(tracer, receiver, args, kwargs, result, token):
    tracer.counts["formal.proofcache.flushes"] += 1


def _count_inject(tracer, receiver, args, kwargs, result, token):
    tracer.counts["faults.mutants"] += 1


#: ``ClosureResult.formal_reuse`` key -> per-layer count it feeds.
REUSE_COUNTERS = {
    "sat_solves": "formal.sat.solves",
    "sat_conflicts": "formal.sat.conflicts",
    "sat_propagations": "formal.sat.propagations",
    "sat_decisions": "formal.sat.decisions",
    "encoded_variables": "formal.sat.encoded_variables",
    "induction_step_queries": "formal.sat.induction_step_queries",
    "proof_cache_hits": "formal.proofcache.hits",
}


def _count_closure(tracer, receiver, args, kwargs, result, token):
    counts = tracer.counts
    counts["core.closures"] += 1
    counts["core.iterations"] += result.iteration_count
    counts["core.counterexamples"] += sum(record.counterexamples
                                          for record in result.iterations)
    reuse = result.formal_reuse
    for key, metric in REUSE_COUNTERS.items():
        counts[metric] += int(reuse.get(key, 0))
    counts["formal.proofcache.lookups"] += int(reuse.get("proof_cache_hits", 0)) + \
        int(reuse.get("proof_cache_misses", 0))


def _count_execute(tracer, receiver, args, kwargs, result, token):
    counts = tracer.counts
    seconds = [float(record.get("seconds", 0.0)) for record in result.values()]
    counts["runner.jobs"] += len(result)
    tracer.job_seconds.extend(seconds)
    stats = kwargs.get("stats") or {}
    counts["runner.worker_restarts"] += int(stats.get("worker_restarts", 0))
    workers = kwargs.get("workers", args[2] if len(args) > 2 else 1)
    tracer.pool_runs.append((sum(seconds), max(1, int(workers))))


def _count_append(tracer, receiver, args, kwargs, result, token):
    tracer.counts["runner.checkpoint_appends"] += 1


#: (module, attribute path, span name, enter hook, count hook, required).
#: ``required`` targets are the layer boundaries ``METRICS.md`` names and
#: are reported when missing; optional ones cover engines a later change
#: may make the default (batched simulation, columnar mining) and are
#: skipped when absent.
TARGETS = (
    ("repro.designs", "DesignInfo.build", "hdl.build", None, None, True),
    ("repro.hdl.synth", "synthesize", "hdl.synth", None, _count_synth, True),
    ("repro.sim.simulator", "Simulator.run", "sim.run", None, _count_sim, True),
    ("repro.sim.simulator", "Simulator.run_vectors", "sim.run", None, _count_sim, True),
    ("repro.sim.batched", "BatchedSimulator.run_batch", "sim.run", None, _count_sim, False),
    ("repro.coverage.runner", "CoverageRunner.run_stimulus", "coverage.run",
     _coverage_enter, _count_coverage, True),
    ("repro.coverage.runner", "CoverageRunner.run_vectors", "coverage.run",
     _coverage_enter, _count_coverage, True),
    ("repro.coverage.runner", "CoverageRunner.run_suite", "coverage.run",
     _coverage_enter, _count_coverage, True),
    ("repro.mining.dataset", "MiningDataset.add_trace", "mining.ingest", None, _count_rows, True),
    ("repro.mining.dataset", "MiningDataset.add_traces", "mining.ingest", None, _count_rows, True),
    ("repro.mining.columnar", "ColumnarDataset.add_trace", "mining.ingest",
     None, _count_rows, False),
    ("repro.mining.columnar", "ColumnarDataset.add_traces", "mining.ingest",
     None, _count_rows, False),
    ("repro.mining.decision_tree", "DecisionTree.build", "mining.build", None, None, True),
    ("repro.mining.incremental_tree", "IncrementalDecisionTree.build", "mining.build",
     None, None, True),
    ("repro.mining.columnar", "ColumnarDecisionTree.build", "mining.build", None, None, False),
    ("repro.mining.columnar", "ColumnarIncrementalDecisionTree.build", "mining.build",
     None, None, False),
    ("repro.mining.incremental_tree", "IncrementalDecisionTree.add_trace", "mining.refine",
     None, None, True),
    ("repro.mining.columnar", "ColumnarIncrementalDecisionTree.add_trace", "mining.refine",
     None, None, False),
    ("repro.formal.checker", "FormalVerifier.check_all", "formal.check_all",
     None, _count_check_all, True),
    ("repro.formal.explicit", "ExplicitModelChecker.check", "formal.explicit.check",
     None, _count_explicit, True),
    ("repro.formal.statespace", "StateSpace.explore", "formal.explicit.explore",
     None, _count_explore, True),
    ("repro.formal.bmc", "BmcModelChecker.check", "formal.sat.check", None, None, True),
    ("repro.formal.induction", "KInductionModelChecker.check", "formal.sat.check",
     None, None, True),
    ("repro.formal.proofcache", "ProofCache.flush", "formal.proofcache.flush",
     None, _count_flush, True),
    ("repro.faults.mutation", "inject_fault", "faults.inject", None, _count_inject, True),
    ("repro.faults.regression", "run_fault_campaign", "faults.campaign", None, None, True),
    ("repro.core.refinement", "CoverageClosure.run", "core.closure", None, _count_closure, True),
    ("repro.runner.pool", "execute_jobs", "runner.execute", None, _count_execute, True),
    ("repro.runner.checkpoint", "RunCheckpoint.append", "runner.checkpoint",
     None, _count_append, True),
)


class Tracer:
    """In-memory span recorder plus the wrappers that feed it."""

    def __init__(self):
        #: One entry per span: [name, start, end, parent index or -1].
        self.spans: list[list] = []
        self.counts: dict[str, float] = defaultdict(float)
        #: Runner job seconds, and (summed job seconds, workers) per
        #: ``execute_jobs`` call, matched to its span at reduction time.
        self.job_seconds: list[float] = []
        self.pool_runs: list[tuple[float, int]] = []
        self.explored: dict[int, weakref.ref] = {}
        #: Targets that could not be wrapped: (target, reason).
        self.missing: list[tuple[str, str]] = []
        self._stack: list[int] = []
        self._open: dict[str, int] = defaultdict(int)
        self._patches: list[tuple[object, str, object]] = []

    # ------------------------------------------------------------------
    # spans
    # ------------------------------------------------------------------
    def inside(self, name: str) -> bool:
        return self._open[name] > 0

    def _begin(self, name: str) -> None:
        parent = self._stack[-1] if self._stack else -1
        self._stack.append(len(self.spans))
        self.spans.append([name, time.perf_counter(), 0.0, parent])
        self._open[name] += 1

    def _end(self) -> None:
        span = self.spans[self._stack.pop()]
        span[2] = time.perf_counter()
        self._open[span[0]] -= 1

    @contextlib.contextmanager
    def span(self, name: str):
        """Record a benchmark-level span around a block."""
        self._begin(name)
        try:
            yield
        finally:
            self._end()

    # ------------------------------------------------------------------
    # wrapping
    # ------------------------------------------------------------------
    def install(self) -> None:
        for module_name, path, span_name, enter, count, required in TARGETS:
            try:
                module = importlib.import_module(module_name)
                owner = module
                *owners, attr = path.split(".")
                for part in owners:
                    owner = getattr(owner, part)
                original = vars(owner)[attr]
            except (ImportError, AttributeError, KeyError) as exc:
                if required:
                    self.missing.append((f"{module_name}.{path}",
                                         f"{type(exc).__name__}: {exc}"))
                continue
            wrapper = self._wrap(original, span_name, enter, count, bool(owners))
            if owners:
                self._patch(owner, attr, wrapper)
            else:
                # A module-level function is also bound by name in every
                # module that imported it; rebind each of those too.
                for loaded in list(sys.modules.values()):
                    if getattr(loaded, "__name__", "").startswith("repro") and \
                            getattr(loaded, attr, None) is original:
                        self._patch(loaded, attr, wrapper)

    def _patch(self, owner, attr: str, wrapper) -> None:
        self._patches.append((owner, attr, vars(owner)[attr]))
        setattr(owner, attr, wrapper)

    def uninstall(self) -> None:
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)

    def leaks(self) -> list[str]:
        """Names of wrapped attributes still installed anywhere."""
        leaked = []
        for loaded in list(sys.modules.values()):
            if not getattr(loaded, "__name__", "").startswith("repro"):
                continue
            for name, value in list(vars(loaded).items()):
                if getattr(value, "__e2ebench_wrapper__", False):
                    leaked.append(f"{loaded.__name__}.{name}")
                if isinstance(value, type):
                    for attr, member in value.__dict__.items():
                        if getattr(member, "__e2ebench_wrapper__", False):
                            leaked.append(f"{loaded.__name__}.{name}.{attr}")
        return sorted(set(leaked))

    def _wrap(self, original: Callable, span_name: str, enter, count, is_method: bool):
        tracer = self

        @functools.wraps(original)
        def wrapper(*args, **kwargs):
            outermost = not tracer.inside(span_name)
            receiver = args[0] if is_method and args else None
            call_args = args[1:] if is_method else args
            token = enter(receiver, call_args, kwargs) if enter and outermost else None
            tracer._begin(span_name)
            try:
                result = original(*args, **kwargs)
            finally:
                tracer._end()
            if count is not None and outermost:
                count(tracer, receiver, call_args, kwargs, result, token)
            return result

        wrapper.__e2ebench_wrapper__ = True
        return wrapper

    # ------------------------------------------------------------------
    # reduction
    # ------------------------------------------------------------------
    def reduce(self, work_spans: tuple[str, ...] = ("bench.work", "bench.replay")) -> dict:
        """Per-layer metrics from the recorded spans and counts."""
        spans = self.spans
        child_time = [0.0] * len(spans)
        for name, start, end, parent in spans:
            if parent >= 0:
                child_time[parent] += end - start
        # Parents are recorded before their children, so one forward pass
        # marks every span that ran inside a measured work region.
        in_work = [False] * len(spans)
        self_time: dict[str, float] = defaultdict(float)
        busy: dict[str, float] = defaultdict(float)
        for index, (name, start, end, parent) in enumerate(spans):
            in_work[index] = name in work_spans or (parent >= 0 and in_work[parent])
            if in_work[index]:
                self_time[name.split(".")[0]] += (end - start) - child_time[index]
            if not self._has_ancestor(index, name):
                busy[name] += end - start

        metrics: dict[str, float] = dict(self.counts)
        for layer in LAYERS:
            metrics[f"{layer}.self_s"] = self_time.get(layer, 0.0)
        metrics["hdl.build_s"] = busy.get("hdl.build", 0.0)
        metrics["hdl.synth_s"] = busy.get("hdl.synth", 0.0)
        metrics["sim.busy_s"] = busy.get("sim.run", 0.0)
        metrics["coverage.busy_s"] = busy.get("coverage.run", 0.0)
        metrics["mining.ingest_s"] = busy.get("mining.ingest", 0.0)
        metrics["mining.build_s"] = busy.get("mining.build", 0.0)
        metrics["mining.refine_s"] = busy.get("mining.refine", 0.0)
        metrics["formal.busy_s"] = busy.get("formal.check_all", 0.0)
        metrics["formal.explicit.check_s"] = busy.get("formal.explicit.check", 0.0)
        metrics["formal.explicit.explore_s"] = busy.get("formal.explicit.explore", 0.0)
        metrics["formal.sat.check_s"] = busy.get("formal.sat.check", 0.0)
        metrics["formal.proofcache.flush_s"] = busy.get("formal.proofcache.flush", 0.0)
        metrics["faults.inject_s"] = busy.get("faults.inject", 0.0)
        metrics["runner.checkpoint_s"] = busy.get("runner.checkpoint", 0.0)

        checks = metrics.get("formal.checks", 0.0)
        metrics["formal.s_per_check"] = metrics["formal.busy_s"] / checks if checks else 0.0
        sim_busy = metrics["sim.busy_s"]
        metrics["sim.cycles_per_s"] = metrics.get("sim.cycles", 0.0) / sim_busy \
            if sim_busy else 0.0
        lookups = metrics.get("formal.proofcache.lookups", 0.0)
        metrics["formal.proofcache.hit_ratio"] = \
            metrics.get("formal.proofcache.hits", 0.0) / lookups if lookups else 0.0

        mutants = self._mutant_seconds()
        metrics["faults.mutant_p50_s"] = statistics.median(mutants) if mutants else 0.0
        metrics["faults.mutant_tail_s"] = max(mutants) if mutants else 0.0
        jobs = self.job_seconds
        metrics["runner.job_p50_s"] = statistics.median(jobs) if jobs else 0.0
        metrics["runner.job_tail_s"] = max(jobs) if jobs else 0.0
        executes = [end - start for name, start, end, _ in spans if name == "runner.execute"]
        metrics["runner.pool_overhead_s"] = sum(
            wall - job_seconds / workers
            for wall, (job_seconds, workers) in zip(executes, self.pool_runs))

        work = sum(end - start for name, start, end, _ in spans if name in work_spans)
        covered = sum(self_time.get(layer, 0.0) for layer in LAYERS)
        metrics["trace.work_s"] = work
        metrics["trace.covered_ratio"] = covered / work if work else 0.0
        return metrics

    def _has_ancestor(self, index: int, name: str) -> bool:
        parent = self.spans[index][3]
        while parent >= 0:
            if self.spans[parent][0] == name:
                return True
            parent = self.spans[parent][3]
        return False

    def _mutant_seconds(self) -> list[float]:
        """Per-mutant wall time inside each fault campaign.

        A mutant's cost runs from its ``inject_fault`` call to the next
        one (or to the campaign's end): injection plus the model checking
        of the whole suite against it.
        """
        seconds: list[float] = []
        for index, (name, start, end, _) in enumerate(self.spans):
            if name != "faults.campaign":
                continue
            starts = sorted(s for n, s, _, parent in self.spans
                            if n == "faults.inject" and parent == index)
            for position, begin in enumerate(starts):
                finish = starts[position + 1] if position + 1 < len(starts) else end
                seconds.append(finish - begin)
        return seconds

