"""End-to-end and per-layer benchmark of the GoldMine closure flow.

Usage (from the repository root)::

    python3 e2ebench/run.py --workload fault-campaign --seed 3 --seconds 25 --trace 0

Each unit of the workload runs in a fresh interpreter (``child.py``);
units repeat until ``--seconds`` is spent.  With ``--trace 0`` the last
line of standard output is a JSON object carrying the end-to-end metrics;
with ``--trace 1`` every unit runs twice, untraced and then traced, and
the JSON carries the per-layer metrics.  The end-to-end times are scaled
to a fixed reference host speed by ``speed.py``'s probe, because the
shared host's own speed swings by up to 2x; the provenance line keeps
them as measured too.  Every job's output digest is
checked against the reference recorded for the workload and seed in
``reference.json`` (when the seed has one), against the same unit's
other runs, and against the traced run.  ``METRICS.md`` maps each
per-layer metric to the end-to-end metric and workloads it should move.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time
from collections import defaultdict
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

import workloads  # noqa: E402 - stdlib-only at import time

#: End-to-end metrics: (name, unit).
END_TO_END = (
    ("wall_s", "s"),
    ("cpu_s", "s"),
    ("setup_s", "s"),
    ("peak_rss_mb", "MB"),
)

#: Per-layer metrics of the traced run: (name, unit, better).
PER_LAYER = (
    ("startup.import_s", "s", "lower"),
    ("hdl.build_s", "s", "lower"),
    ("hdl.synth_s", "s", "lower"),
    ("hdl.synth_calls", "count", "lower"),
    ("hdl.self_s", "s", "lower"),
    ("sim.calls", "count", "lower"),
    ("sim.cycles", "count", "lower"),
    ("sim.busy_s", "s", "lower"),
    ("sim.cycles_per_s", "1/s", "higher"),
    ("sim.self_s", "s", "lower"),
    ("coverage.cycles", "count", "lower"),
    ("coverage.busy_s", "s", "lower"),
    ("coverage.self_s", "s", "lower"),
    ("mining.rows", "count", "lower"),
    ("mining.ingest_s", "s", "lower"),
    ("mining.build_s", "s", "lower"),
    ("mining.refine_s", "s", "lower"),
    ("mining.candidates", "count", "lower"),
    ("mining.self_s", "s", "lower"),
    ("formal.batches", "count", "lower"),
    ("formal.checks", "count", "lower"),
    ("formal.busy_s", "s", "lower"),
    ("formal.s_per_check", "s", "lower"),
    ("formal.true", "count", "higher"),
    ("formal.false", "count", "higher"),
    ("formal.unknown", "count", "lower"),
    ("formal.unbounded_proofs", "count", "higher"),
    ("formal.self_s", "s", "lower"),
    ("formal.explicit.explore_s", "s", "lower"),
    ("formal.explicit.states", "count", "lower"),
    ("formal.explicit.check_s", "s", "lower"),
    ("formal.explicit.checks", "count", "lower"),
    ("formal.sat.check_s", "s", "lower"),
    ("formal.sat.solves", "count", "lower"),
    ("formal.sat.conflicts", "count", "lower"),
    ("formal.sat.propagations", "count", "lower"),
    ("formal.sat.decisions", "count", "lower"),
    ("formal.sat.encoded_variables", "count", "lower"),
    ("formal.sat.induction_step_queries", "count", "lower"),
    ("formal.proofcache.lookups", "count", "lower"),
    ("formal.proofcache.hits", "count", "higher"),
    ("formal.proofcache.hit_ratio", "ratio", "higher"),
    ("formal.proofcache.flushes", "count", "lower"),
    ("formal.proofcache.flush_s", "s", "lower"),
    ("formal.proofcache.file_bytes", "bytes", "lower"),
    ("faults.mutants", "count", "lower"),
    ("faults.inject_s", "s", "lower"),
    ("faults.mutant_p50_s", "s", "lower"),
    ("faults.mutant_tail_s", "s", "lower"),
    ("faults.self_s", "s", "lower"),
    ("core.closures", "count", "lower"),
    ("core.iterations", "count", "lower"),
    ("core.counterexamples", "count", "lower"),
    ("core.self_s", "s", "lower"),
    ("runner.jobs", "count", "lower"),
    ("runner.job_p50_s", "s", "lower"),
    ("runner.job_tail_s", "s", "lower"),
    ("runner.checkpoint_appends", "count", "lower"),
    ("runner.checkpoint_s", "s", "lower"),
    ("runner.worker_restarts", "count", "lower"),
    ("runner.pool_overhead_s", "s", "lower"),
    ("runner.self_s", "s", "lower"),
    ("trace.overhead_s", "s", "lower"),
    ("trace.covered_ratio", "ratio", "higher"),
)

#: Why a per-layer metric can read 0: (prefix, metric that is non-zero
#: whenever the layer ran, reason when it did not run).
ABSENT_REASONS = (
    ("formal.sat", "formal.sat.check_s",
     "no SAT engine runs here (the explicit engine is the default)"),
    ("formal.explicit", "formal.explicit.check_s", "the explicit engine does not run here"),
    ("formal.proofcache", "formal.proofcache.lookups",
     "no proof cache is configured on this workload"),
    ("faults", "faults.mutants", "no fault campaign runs on this workload"),
    ("runner", "runner.jobs", "the supervised runner is not used on this workload"),
    ("core", "core.closures", "no closure loop runs on this workload"),
    ("coverage", "coverage.busy_s", "no coverage grading runs on this workload"),
    ("sim", "sim.busy_s", "no simulation runs at a wrapped boundary on this workload"),
    ("mining", "mining.self_s", "no mining runs on this workload"),
)

#: The whole run must end well inside the 180 s limit.
HARD_LIMIT_S = 165.0
WORK_DIR = ROOT / ".e2ebench_work"


def fail(message: str) -> int:
    print(f"e2ebench: {message}", file=sys.stderr)
    return 2


def source_id() -> str:
    """The git commit when available, else a hash of the sources."""
    try:
        if not (ROOT / ".git").exists():
            raise FileNotFoundError("not a git checkout")
        commit = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                                text=True, timeout=10)
        if commit.returncode == 0:
            return commit.stdout.strip()
    except (OSError, subprocess.SubprocessError):
        pass
    sha = hashlib.sha256()
    for path in sorted((ROOT / "src").rglob("*.py")):
        sha.update(str(path.relative_to(ROOT)).encode())
        sha.update(path.read_bytes())
    return "src-sha256:" + sha.hexdigest()[:16]


def run_child(args, unit: int, traced: bool, timeout: float, index: int) -> dict:
    workdir = WORK_DIR / f"{os.getpid()}-{index}"
    workdir.mkdir(parents=True, exist_ok=True)
    command = [sys.executable, str(HERE / "child.py"),
               "--workload", args.workload, "--seed", str(args.seed), "--unit", str(unit),
               "--scale", args.scale, "--traced", str(int(traced)),
               "--workdir", str(workdir)]
    try:
        done = subprocess.run(command + ["--spawned-at", repr(time.monotonic())],
                              cwd=ROOT, stdout=subprocess.PIPE, text=True,
                              timeout=max(timeout, 1.0))
        lines = done.stdout.strip().splitlines()
        report = json.loads(lines[-1]) if done.returncode == 0 and lines else \
            {"error": f"child exited with code {done.returncode}"}
    except subprocess.TimeoutExpired:
        report = {"error": f"timed out after {timeout:.0f} s"}
    except json.JSONDecodeError as exc:
        report = {"error": f"unreadable child report: {exc}"}
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    report.update(unit=unit, traced=traced)
    return report


def collect(args, workload) -> list[dict]:
    """Run units in fresh interpreters until the time budget is spent."""
    start = time.monotonic()
    deadline = start + args.seconds
    reports: list[dict] = []
    rounds: list[float] = []
    while True:
        now = time.monotonic()
        estimate = statistics.median(rounds) if rounds else 0.0
        enough = len(rounds) >= (1 if args.trace else workload.units)
        # Stop at the round boundary nearest the deadline.
        if enough and now + estimate / 2 > deadline:
            break
        unit = len(rounds) % workload.units
        round_start = now
        for traced in ((False, True) if args.trace else (False,)):
            remaining = HARD_LIMIT_S - (time.monotonic() - start)
            report = run_child(args, unit, traced, remaining, len(reports))
            report["round"] = len(rounds)
            reports.append(report)
            if "error" in report and "timed out" in report["error"]:
                return reports
        rounds.append(time.monotonic() - round_start)
        if time.monotonic() - start > HARD_LIMIT_S / 2 and enough:
            break
    return reports


def load_reference(args) -> dict | None:
    path = HERE / "reference.json"
    if args.scale != "full" or not path.exists():
        return None
    table = json.loads(path.read_text())
    return table.get(args.workload, {}).get(str(args.seed))


def check(args, workload, reports: list[dict]) -> tuple[int, int, list[str]]:
    """(attempted jobs, failed jobs, problems) over every unit run."""
    reference = load_reference(args)
    expected = workload.job_count(args.scale)
    attempted = failed = 0
    problems: list[str] = []
    seen: dict[tuple[int, str], str] = {}
    for report in reports:
        unit = report["unit"]
        if "error" in report:
            attempted += expected
            failed += expected
            problems.append(f"unit {unit}: {report['error'].strip().splitlines()[-1]}")
            continue
        if report.get("leaks"):
            problems.append(f"wrappers left installed: {report['leaks']}")
        recorded = reference.get(str(unit), {}) if reference is not None else None
        replay = {job["key"]: job["digest"] for job in report.get("replay", [])}
        for job in report["jobs"]:
            attempted += 1
            bad = list(job["problems"])
            if recorded is not None and \
                    not job["digest"].startswith(recorded.get(job["key"]) or "-"):
                bad.append("digest differs from the recorded reference")
            if seen.setdefault((unit, job["key"]), job["digest"]) != job["digest"]:
                bad.append("digest differs from another run of the same unit")
            if replay and replay.get(job["key"]) != job["digest"]:
                bad.append("in-process replay digest differs from the pool's")
            if bad:
                failed += 1
                problems.append(f"unit {unit} {job['key']}: {'; '.join(bad)}")
        if recorded is not None and set(recorded) - {job["key"] for job in report["jobs"]}:
            problems.append(f"unit {unit}: recorded reference jobs missing from the run")
    return attempted, failed, problems


def mean_of_unit_medians(reports: list[dict], key: str) -> float:
    """Mean over units of each unit's median, so more repeats of one unit
    (a faster program) never shift which inputs the figure stands for."""
    by_unit: dict[int, list[float]] = defaultdict(list)
    for report in reports:
        by_unit[report["unit"]].append(report[key])
    return statistics.fmean(statistics.median(values) for values in by_unit.values())


def end_to_end(reports: list[dict]) -> dict:
    good = [r for r in reports if "error" not in r and not r["traced"]]
    if not good:
        return {}
    return {
        "wall_s": mean_of_unit_medians(good, "wall_s"),
        "cpu_s": mean_of_unit_medians(good, "cpu_s"),
        "setup_s": statistics.median(r["setup_s"] for r in good),
        "peak_rss_mb": statistics.median(r["peak_rss_mb"] for r in good),
    }


def as_measured(reports: list[dict]) -> dict:
    """The end-to-end times before host-speed scaling, and the speeds."""
    good = [r for r in reports if "error" not in r and not r["traced"]]
    if not good:
        return {}
    return {
        "wall_s": round(mean_of_unit_medians(good, "wall_raw"), 4),
        "cpu_s": round(mean_of_unit_medians(good, "cpu_raw"), 4),
        "setup_s": round(statistics.median(r["setup_raw"] for r in good), 4),
        "work_speeds": [round(r["speed"], 3) for r in good],
    }


def per_layer(reports: list[dict]) -> tuple[dict, list[str]]:
    traced = [r for r in reports if "error" not in r and r["traced"]]
    plain = [r for r in reports if "error" not in r and not r["traced"]]
    if not traced:
        return {}, []
    values = {}
    for name, _, _ in PER_LAYER:
        samples = [r["layers"].get(name, 0.0) for r in traced]
        values[name] = statistics.median(samples)
    values["startup.import_s"] = statistics.median(r["import_s"] for r in traced + plain)
    untraced_wall = {r["round"]: r["wall_s"] for r in plain}
    overheads = [r["wall_s"] - untraced_wall[r["round"]] for r in traced
                 if r["round"] in untraced_wall]
    values["trace.overhead_s"] = statistics.median(overheads) if overheads else 0.0
    notes = [f"absent: {target} ({reason})"
             for r in traced[:1] for target, reason in r.get("missing_targets", [])]
    for name, _, _ in PER_LAYER:
        if values[name] != 0 or name == "trace.overhead_s":
            continue
        reason = "the layer ran but did no such work on these inputs"
        for prefix, activity, why in ABSENT_REASONS:
            if name.startswith(prefix):
                if values[activity] == 0:
                    reason = why
                break
        notes.append(f"absent: {name} reads 0 -- {reason}")
    return values, notes


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--scale", choices=("full", "smoke"), default="full",
                        help="smoke shrinks every input (self-tests only)")
    args = parser.parse_args(argv)
    if not (ROOT / "src" / "repro" / "__init__.py").is_file():
        return fail(f"no repro sources under {ROOT / 'src'}")
    # Byte-compile once so no measured interpreter pays for it.
    warm = subprocess.run([sys.executable, "-m", "compileall", "-q", str(ROOT / "src"),
                           str(HERE)], cwd=ROOT, stdout=subprocess.DEVNULL)
    if warm.returncode != 0:
        return fail("byte-compiling the sources failed")

    workload = workloads.WORKLOADS[args.workload]
    load_before = os.getloadavg()
    reports = collect(args, workload)
    load_after = os.getloadavg()
    try:
        WORK_DIR.rmdir()
    except OSError:
        pass  # another run's unit directories are still in use

    attempted, failed, problems = check(args, workload, reports)
    if args.trace:
        values, notes = per_layer(reports)
        units = {name: unit for name, unit, _ in PER_LAYER}
    else:
        values, notes = end_to_end(reports), []
        units = dict(END_TO_END)
    if not values:
        problems.append("no unit completed")
    correct = failed == 0 and not problems

    for problem in problems:
        print(f"problem: {problem}")
    for note in notes:
        print(note)
    for name, value in values.items():
        print(f"{name:<38} {value:>16.6g} {units[name]}")
    print(f"{'error_rate':<38} {failed / max(attempted, 1):>16.6g} ratio "
          f"({failed} of {attempted} jobs)")
    reference = load_reference(args)
    print("provenance " + json.dumps({
        "workload": args.workload, "seed": args.seed, "scale": args.scale,
        "trace": args.trace, "seconds": args.seconds,
        "repeats": sum(1 for r in reports if not r["traced"]),
        "units": workload.units,
        "unit_wall_s": [[r["unit"], int(r["traced"]), round(r["wall_s"], 4)]
                        for r in reports if "wall_s" in r],
        "as_measured": as_measured(reports),
        "reference": "recorded" if reference is not None else "not recorded for this seed",
        "nproc": os.cpu_count(), "python": platform.python_version(),
        "source": source_id(),
        "loadavg_before": [round(x, 2) for x in load_before],
        "loadavg_after": [round(x, 2) for x in load_after],
    }, sort_keys=True))
    print(json.dumps({
        "correct": correct,
        "attempted": max(attempted, 1),
        "failed": failed if attempted else 1,
        "metrics": {name: {"value": value, "unit": units[name]}
                    for name, value in values.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
