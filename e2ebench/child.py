"""Run one unit of a workload in a fresh interpreter and report it.

Invoked by ``run.py``, once per unit; prints one JSON line on standard
output.  ``--spawned-at`` is the parent's ``time.monotonic()`` just
before it started this interpreter (``CLOCK_MONOTONIC`` is system-wide on
Linux), so ``setup_s`` covers interpreter start, ``import repro`` and
building and synthesizing the workload's designs.

The host-speed probe (``speed.py``) runs from the first line on.  Every
time is reported twice: as measured (``*_raw``) and scaled to the
reference speed by the probe's samples over the same span, less the
probe's own time.
"""

from __future__ import annotations

import argparse
import json
import resource
import sys
import time
import traceback
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def _cpu_seconds() -> float:
    """User + system time of this process and its reaped children."""
    total = 0.0
    for who in (resource.RUSAGE_SELF, resource.RUSAGE_CHILDREN):
        usage = resource.getrusage(who)
        total += usage.ru_utime + usage.ru_stime
    return total


def _peak_rss_mb() -> float:
    """Largest peak resident set of this process or any reaped child."""
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    children = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return max(own, children) / 1024.0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--unit", type=int, required=True)
    parser.add_argument("--scale", default="full")
    parser.add_argument("--traced", type=int, default=0)
    parser.add_argument("--spawned-at", type=float, required=True)
    parser.add_argument("--workdir", required=True)
    args = parser.parse_args(argv)

    sys.path.insert(0, str(Path(__file__).resolve().parent))
    import speed

    probe = speed.SpeedProbe()
    probe.start()
    started = probe.mark()
    sys.path.insert(0, str(ROOT / "src"))
    import_start = time.monotonic()
    import repro  # noqa: F401 - timed: the user-visible import cost
    import_s = time.monotonic() - import_start

    import tracer as tracing
    import workloads

    workload = workloads.WORKLOADS[args.workload]
    params = workload.scales[args.scale]
    unit_seed = workloads.derive_seed(args.workload, args.seed, args.unit)
    workdir = Path(args.workdir)
    report = {"unit": args.unit, "traced": bool(args.traced), "import_s": import_s}

    tracer = tracing.Tracer() if args.traced else None
    if tracer is not None:
        tracer.install()
    ctx: dict = {"extra": {}}
    try:
        ctx = workloads.setup(workload, args.scale)
        setup_raw = time.monotonic() - args.spawned_at
        _, probe_s, setup_speed = probe.span(started)
        report["setup_raw"] = setup_raw
        report["setup_s"] = (setup_raw - probe_s) * setup_speed

        cpu_start = _cpu_seconds()
        work_start = probe.mark()
        if tracer is not None:
            with tracer.span("bench.work"):
                jobs = workload.run(ctx, unit_seed, params, workdir)
        else:
            jobs = workload.run(ctx, unit_seed, params, workdir)
        wall_raw, probe_s, work_speed = probe.span(work_start)
        cpu_raw = _cpu_seconds() - cpu_start
        report.update(wall_raw=wall_raw, cpu_raw=cpu_raw, speed=work_speed,
                      wall_s=(wall_raw - probe_s) * work_speed,
                      cpu_s=(cpu_raw - probe_s) * work_speed)
        report["peak_rss_mb"] = _peak_rss_mb()
        report["jobs"] = [job.__dict__ for job in jobs]

        if tracer is not None and workload.replay is not None:
            with tracer.span("bench.replay"):
                replayed = workload.replay(ctx, unit_seed, params, workdir)
            report["replay"] = [job.__dict__ for job in replayed]
    except Exception:  # noqa: BLE001 - the parent counts the unit's jobs as failed
        report["error"] = traceback.format_exc(limit=12)
    finally:
        probe.stop()
        if tracer is not None:
            tracer.uninstall()

    if tracer is not None:
        report["layers"] = tracer.reduce()
        report["layers"].update(ctx["extra"])
        report["missing_targets"] = tracer.missing
        report["leaks"] = tracer.leaks()
    print(json.dumps(report))
    return 0


if __name__ == "__main__":
    sys.exit(main())
