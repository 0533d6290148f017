"""Record the reference output digests the benchmark checks against.

Usage (from the repository root)::

    python3 e2ebench/record.py --seeds 0-19 [--workload NAME ...]

Runs every unit of each workload for each seed, untraced, in a fresh
interpreter exactly as ``run.py`` does, and writes the first 16 hex digits
of every job's digest to ``reference.json``.  Refuses to record a job
that shows a shape problem (a closure that did not converge, an
undetected fault).  Re-record only on purpose: a change whose outputs
differ from the recorded ones is what the benchmark exists to catch.
"""

from __future__ import annotations

import argparse
import json
import shutil
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import run  # noqa: E402
import workloads  # noqa: E402

#: Digest prefix length kept in ``reference.json``.
DIGEST_CHARS = 16


def parse_seeds(text: str) -> list[int]:
    seeds: list[int] = []
    for part in text.split(","):
        low, _, high = part.partition("-")
        seeds.extend(range(int(low), int(high or low) + 1))
    return seeds


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seeds", required=True, help="e.g. 0-19 or 1,4,7")
    parser.add_argument("--workload", action="append", choices=sorted(workloads.WORKLOADS))
    args = parser.parse_args(argv)

    path = HERE / "reference.json"
    table = json.loads(path.read_text()) if path.exists() else {}
    for name in args.workload or sorted(workloads.WORKLOADS):
        workload = workloads.WORKLOADS[name]
        for seed in parse_seeds(args.seeds):
            options = argparse.Namespace(workload=name, seed=seed, scale="full")
            units = {}
            for unit in range(workload.units):
                report = run.run_child(options, unit, False, run.HARD_LIMIT_S, unit)
                if "error" in report:
                    raise SystemExit(f"{name} seed {seed} unit {unit}: {report['error']}")
                for job in report["jobs"]:
                    if job["problems"]:
                        raise SystemExit(f"{name} seed {seed} {job['key']}: {job['problems']}")
                units[str(unit)] = {job["key"]: job["digest"][:DIGEST_CHARS]
                                    for job in report["jobs"]}
            table.setdefault(name, {})[str(seed)] = units
            print(f"recorded {name} seed {seed}", flush=True)
            path.write_text(json.dumps(table, indent=1, sort_keys=True) + "\n")
    shutil.rmtree(run.WORK_DIR, ignore_errors=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
