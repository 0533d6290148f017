"""Columnar A-Miner vs the row-wise reference: divergence gate + throughput.

Generates one lane-parallel random dataset per fig13/fig16 mining subject
(the workloads where tree induction dominates wall-clock), builds the
decision tree with the row-wise reference miner (per-row feature dicts,
kept only as the oracle) and the columnar production miner (big-int
bitset columns, popcount split gains), and emits the machine-readable
``BENCH_mining.json`` artifact via :func:`_utils.write_bench_json`.  The
columnar dataset is constructed zero-copy from the batched simulator's
lane words (:func:`repro.sim.batched.random_batch_block`), so the
measured pipeline is the one a ``GoldMine.mine()`` data-generation pass
with ``GoldMineConfig(sim_engine="batched")`` runs.

Shape requirements:

* the two miners produce node-for-node identical trees and identical
  candidate assertion sets on every workload (any divergence fails the
  benchmark — this is the CI mining-perf-smoke contract);
* at full scale, tree induction is at least 5x faster columnar on at
  least half of the fig13 workloads and half of the fig16 workloads
  (ISSUE 4 acceptance: ">= 5x tree-induction speedup on the fig13/fig16
  mining workloads").

Set ``MINING_BENCH_SMOKE=1`` for a seconds-scale configuration (fewer
lanes/cycles) that still exercises the divergence gate — that is what
the CI mining-perf-smoke job runs on every push; timing is reported but
never asserted there.
"""

from __future__ import annotations

import os
import time

from _utils import run_once, write_bench_json

from repro.designs import info as design_info
from repro.experiments.common import format_table
from repro.mining import (
    ColumnarDataset,
    ColumnarDecisionTree,
    DecisionTree,
    MiningDataset,
    diff_trees,
)
from repro.sim.batched import random_batch_block

SMOKE = os.environ.get("MINING_BENCH_SMOKE", "") not in ("", "0")

#: (workload group, design, output, window, max_depth) — the fig13 subject
#: list and the fig16 design set, mining each design's first registered
#: output at its registered window (fig16 caps depth at 8 like the driver).
WORKLOADS = [
    ("fig13", "cex_small", "z", 1, None),
    ("fig13", "wbstage", "wb_valid", 1, None),
    ("fig13", "arbiter2", "gnt0", 2, None),
    ("fig13", "arbiter4", "gnt0", 2, None),
    ("fig13", "fetch", "valid", 1, None),
    ("fig16", "b01", "outp", 1, 8),
    ("fig16", "b02", "u", 1, 8),
    ("fig16", "b06", "cc_mux_high", 1, 8),
    ("fig16", "b09", "d_out", 1, 8),
    ("fig16", "b12", "win", 1, 8),
]

LANES = 16 if SMOKE else 64
CYCLES_PER_LANE = 10 if SMOKE else 48
SEED = 17

#: The acceptance gate (full scale only): per workload group, at least
#: this fraction of workloads must clear the 5x induction-speedup bar.
GATE_SPEEDUP = 5.0
GATE_FRACTION = 0.5


def _build_datasets(design: str, output: str, window: int):
    """One identical dataset per engine, columnar built zero-copy.

    Module parsing and synthesis happen once outside the timed regions,
    so ``*_dataset_seconds`` measures feature enumeration + ingestion
    only — the part the engines actually differ on.
    """
    from repro.hdl.synth import synthesize

    meta = design_info(design)
    module = meta.build()
    synth = synthesize(module)
    block = random_batch_block(module, CYCLES_PER_LANE, lanes=LANES,
                               seed=SEED, synth=synth)
    start = time.perf_counter()
    rowwise = MiningDataset(module, output, window=window, synth=synth)
    rowwise.add_traces(block.to_traces())
    rowwise_seconds = time.perf_counter() - start
    start = time.perf_counter()
    columnar = ColumnarDataset(module, output, window=window, synth=synth)
    columnar.add_lane_block(block)
    columnar_seconds = time.perf_counter() - start
    return rowwise, columnar, rowwise_seconds, columnar_seconds


def _induce(tree_cls, dataset, max_depth):
    tree = tree_cls(dataset, max_depth=max_depth)
    start = time.perf_counter()
    tree.build()
    candidates = tree.candidate_assertions()
    return time.perf_counter() - start, tree, candidates


def test_columnar_mining_speedup(benchmark, print_section):
    # The harness-timed sample: one representative columnar induction.
    sample_row, sample_col, _, _ = _build_datasets("arbiter4", "gnt0", 2)
    run_once(benchmark,
             lambda: ColumnarDecisionTree(sample_col).build())

    headers = ["workload", "design.output", "rows", "features",
               "rowwise s", "columnar s", "speedup", "divergences"]
    table_rows = []
    json_rows = []
    divergences_total = 0
    speedups: dict[str, list[float]] = {}
    for group, design, output, window, max_depth in WORKLOADS:
        rowwise, columnar, row_ds_s, col_ds_s = _build_datasets(
            design, output, window)
        row_seconds, row_tree, row_candidates = _induce(
            DecisionTree, rowwise, max_depth)
        col_seconds, col_tree, col_candidates = _induce(
            ColumnarDecisionTree, columnar, max_depth)

        divergences = diff_trees(row_tree.root, col_tree.root)
        if row_candidates != col_candidates:
            divergences.append(
                f"{design}.{output}: candidate assertion sets differ")
        divergences_total += len(divergences)
        speedup = row_seconds / col_seconds if col_seconds else 0.0
        speedups.setdefault(group, []).append(speedup)
        table_rows.append([group, f"{design}.{output}", len(rowwise),
                           len(rowwise.features), f"{row_seconds:.4f}",
                           f"{col_seconds:.4f}", f"{speedup:.1f}x",
                           len(divergences)])
        json_rows.append({
            "workload": group,
            "design": design,
            "output": output,
            "window": window,
            "max_depth": max_depth,
            "rows": len(rowwise),
            "features": len(rowwise.features),
            "rowwise_induction_seconds": row_seconds,
            "columnar_induction_seconds": col_seconds,
            "rowwise_dataset_seconds": row_ds_s,
            "columnar_dataset_seconds": col_ds_s,
            "speedup": speedup,
            "nodes": col_tree.node_count(),
            "candidates": len(col_candidates),
            "divergences": divergences,
        })

    payload = {
        "benchmark": "mining",
        "smoke": SMOKE,
        "lanes": LANES,
        "cycles_per_lane": CYCLES_PER_LANE,
        "gate": {"speedup": GATE_SPEEDUP, "fraction": GATE_FRACTION,
                 "groups": sorted(speedups)},
        "rows": json_rows,
    }
    artifact = write_bench_json("mining", payload)

    print_section(
        "E15 — columnar vs row-wise tree induction (fig13/fig16 workloads)",
        format_table(headers, table_rows) + f"\nartifact: {artifact}")

    # Contract 1 (always, including CI smoke): engine equivalence.
    assert divergences_total == 0, \
        "columnar mining diverged from the row-wise engine"

    # Contract 2 (full scale only): the headline induction speedup.
    if not SMOKE:
        for group, values in speedups.items():
            fast = [s for s in values if s >= GATE_SPEEDUP]
            assert len(fast) >= len(values) * GATE_FRACTION, (
                f"expected >= {GATE_SPEEDUP}x columnar induction speedup on "
                f">= {GATE_FRACTION:.0%} of {group} workloads, got "
                f"{[f'{s:.1f}x' for s in values]}")
