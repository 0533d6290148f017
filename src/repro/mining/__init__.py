"""A-Miner: decision-tree based assertion mining (GoldMine Section 2.3).

The production miner is :mod:`repro.mining.columnar`: it stores every
feature column as one big-int bitset, computes split gains with
popcounts on ``column & mask`` words, and ingests the batched
simulator's lane-packed words directly (zero-copy).

The row-wise miner — :mod:`repro.mining.dataset` turning traces into
windowed per-row feature dicts, and :mod:`repro.mining.decision_tree` /
:mod:`repro.mining.incremental_tree` inducing over them one row at a
time (the paper's Figure 2 and Section 3 algorithms, written directly)
— is kept as the differential reference the tests hold the columnar
trees to, node for node.

:func:`create_decision_tree` picks the tree that matches a dataset's
representation, which is the one seam through which a test substitutes
the reference.
"""

from __future__ import annotations

from repro.mining.columnar import (
    ColumnarDataset,
    ColumnarDecisionTree,
    ColumnarIncrementalDecisionTree,
    ColumnarTreeNode,
    diff_trees,
)
from repro.mining.dataset import FeatureSpec, MiningDataset, TargetSpec
from repro.mining.decision_tree import DecisionTree, TreeNode
from repro.mining.incremental_tree import IncrementalDecisionTree


def create_decision_tree(dataset, max_depth: int | None = None, *,
                         incremental: bool = False):
    """Build the matching (incremental) decision tree for a dataset.

    Dispatch follows the dataset's representation: a
    :class:`ColumnarDataset` gets the columnar tree, a
    :class:`MiningDataset` the row-wise reference tree.
    """
    if isinstance(dataset, ColumnarDataset):
        cls = ColumnarIncrementalDecisionTree if incremental else ColumnarDecisionTree
    else:
        cls = IncrementalDecisionTree if incremental else DecisionTree
    return cls(dataset, max_depth)


__all__ = [
    "ColumnarDataset",
    "ColumnarDecisionTree",
    "ColumnarIncrementalDecisionTree",
    "ColumnarTreeNode",
    "DecisionTree",
    "FeatureSpec",
    "IncrementalDecisionTree",
    "MiningDataset",
    "TargetSpec",
    "TreeNode",
    "create_decision_tree",
    "diff_trees",
]
