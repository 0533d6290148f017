"""Static analysis of designs: logic cones and unrolling.

This is GoldMine's "static analyzer" component (Section 2.2): it extracts
the logic cone of influence of every output so the data-mining phase only
considers relevant variables, and it unrolls designs over the mining
window for the symbolic formal engines.
"""

from repro.analysis.cone import combinational_cone, cone_of_influence, windowed_cone
from repro.analysis.unroll import Unroller, bit_variable

__all__ = [
    "Unroller",
    "bit_variable",
    "combinational_cone",
    "cone_of_influence",
    "windowed_cone",
]
