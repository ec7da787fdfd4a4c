"""Per-row fsum reference for Trace.drifts.

The package sums each row of a trace with a vectorized tree of TwoSums
and calls math.fsum only for the rows the tree cannot certify. This is
the loop it replaced: one fsum per row, then the row's mean against the
trace's exact initial mean. The tests compare the two bit for bit.
"""

from math import fsum

import numpy as np


def fsum_drifts(trace) -> np.ndarray:
    """|fsum(x) / n - x_avg| of every row of the trace."""
    n, avg = trace.graph.node_count, trace.x_avg
    return np.array([abs(fsum(x) / n - avg) for x in trace.states])
