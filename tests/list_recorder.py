"""List-based reference recorder, and the disagreement pass it judges by.

The engine's recorder keeps each block as the kernel hands it over, its
values and the maps its rows are gathered through, and the trace reads
its rows from those blocks. This is a recorder that shares none of
that: it gathers each block's rows itself, appends one copy of each row
to Python lists, builds every judged block from the lists, and hands
the trace its rows np.vstack-ed into one block at the end. Patched over
engine._Recorder, it runs the same runners, and the tests compare the
traces bit for bit.

It judges with block_disagreements, an in-order disagreement pass that
shares no code with analysis.disagreement_rows: blocks of rows, each
adding up its whole (arcs, rows) array of terms at once. Its trace's
series is that pass over all the rows kept, as is the series of every
trace trace_of_rows builds.
"""

from collections.abc import Callable

import numpy as np

from gossipsim import analysis
from gossipsim.analysis import Trace, sustained_run
from gossipsim.graph import Graph


def trace_of_rows(graph: Graph, states, activations=None, **fields) -> Trace:
    """A trace of the given (rows, n) states and activation flags (all
    zero unless given), kept as one block whose source map lists every
    cell in row order, with block_disagreements of the states as its
    series."""
    states = np.array(states, dtype=float)
    acts = (np.zeros(states.shape, dtype=np.uint8) if activations is None
            else np.array(activations, dtype=np.uint8))
    src = np.arange(states.size).reshape(states.shape)
    return Trace(graph=graph, blocks=((states.ravel(), src, acts),),
                 disagreements=block_disagreements(states, graph), **fields)


def block_disagreements(states: np.ndarray, graph: Graph) -> np.ndarray:
    """Disagreement of every row of states, in blocks of at least two rows
    (unless states has one) of about analysis._BLOCK_CELLS // arcs rows.
    Each row's terms are added in arc order by a cumulative sum, which
    numpy takes in order whatever the height of the block."""
    i, j = graph.arcs
    rows = states.shape[0]
    step = max(2, analysis._BLOCK_CELLS // len(i))
    parts = []
    with np.errstate(over="ignore", invalid="ignore"):
        for block in np.array_split(states, max(1, rows // step)):
            cols = np.ascontiguousarray(block.T)
            diff = np.take(cols, i, axis=0) - np.take(cols, j, axis=0)
            parts.append(np.sqrt(np.cumsum(diff * diff, axis=0)[-1] / graph.node_count))
    return np.concatenate(parts)


class ListRecorder:
    def __init__(self, graph: Graph, x0: np.ndarray, cycle_ticks: int, tol: float,
                 collect_messages: bool):
        self.graph = graph
        self.cycle_ticks = cycle_ticks
        self.tol = tol
        self.log: list | None = [] if collect_messages else None
        self.states = [np.asarray(x0, dtype=float).copy()]
        self.acts = [np.zeros(graph.node_count, dtype=np.uint8)]
        self.judged = self.run_from = 0
        self.converged = False

    def record(self, values: np.ndarray, src: np.ndarray, acts: np.ndarray) -> None:
        for x, active in zip(np.asarray(values)[src], acts):
            self.states.append(x.copy())
            self.acts.append(active.astype(np.uint8))

    @property
    def rows(self) -> int:
        return len(self.states)

    def judge(self) -> bool:
        new = len(self.states) - self.judged
        if not new:  # a runner judges again after a stop judged already
            return self.converged
        block = np.array(self.states[max(self.judged - 1, 0):])
        ok = np.ones(len(self.states) - self.run_from, dtype=bool)
        ok[-new:] = block_disagreements(block, self.graph)[-new:] < self.tol
        run = sustained_run(ok, self.cycle_ticks)
        if run is not None:
            end = self.run_from + run[1] + 1
            del self.states[end:], self.acts[end:]
            self.converged = True
        elif not ok.all():
            self.run_from += int(np.flatnonzero(~ok)[-1]) + 1
        self.judged = len(self.states)
        return self.converged

    def finish(self, counts: Callable[[np.ndarray, int], dict[str, int]]) -> Trace:
        log = self.log
        while log and log[-1][0] >= self.rows:
            log.pop()
        acts = np.vstack(self.acts)
        states = np.vstack(self.states)
        return trace_of_rows(self.graph, states, acts,
                             cycle_ticks=self.cycle_ticks, tolerance=self.tol,
                             message_counts=counts(acts.sum(axis=0, dtype=np.int64),
                                                   len(acts)),
                             messages=log)
