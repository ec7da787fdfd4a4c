"""List-based reference recorder, and the disagreement pass it judges by.

The engine's recorder writes each block of rows into preallocated chunks
and joins them once, when the run ends. This is the recorder it
replaced: one copy of each row appended to Python lists, every judged
block built from the lists, and np.vstack at the end. Patched over
engine._Recorder, it runs the same runners, and the tests compare the
traces bit for bit.

It judges with block_disagreements, an in-order disagreement pass that
shares no code with analysis.disagreement_rows: blocks of rows, each
adding up its whole (arcs, rows) array of terms at once. Its trace's
series is that pass over all the rows kept.
"""

from collections.abc import Callable

import numpy as np

from gossipsim import analysis
from gossipsim.analysis import Trace, sustained_run
from gossipsim.graph import Graph


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

    def record(self, states: np.ndarray, acts: np.ndarray) -> None:
        for x, active in zip(states, acts):
            self.states.append(x.copy())
            self.acts.append(active.astype(np.uint8))

    @property
    def rows(self) -> int:
        return len(self.states)

    def judge(self) -> bool:
        new = len(self.states) - self.judged
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

    def finish(self, counts: Callable[[np.ndarray], dict[str, int]]) -> Trace:
        log = self.log
        while log and log[-1][0] >= self.rows:
            log.pop()
        acts = np.vstack(self.acts)
        states = np.vstack(self.states)
        return Trace(graph=self.graph, states=states, activations=acts,
                     cycle_ticks=self.cycle_ticks, tolerance=self.tol,
                     message_counts=counts(acts), messages=log,
                     judged=block_disagreements(states, self.graph))
