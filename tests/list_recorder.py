"""List-based reference recorder.

The engine's recorder writes each row into preallocated chunks and joins
them once, when the run ends. This is the recorder it replaced: one copy
of each row appended to Python lists, every judged block built from the
lists, and np.vstack at the end. Patched over engine._Recorder, it runs
the same runners, and the tests compare the traces bit for bit.
"""

from collections.abc import Callable

import numpy as np

from gossipsim.analysis import Trace, disagreement_rows, sustained_run
from gossipsim.graph import Graph


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

    def record(self, x: np.ndarray, active: np.ndarray) -> None:
        self.states.append(x.copy())
        self.acts.append(active.astype(np.uint8))

    @property
    def rows(self) -> int:
        return len(self.states)

    def judge(self) -> bool:
        new = len(self.states) - self.judged
        block = np.array(self.states[max(self.judged - 1, 0):])
        ok = np.ones(len(self.states) - self.run_from, dtype=bool)
        ok[-new:] = disagreement_rows(block, self.graph)[-new:] < self.tol
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
        return Trace(graph=self.graph, states=np.vstack(self.states), activations=acts,
                     cycle_ticks=self.cycle_ticks, tolerance=self.tol,
                     message_counts=counts(acts), messages=log)
