"""Simulation backends for the duty-cycled averaging protocol.

Every poll-round run goes through one schedule kernel, _Schedule: a
fixed list of ticks, each the initiators it wakes in order, compiled
once. Its run folds the initiators with UpdateRule.fold on a Python list
of the states and returns the value each adopts, in schedule order. Its
rows turns those values into the schedule's trace rows with one gather,
through the source map built when it was compiled: for every (tick,
node) cell, the entry of [previous row; values] that the cell holds.

* run_agent_sim runs the beacon protocol. The anchor's beacon wakes hop
  layer 1 and each layer's wake-up flood wakes the next, so every beacon
  cycle updates layer m at its tick m, initiators in ascending id; the
  run computes the hop layers once, compiles that cycle once and runs
  it once per beacon cycle. The per-message protocol handlers that
  tests/test_protocol_oracle.py drives are the reference it is tested
  against; no run calls them.
* run_matrix_sim is the one scripted runner: it wakes the nodes of
  activation row k at tick k + 1, compiling its script a slice at a
  time.

No source map, and so no block of rows gathered through one, holds more
than _BLOCK_CELLS cells: a longer cycle is compiled as several schedules.

Each runner records its rows in a _Recorder, a block of rows at a time,
and the recorder judges every row once, as it records it:
analysis.disagreement_rows gives a row the same value whatever rows are
summed with it. After each beacon cycle, or each block of pairwise
exchanges, the recorder applies the window rule of analysis.sustained_run
to the new rows, which stops the run. When the run ends it builds its
frozen Trace in one call: the rows kept, the disagreements it judged
them by, their closed-form message counts and, on request, the message
log up to the last row. The recorder writes rows into preallocated
chunks of about 2 MiB of states and copies them into the trace's arrays
once, releasing each chunk as it goes, so a run holds its trace and one
chunk, not two copies of the trace. The trace reads converged off those
rows by the same rule for every backend.
step_matrix writes the same steps as explicit matrices, built from
rules.update_block.

Time: one tick is one trace row. Row k holds the states after tick k
(row 0 is x0), and every message carries the tick it was sent in. On the
beacon wave a tick is one hop slot, so a beacon cycle of L hop layers is
L ticks; a scripted step and a pairwise exchange are one tick each.

Iteration accounting: max_iterations counts beacon cycles for the agent
backend and steps for the matrix/pairwise backends.
Trace.rounds_to_tolerance converts a trace's convergence row back to
per-node update rounds.

Within one tick the neighborhood-set rule processes initiators
sequentially in ascending node id, each full poll round atomic, so the
polled values include same-tick write-backs; that ordering is what keeps
the global sum exact. The pure-neighbor and self-additive rules instead
answer all polls before anyone computes, which makes same-tick updates
simultaneous and matches the activation-gated matrix form
diag(phi) A + (I - diag(phi)): inactive rows hold their value.
"""

from __future__ import annotations

from collections.abc import Callable, Iterable
from dataclasses import dataclass
from math import isfinite

import numpy as np

from .analysis import _BLOCK_CELLS, Trace, disagreement_rows, sustained_run
from .duty_cycle import DutyCycleParams
from .errors import ConfigError, SimulationError
from .graph import Graph, assign_layers
from .rules import RuleVariant, UpdateRule, update_block

ANCHOR_SRC = -1  # message src used by the anchor entity
BROADCAST = -1  # message dst of a one-transmission broadcast
# message kinds, as the --dump-messages log spells them
_BEACON, _WAKE_UP, _REQUEST, _ACK = "beacon", "wake_up", "state_request", "state_ack"


@dataclass
class RunConfig:
    """Everything one run needs; validation happens at construction."""

    graph: Graph
    duty: DutyCycleParams = DutyCycleParams()
    rule: UpdateRule = UpdateRule()
    seed: int = 0
    max_iterations: int = 400
    tolerance: float = 1e-6
    initial_states: np.ndarray | None = None

    def __post_init__(self) -> None:
        if self.max_iterations < 1:
            raise ConfigError(f"max_iterations must be >= 1, got {self.max_iterations}")
        if not (self.tolerance > 0 and isfinite(self.tolerance)):
            raise ConfigError(f"tolerance must be finite and > 0, got {self.tolerance}")
        if self.initial_states is not None:
            x0 = np.asarray(self.initial_states, dtype=float)
            if x0.shape != (self.graph.node_count,):
                raise ConfigError(
                    f"initial_states shape {x0.shape} does not match "
                    f"{self.graph.node_count} nodes")
            if not np.isfinite(x0).all():
                raise ConfigError("initial_states must be finite")
            self.initial_states = x0


def initial_states(cfg: RunConfig) -> tuple[np.ndarray, np.random.Generator]:
    """Initial state vector plus the run rng (already past the x0 draw).

    Defaults to uniform values on [0, 100) drawn from the run seed.
    """
    rng = np.random.default_rng(cfg.seed)
    if cfg.initial_states is not None:
        return cfg.initial_states.copy(), rng
    return rng.uniform(0.0, 100.0, cfg.graph.node_count), rng


class _Recorder:
    """Trace rows of a run, each judged once, as it is recorded, with the
    reduction and window rule of the finished trace's metrics, so that the
    run stops on the numbers metrics.csv reports. The values judged become
    the trace's disagreements. log, when messages are collected, is the
    list the run appends its messages to, each stamped with rows: the
    index of the row its tick is recorded in.

    Each block recorded is judged as the runner hands it over, before
    its rows are written into chunks of chunk_rows preallocated rows,
    about _BLOCK_CELLS cells of states each, so that recording allocates
    nothing and no block is ever joined from chunks. finish copies the
    chunks into the trace's arrays one at a time, releasing each once it
    is copied, so the run holds at most the trace and one chunk more.
    """

    def __init__(self, graph: Graph, x0: np.ndarray, cycle_ticks: int, tol: float,
                 collect_messages: bool):
        self.graph = graph
        self.cycle_ticks = cycle_ticks
        self.tol = tol
        self.log: list | None = [] if collect_messages else None
        self.chunk_rows = max(1, _BLOCK_CELLS // graph.node_count)
        # chunk k of each list holds rows k * chunk_rows onward
        self.states: list[np.ndarray] = []
        self.acts: list[np.ndarray] = []
        self.rows = 0  # rows recorded and kept
        self.checked = 0  # rows the window rule has seen
        self.series = np.empty(0)  # the disagreement of every row, and room for more
        self.converged = False
        self.record(x0[None], np.zeros((1, graph.node_count), dtype=np.uint8))

    def record(self, states: np.ndarray, acts: np.ndarray) -> None:
        """Judge a (rows, n) block of states in one pass and append it and
        its activation flags."""
        end = self.rows + len(states)
        if len(self.series) < end:  # no view of it is ever taken
            self.series.resize(2 * end, refcheck=False)
        self.series[self.rows:end] = disagreement_rows(states, self.graph)
        done = 0
        while done < len(states):
            k, r = divmod(self.rows, self.chunk_rows)
            if k == len(self.states):
                shape = (self.chunk_rows, self.graph.node_count)
                self.states.append(np.empty(shape))
                self.acts.append(np.empty(shape, dtype=np.uint8))
            m = min(self.chunk_rows - r, len(states) - done)
            self.states[k][r:r + m] = states[done:done + m]
            self.acts[k][r:r + m] = acts[done:done + m]
            self.rows += m
            done += m

    def judge(self) -> bool:
        """Apply the window rule to the rows recorded since the last call.
        Once a run of ok rows spans a cycle, drop the rows after the row
        where it does and return True."""
        # a run that first spans in the new rows ends on one of them and
        # starts at lo or later
        lo = max(self.checked - self.cycle_ticks + 1, 0)
        ok = self.series[lo:self.rows] < self.tol
        run = sustained_run(ok, self.cycle_ticks) if ok[self.checked - lo:].any() else None
        self.checked = self.rows
        if run is not None:
            self.rows = lo + run[1] + 1
            kept = -(-self.rows // self.chunk_rows)
            del self.states[kept:], self.acts[kept:]
            self.converged = True
        return self.converged

    def _gather(self, chunks: list[np.ndarray]) -> np.ndarray:
        """The rows kept, as one array; each chunk is released once copied."""
        out = np.empty((self.rows, *chunks[0].shape[1:]), dtype=chunks[0].dtype)
        for k, lo in enumerate(range(0, self.rows, self.chunk_rows)):
            out[lo:lo + self.chunk_rows] = chunks[k][:self.rows - lo]
            chunks[k] = None
        return out

    def finish(self, counts: Callable[[np.ndarray], dict[str, int]]) -> Trace:
        """The trace of the rows kept, with counts(activation rows) as its
        message counts, the messages sent in the ticks of those rows, and
        the disagreements of those rows."""
        log = self.log
        while log and log[-1][0] >= self.rows:
            log.pop()
        acts = self._gather(self.acts)
        states = self._gather(self.states)
        self.series.resize(self.rows, refcheck=False)
        return Trace(graph=self.graph, states=states, activations=acts,
                     cycle_ticks=self.cycle_ticks, tolerance=self.tol,
                     message_counts=counts(acts), messages=log, judged=self.series)


class _Schedule:
    """A fixed list of ticks, each the initiators it wakes in order,
    compiled for the runs of its poll rule on a graph whose nodes poll
    nbrs, their in-neighbor lists.

    run applies the ticks to a list of states; rows turns the values it
    returns into the ticks' trace rows with one gather through src,
    whose cell (t, i) is the entry of [previous row; values] that node i
    holds after tick t. src is built here by walking the schedule in
    order, one initiator at a time, so that a later write to a cell wins.
    acts flags each tick's initiators.
    """

    def __init__(self, rule: UpdateRule, nbrs: list[list[int]], ticks: list[list[int]]):
        n = len(nbrs)
        self.rule, self.nbrs, self.ticks = rule, nbrs, ticks
        self.sequential = rule.variant is RuleVariant.NEIGHBORHOOD_SET
        self.src = np.empty((len(ticks), n), dtype=np.intp)
        self.acts = np.zeros((len(ticks), n), dtype=np.uint8)
        holds = list(range(n))  # the entry each node holds
        v = n  # entry of the next initiator's value
        for t, ids in enumerate(ticks):
            for i in ids:
                holds[i] = v
                if self.sequential:
                    for j in nbrs[i]:
                        holds[j] = v
                v += 1
            self.src[t] = holds
            self.acts[t, ids] = 1

    def run(self, xs: list[float], tick: int, log: list | None) -> list[float]:
        """Run the ticks' poll rounds on xs in place, the first as tick
        tick, and return the value of every initiator in schedule order.

        Under the neighborhood-set rule the initiators go one after
        another, each writing the common value back to itself and the
        nodes it polled, so later initiators read earlier ones' results.
        Under the other rules every initiator reads xs as it stood at the
        start of the tick. log, if given, receives one (tick, kind, src,
        dst, payload) per message, in the order the protocol's per-node
        handlers emit them.
        """
        fold, nbrs, sequential = self.rule.fold, self.nbrs, self.sequential
        values: list[float] = []
        for ids in self.ticks:
            first = len(values)
            for i in ids:
                nb = nbrs[i]
                if not nb:
                    raise SimulationError(f"node {i} has nobody to poll")
                polled = [xs[j] for j in nb]
                if log is not None:
                    for j, p in zip(nb, polled):
                        log.append((tick, _REQUEST, i, j, None))
                        log.append((tick, _ACK, j, i, p))
                v = fold(xs[i], polled)
                values.append(v)
                if sequential:
                    xs[i] = v
                    for j in nb:
                        xs[j] = v
                    if log is not None:
                        log.append((tick, _WAKE_UP, i, BROADCAST, 1))
            if not sequential:
                for i, v in zip(ids, values[first:]):
                    xs[i] = v
                if log is not None:
                    log.extend((tick, _WAKE_UP, i, BROADCAST, 1) for i in ids)
            tick += 1
        return values

    def rows(self, prev: np.ndarray, values: list[float]) -> np.ndarray:
        """The ticks' trace rows, from the row before them and run's values."""
        return np.take(np.concatenate((prev, values)), self.src)


def _poll_lists(graph: Graph) -> list[list[int]]:
    """Each node's in-neighbors as a list of ints, every node one shared
    int object, so that a list costs a pointer per arc."""
    ids = list(range(graph.node_count))
    return [[ids[j] for j in nb.tolist()] for nb in graph.in_neighbors]


def _play(parts: Iterable[_Schedule], xs: list[float], row: np.ndarray,
          rec: _Recorder) -> np.ndarray:
    """Run the schedules in turn on xs, the states of row, recording their
    rows in rec; returns the last row."""
    for part in parts:
        rows = part.rows(row, part.run(xs, rec.rows, rec.log))
        rec.record(rows, part.acts)
        row = rows[-1]
    return row


def _message_counts(graph: Graph, activations: np.ndarray, beacons: int) -> dict[str, int]:
    """Messages of a poll-round run's activation rows, in closed form: each
    update sends one request to and gets one ack from every in-neighbor,
    then broadcasts one wake-up."""
    updates = activations.sum(axis=0, dtype=np.int64)
    polls = sum(int(u) * len(nb) for u, nb in zip(updates, graph.in_neighbors))
    return {_BEACON: beacons, _WAKE_UP: int(updates.sum()),
            _REQUEST: polls, _ACK: polls}


def run_agent_sim(cfg: RunConfig, collect_messages: bool = False) -> Trace:
    """Agent-level simulation: max_iterations beacon cycles of the full
    protocol, or fewer once disagreement holds below tolerance for one
    full beacon cycle of layer_count ticks."""
    g = cfg.graph
    lay = assign_layers(g)
    # tick m - 1 of every cycle wakes hop layer m
    waves = [np.flatnonzero(lay.layer_of == m).tolist() for m in range(1, lay.layer_count + 1)]
    nbrs = _poll_lists(g)
    step = max(1, _BLOCK_CELLS // g.node_count)
    cycle = [_Schedule(cfg.rule, nbrs, waves[t:t + step])
             for t in range(0, lay.layer_count, step)]
    x0, _ = initial_states(cfg)
    rec = _Recorder(g, x0, lay.layer_count, cfg.tolerance, collect_messages)
    xs, row = x0.tolist(), x0
    for _ in range(cfg.max_iterations):
        if rec.log is not None:
            rec.log.append((rec.rows, _BEACON, ANCHOR_SRC, BROADCAST, None))
        row = _play(cycle, xs, row, rec)
        if rec.judge():
            break
    # one beacon for each cycle with a row kept
    return rec.finish(lambda acts: _message_counts(
        g, acts, -(-(len(acts) - 1) // lay.layer_count)))


def step_matrix(g: Graph, rule: UpdateRule, phi: np.ndarray) -> np.ndarray:
    """Explicit state matrix for one step under activation row phi.

    Inactive rows keep their value. The neighborhood-set rule applies
    its initiators' update blocks in ascending id order, each to the
    earlier ones' result, matching the agent backend's sequential
    processing; the simultaneous rules replace one row per active node.
    """
    n = g.node_count
    phi = np.asarray(phi).astype(bool)
    if phi.shape != (n,):
        raise ConfigError(f"phi shape {phi.shape} does not match {n} nodes")
    if rule.variant is RuleVariant.PAIRWISE_BASELINE:
        raise ValueError("the pairwise baseline has no step matrix; "
                         "use expected_weight_matrix")
    w = np.eye(n)
    src = w if rule.variant is RuleVariant.NEIGHBORHOOD_SET else np.eye(n)
    for i in np.flatnonzero(phi):
        rows, cols, b = update_block(g, int(i), rule)
        w[rows] = b @ src[cols]
    return w


def run_matrix_sim(cfg: RunConfig, activation_sequence: np.ndarray,
                   collect_messages: bool = False) -> Trace:
    """Scripted run: wake the nodes of activation row k at tick k + 1, for
    max_iterations steps, with no beacons. Every step records a row, so
    rows align one-to-one with the scripted steps, and the run never stops
    early.
    """
    n = cfg.graph.node_count
    seq = np.asarray(activation_sequence)
    if seq.ndim != 2 or seq.shape[1] != n:
        raise ConfigError(f"activation sequence shape {seq.shape} does not match {n} nodes")
    if seq.shape[0] < cfg.max_iterations:
        raise ConfigError("activation sequence shorter than max_iterations")
    if cfg.rule.variant is RuleVariant.PAIRWISE_BASELINE:
        raise ConfigError("scripted runs use the poll-round rules; "
                          "see run_pairwise_baseline")
    g = cfg.graph
    nbrs = _poll_lists(g)
    x0, _ = initial_states(cfg)
    rec = _Recorder(g, x0, 1, cfg.tolerance, collect_messages)
    step = max(1, _BLOCK_CELLS // n)
    ticks = ([np.flatnonzero(phi).tolist() for phi in seq[k:min(k + step, cfg.max_iterations)]]
             for k in range(0, cfg.max_iterations, step))
    # each slice of the script is compiled when its turn comes
    _play((_Schedule(cfg.rule, nbrs, t) for t in ticks), x0.tolist(), x0, rec)
    return rec.finish(lambda acts: _message_counts(g, acts, 0))


def run_pairwise_baseline(cfg: RunConfig, collect_messages: bool = False) -> Trace:
    """Randomized two-node exchange baseline.

    Each iteration picks a uniform node, then a uniform neighbor, and
    moves both toward each other by alpha of their gap (midpoint swap at
    alpha = 0.5). Two transmissions per iteration is the energy cost. A
    full-cycle window for sustained convergence is n iterations.
    """
    g = cfg.graph
    if g.directed:
        raise ConfigError("pairwise baseline runs on undirected graphs only")
    n = g.node_count
    alpha = cfg.rule.alpha
    x, rng = initial_states(cfg)
    rec = _Recorder(g, x, n, cfg.tolerance, collect_messages)
    log = rec.log
    nbrs = g.in_neighbors
    # the exchanges are recorded and judged a block at a time: a cycle of
    # n rows, or fewer where that would exceed _BLOCK_CELLS cells
    step = min(n, max(1, _BLOCK_CELLS // n))
    block = np.empty((step, n))
    active = np.empty((step, n), dtype=np.uint8)
    for lo in range(1, cfg.max_iterations + 1, step):
        m = min(step, cfg.max_iterations + 1 - lo)
        active[:m] = 0
        for r, k in enumerate(range(lo, lo + m)):
            i = int(rng.integers(n))
            j = int(nbrs[i][rng.integers(len(nbrs[i]))])
            delta = alpha * (x[j] - x[i])
            x[i] += delta
            x[j] -= delta
            if log is not None:
                log.append((k, _REQUEST, i, j, None))
                log.append((k, _ACK, j, i, float(x[j])))
            block[r] = x
            active[r, i] = active[r, j] = 1
        rec.record(block[:m], active[:m])
        if rec.judge():
            break
    # one request and one ack per exchange, one exchange per row after x0
    return rec.finish(lambda acts: dict.fromkeys((_REQUEST, _ACK), len(acts) - 1))
