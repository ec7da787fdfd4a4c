"""Simulation backends for the duty-cycled averaging protocol.

Every poll-round run goes through one schedule kernel, _Schedule: a
fixed list of ticks, each the initiators it wakes in order, compiled
once into static read maps. A run goes through it in passes. A pass
folds on a Python list of values that starts as the states before it:
each initiator gathers its reads, its polled in-neighbors' entries and
then its own, through its map, with one operator.itemgetter, and its
rule's plain fold (rules.FOLDS) appends the value it adopts. No fold
writes a state back; the next pass starts from one gather of the list's
end states, and the pass's trace rows are one gather of the list
through the source map built at compile time: for every (tick, node)
cell, the entry of the list that the cell holds. A message log is built
from the same reads, once a pass is complete.

* run_agent_sim runs the beacon protocol. The anchor's beacon wakes hop
  layer 1 and each layer's wake-up flood wakes the next, so every beacon
  cycle updates layer m at its tick m, initiators in ascending id. The
  cycle is compiled as one schedule once per graph, rule and span
  budget and kept on the Graph, and a block of c cycles runs c passes of
  it: blocks of 1, 2, 4, ... span cycles when the cycle fits span > 1
  times in _SPAN_CELLS cells. The per-message protocol handlers that
  tests/test_protocol_oracle.py drives are the reference it is tested
  against; no run calls them.
* run_matrix_sim is the one scripted runner: it wakes the nodes of
  activation row k at tick k + 1, compiling its script a block at a
  time.
* run_pairwise_baseline runs its exchanges on a list of the states
  too, a block at a time. It takes the block's node draws from one bulk
  draw of the rng's 32-bit words, decoded by _bounded as numpy's scalar
  Generator.integers calls would draw them, and fills the block's rows
  with one gather through a last-writer source map.

No array of rows gathered through a source map holds more than
analysis._BLOCK_CELLS cells, the one budget, which this module reads
from analysis when it runs: the recorder judges a block, and the
trace's passes read it, in the chunks of analysis.row_chunks, the one
gather of rows, however tall the block; the scripted and pairwise
runners also size their blocks by it. A schedule compiled for several
passes writes every pass's source map into one array, in place, as the
first pass's shifted; a map of more than the budget's cells is int32
while its entries fit. Every runner takes its block heights from
_heights: a first height, then twice the one before, up to a most.

Each runner records its rows in a _Recorder, a block of rows at a time,
and the recorder, the one judge, judges every row once, as it records
it: analysis.disagreement_rows gives a row the same value whatever rows
are summed with it, so a block may span many windows. After each block
the recorder applies the window rule of analysis.sustained_run to the
new rows, which stops the run on the first row that completes a window;
the runners size their blocks so that a run computes past its stop at
most about as many rows as it kept. A block reaches the recorder as the
kernel made it, a values array and the source map its rows are gathered
through, with the block's activation flags, and the recorder keeps it
in that form: an agent block's maps are views of its compiled cycle, so
the block holds only the n + folds values of each pass, where its rows
would hold n states a tick. When the run ends it builds its frozen
Trace in one call: the blocks cut to the rows kept, the disagreements
it computed for them, which the trace keeps as its series, their
closed-form message counts and, on request, the message log up to the
last row. The trace reads converged off that series by the same rule
for every backend, and every pass over its rows gathers them a chunk
at a time.
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
sequentially in ascending node id, each full poll round atomic, so an
initiator reads the common values of the ones before it in its tick;
that ordering is what keeps the global sum exact. The pure-neighbor and
self-additive rules instead answer all polls before anyone computes, so
every initiator reads the states at the start of its tick, which makes
same-tick updates simultaneous and matches the activation-gated matrix
form diag(phi) A + (I - diag(phi)): inactive rows hold their value.
"""

from __future__ import annotations

from collections.abc import Callable, Iterator
from dataclasses import dataclass
from functools import partial
from math import isfinite
from operator import itemgetter

import numpy as np

from . import analysis
from .analysis import Trace, disagreement_rows, row_chunks, sustained_run
from .errors import ConfigError, SimulationError
from .graph import Graph, assign_layers
from .rules import FOLDS, RuleVariant, UpdateRule, update_block

#: cells of the schedule run_agent_sim compiles from several beacon cycles
#: when more than one cycle fits. Far below analysis._BLOCK_CELLS: a
#: small run often converges early inside its largest block, and every
#: cycle folded past the stop is wasted.
_SPAN_CELLS = 1 << 12

ANCHOR_SRC = -1  # message src used by the anchor entity
BROADCAST = -1  # message dst of a one-transmission broadcast
# message kinds, as the --dump-messages log spells them
_BEACON, _WAKE_UP, _REQUEST, _ACK = "beacon", "wake_up", "state_request", "state_ack"


@dataclass
class RunConfig:
    """Everything one run needs; validation happens at construction."""

    graph: Graph
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
    """Trace rows of a run, the disagreement of each computed once, as
    it is recorded, and the window rule of the finished trace's metrics
    applied to it, so that the run stops on the numbers metrics.csv
    reports. The recorder is the one judge: its values become the trace's
    disagreements. log, when messages are collected, is the
    list the run appends its messages to, each stamped with rows: the
    index of the row its tick is recorded in.

    A runner hands over each block as the kernel made it: a values
    array, a (rows, n) source map into it and the block's (rows, n)
    activation flags. The recorder gathers the block's rows once, to
    judge them, in the chunks of analysis.row_chunks whatever the
    block's height, and keeps the triple, not the rows: the agent's maps
    are views of its compiled cycle, so each of its blocks costs its
    values alone. finish cuts the blocks to the rows kept and hands them
    to the trace as they are.
    """

    def __init__(self, graph: Graph, x0: np.ndarray, cycle_ticks: int, tol: float,
                 collect_messages: bool):
        n = graph.node_count
        self.graph = graph
        self.cycle_ticks = cycle_ticks
        self.tol = tol
        self.log: list | None = [] if collect_messages else None
        self.blocks: list[tuple[np.ndarray, np.ndarray, np.ndarray]] = []
        self.rows = 0  # rows recorded and kept
        self.checked = 0  # rows the window rule has seen
        self.series = np.empty(0)  # the disagreement of every row, and room for more
        self.converged = False
        self.record(x0, np.arange(n)[None], np.zeros((1, n), dtype=np.uint8))

    def record(self, values: np.ndarray, src: np.ndarray, acts: np.ndarray) -> None:
        """Judge the (rows, n) block of states values.take(src), in the
        chunks of analysis.row_chunks, and keep the block, with its
        activation flags acts."""
        end = self.rows + len(src)
        if len(self.series) < end:  # no view of it is ever taken
            self.series.resize(2 * end, refcheck=False)
        for k, states, _ in row_chunks(((values, src, acts),)):
            k += self.rows
            self.series[k:k + len(states)] = disagreement_rows(states, self.graph)
        self.blocks.append((values, src, acts))
        self.rows = end

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
            self.converged = True
        return self.converged

    def finish(self, counts: Callable[[np.ndarray, int], dict[str, int]]) -> Trace:
        """The trace of the rows kept, with counts(updates, rows) as its
        message counts, updates being each node's update count over those
        rows, the messages sent in the ticks of those rows, and the
        disagreements of those rows."""
        log = self.log
        while log and log[-1][0] >= self.rows:
            log.pop()
        blocks, top = [], 0
        for values, src, acts in self.blocks:
            if top == self.rows:
                break
            h = min(len(src), self.rows - top)
            blocks.append((values, src[:h], acts[:h]))
            top += h
        updates = sum(acts.sum(axis=0, dtype=np.int64) for _, _, acts in blocks)
        self.series.resize(self.rows, refcheck=False)
        return Trace(graph=self.graph, blocks=tuple(blocks), cycle_ticks=self.cycle_ticks,
                     tolerance=self.tol, message_counts=counts(updates, self.rows),
                     messages=log, disagreements=self.series)


def _nobody(i: int, values: list[float]) -> tuple[float, ...]:
    """The reads of node i, which has no in-neighbor: they fail its fold."""
    raise SimulationError(f"node {i} has nobody to poll")


class _Schedule:
    """A fixed list of ticks, each the initiators it wakes in ascending
    id, compiled for the runs of its poll rule on graph g. A run goes
    through it in passes, each from the end states of the one before;
    beacon says whether each pass starts a beacon cycle, which logs the
    anchor's beacon first.

    A pass folds on a list of values that starts as the n states before
    it and to which each initiator's value is appended, in schedule
    order, so a pass's list holds width = n + folds entries. Compiling
    walks the ticks once and records static read maps: reads[k] gathers,
    from that list, the entries fold k reads, its polled in-neighbors
    and then itself, as they stand at that point of the schedule; under
    the simultaneous rules that point is the start of its tick. end
    gathers the pass's end states, and src holds, for every (tick, node)
    cell of the first passes passes, the entry of their joined lists that
    the node holds after that tick: the one-pass map shifted by p * width
    for pass p. acts flags each tick's initiators, for as many passes.
    """

    def __init__(self, rule: UpdateRule, g: Graph, ticks: list[list[int]],
                 beacon: bool = False, passes: int = 1):
        n = g.node_count
        self.variant, self.height, self.beacon = rule.variant, len(ticks), beacon
        self.passes = passes  # the most a block runs
        self.sequential = rule.variant is RuleVariant.NEIGHBORHOOD_SET
        h = len(ticks)
        # a map wider than a gather budget halves as int32, while its entries
        # fit; a smaller one stays intp, which take reads without a cast
        width = n + sum(map(len, ticks))
        wide = passes * h * n > analysis._BLOCK_CELLS and passes * width < 1 << 31
        self.src = src = np.empty((passes * h, n), dtype=np.int32 if wide else np.intp)
        self.acts = acts = np.zeros((passes * h, n), dtype=np.uint8)
        self.reads = []
        holds = list(range(n))  # the entry each node holds
        v = n  # entry of the next initiator's value
        for t, ids in enumerate(ticks):
            # the simultaneous rules' initiators all read the tick's start
            seen = holds if self.sequential else holds[:]
            for i in ids:
                # listed one node at a time: lists of every node's
                # in-neighbors would leave memory behind that the run
                # cannot reuse (1 MB on 4000 nodes of mean degree 15)
                nb = g.in_neighbors[i].tolist()
                self.reads.append(itemgetter(*[seen[j] for j in nb], seen[i]) if nb
                                  else partial(_nobody, i))
                holds[i] = v
                if self.sequential:
                    for j in nb:
                        holds[j] = v
                v += 1
            src[t] = holds
            acts[t, ids] = 1
        self.end = itemgetter(*holds)
        self.width = v
        for p in range(1, passes):  # pass p's map is the first's shifted, in place
            np.add(src[:h], p * v, out=src[p * h:(p + 1) * h])
            acts[p * h:(p + 1) * h] = acts[:h]

    def run(self, x: list[float], passes: int, values: list[float]) -> list[float]:
        """Run passes passes from the states x and return the end states
        of the last, extending values by each pass's list once the pass
        is complete: if a fold raises, values holds the passes before it.
        No fold writes a state back: each reads through its map.
        """
        fold, reads, end = FOLDS[self.variant], self.reads, self.end
        for _ in range(passes):
            cur = list(x)
            append = cur.append
            try:
                for get in reads:
                    append(fold(get(cur)))
            except ValueError as exc:  # -inf + inf, as UpdateRule.fold raises it
                raise OverflowError(str(exc)) from None
            values += cur
            x = end(cur)
        return x

    def record(self, rec: _Recorder, values: list[float], passes: int) -> None:
        """Record the rows of the first passes passes, whose lists values
        holds, and log their messages if rec collects them: one (tick,
        kind, src, dst, payload) each, in the order the anchor and the
        protocol's per-node handlers emit them, each ack carrying the
        state its fold read."""
        ticks = passes * self.height
        log = rec.log
        if log is not None:
            in_nbrs, tick, w = rec.graph.in_neighbors, rec.rows, self.width
            for p in range(passes):
                cur = values[p * w:(p + 1) * w]
                reads = iter(self.reads)
                if self.beacon:
                    log.append((tick, _BEACON, ANCHOR_SRC, BROADCAST, None))
                for phi in self.acts[:self.height]:
                    ids = np.flatnonzero(phi).tolist()
                    for i in ids:
                        for j, s in zip(in_nbrs[i].tolist(), next(reads)(cur)):
                            log += ((tick, _REQUEST, i, j, None), (tick, _ACK, j, i, s))
                        if self.sequential:
                            log.append((tick, _WAKE_UP, i, BROADCAST, 1))
                    if not self.sequential:
                        log.extend((tick, _WAKE_UP, i, BROADCAST, 1) for i in ids)
                    tick += 1
        # fromiter, given the length, skips the dtype discovery of
        # converting a list: a third of a small block's gather
        rec.record(np.fromiter(values, float, len(values)), self.src[:ticks],
                   self.acts[:ticks])


def _poll_lists(graph: Graph) -> list[list[int]]:
    """Each node's in-neighbors as a list of ints, every node one shared
    int object, so that a list costs a pointer per arc."""
    ids = list(range(graph.node_count))
    return [[ids[j] for j in nb.tolist()] for nb in graph.in_neighbors]


def _heights(first: int, most: int, total: int) -> Iterator[int]:
    """Block heights that sum to total: min(first, most), then twice the
    height before, up to most; the last is cut to fit."""
    height = min(first, most)
    while total > 0:
        yield min(height, total)
        total -= height
        height = min(2 * height, most)


def _message_counts(graph: Graph, updates: np.ndarray, beacons: int) -> dict[str, int]:
    """Messages of a poll-round run whose nodes updated updates[i] times
    each, in closed form: each update sends one request to and gets one
    ack from every in-neighbor, then broadcasts one wake-up."""
    polls = int(updates @ np.bincount(graph.arcs[1], minlength=graph.node_count))
    return {_BEACON: beacons, _WAKE_UP: int(updates.sum()),
            _REQUEST: polls, _ACK: polls}


def _beacon_cycle(g: Graph, rule: UpdateRule) -> _Schedule:
    """The beacon cycle of g under rule, compiled once per compile input
    and kept on g: tick m - 1 of every cycle wakes hop layer m, in
    ascending id. A cycle that fits span > 1 times in _SPAN_CELLS cells
    is compiled for blocks of up to span passes."""
    key = (rule.variant, _SPAN_CELLS)
    cycle = g.schedules.get(key)
    if cycle is None:
        lay = assign_layers(g)
        waves = [np.flatnonzero(lay.layer_of == m).tolist()
                 for m in range(1, lay.layer_count + 1)]
        span = max(1, _SPAN_CELLS // (lay.layer_count * g.node_count))
        cycle = g.schedules[key] = _Schedule(rule, g, waves, beacon=True, passes=span)
    return cycle


def run_agent_sim(cfg: RunConfig, collect_messages: bool = False) -> Trace:
    """Agent-level simulation: max_iterations beacon cycles of the full
    protocol, or fewer once disagreement holds below tolerance for one
    full beacon cycle of layer_count ticks.

    The run's blocks run 1, 2, 4, ... span cycles, each a pass of the
    compiled cycle, so that a run computes at most span - 1 cycles past
    its stop, never more than it kept.
    """
    g = cfg.graph
    cycle = _beacon_cycle(g, cfg.rule)
    x0, _ = initial_states(cfg)
    rec = _Recorder(g, x0, cycle.height, cfg.tolerance, collect_messages)
    x = x0.tolist()
    for passes in _heights(1, cycle.passes, cfg.max_iterations):
        values: list[float] = []
        try:
            x = cycle.run(x, passes, values)
        except (OverflowError, SimulationError):
            # the cycles before the one that failed ran as they would
            # have one by one: the run stops there if they converge,
            # and otherwise fails as it would have in that cycle
            done = len(values) // cycle.width
            if done:
                cycle.record(rec, values, done)
            if not (done and rec.judge()):
                raise
            break
        cycle.record(rec, values, passes)
        if rec.judge():
            break
    # one beacon for each cycle with a row kept
    return rec.finish(lambda updates, rows: _message_counts(
        g, updates, -(-(rows - 1) // cycle.height)))


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
    x0, _ = initial_states(cfg)
    rec = _Recorder(g, x0, 1, cfg.tolerance, collect_messages)
    step = max(1, analysis._BLOCK_CELLS // n)
    x = x0.tolist()
    for m in _heights(step, step, cfg.max_iterations):
        # each block of the script is compiled when its turn comes; tick
        # k + 1 wakes the nodes of row k
        k = rec.rows - 1
        part = _Schedule(cfg.rule, g, [np.flatnonzero(phi).tolist() for phi in seq[k:k + m]])
        values: list[float] = []
        x = part.run(x, 1, values)
        part.record(rec, values, 1)
    return rec.finish(lambda updates, rows: _message_counts(g, updates, 0))


def _bounded(rng: np.random.Generator, words: list[int], p: int, bound: int) -> tuple[int, int]:
    """int(rng.integers(bound)) as numpy's Generator draws it, from
    words[p:], the rng's next 32-bit words. Returns the value and the
    index of the first word left.

    The draw is Lemire's: word w gives (w * bound) >> 32, unless the low
    32 bits of w * bound fall below (2**32 - bound) % bound, which rejects
    w for the next word. A bound of 1 uses no word. For each word it
    rejects, the rng's next word is appended to words, so that a caller
    holding a word for each draw it makes never runs out.
    """
    if bound == 1:
        return 0, p
    floor = (0x100000000 - bound) % bound
    while True:
        m = words[p] * bound
        p += 1
        if m & 0xFFFFFFFF >= floor:
            return m >> 32, p
        words.extend(rng.integers(0, 1 << 32, size=1, dtype=np.uint64).tolist())


def run_pairwise_baseline(cfg: RunConfig, collect_messages: bool = False) -> Trace:
    """Randomized two-node exchange baseline.

    Each iteration picks a uniform node, then a uniform neighbor, and
    moves both toward each other by alpha of their gap (midpoint swap at
    alpha = 0.5). Two transmissions per iteration is the energy cost. A
    full-cycle window for sustained convergence is n iterations.

    The exchanges run a block at a time on a list of the states, drawing
    their nodes from one bulk draw of the rng's words, as the scalar
    draws would, and the block's rows are gathered in one call. A block
    holds n exchanges, then twice as many as the one before, up to
    analysis._BLOCK_CELLS cells, so that a run computes past its stop at
    most about as many exchanges as it kept.
    """
    g = cfg.graph
    if g.directed:
        raise ConfigError("pairwise baseline runs on undirected graphs only")
    n = g.node_count
    alpha = cfg.rule.alpha
    x0, rng = initial_states(cfg)
    rec = _Recorder(g, x0, n, cfg.tolerance, collect_messages)
    log = rec.log
    # each node's neighbors, their count and its rejection floor (see _bounded)
    picks = [(nb, len(nb), (0x100000000 - len(nb)) % len(nb)) for nb in _poll_lists(g)]
    n_floor = (0x100000000 - n) % n
    xs = x0.tolist()
    words: list[int] = []  # the rng's next 32-bit words, from p on
    p = 0
    for m in _heights(n, max(1, analysis._BLOCK_CELLS // n), cfg.max_iterations):
        # a word for each of the block's draws, two an exchange at most
        del words[:p]
        p = 0
        if len(words) < 2 * m:
            words.extend(rng.integers(0, 1 << 32, size=2 * m - len(words),
                                      dtype=np.uint64).tolist())
        pairs: list[int] = []  # i and j of each exchange, in row order
        values = xs[:]  # the row before the block, then i's and j's states after each
        for k in range(rec.rows, rec.rows + m):
            # _bounded's draws, inlined where they take the first word
            w = words[p] * n
            if w & 0xFFFFFFFF >= n_floor:
                i, p = w >> 32, p + 1
            else:
                i, p = _bounded(rng, words, p, n)
            nb, d, floor = picks[i]
            if d == 1:
                j = nb[0]
            else:
                w = words[p] * d
                if w & 0xFFFFFFFF >= floor:
                    j, p = nb[w >> 32], p + 1
                else:
                    r, p = _bounded(rng, words, p, d)
                    j = nb[r]
            xi, xj = xs[i], xs[j]
            delta = alpha * (xj - xi)
            xs[i] = xi = xi + delta
            xs[j] = xj = xj - delta
            pairs += (i, j)
            values += (xi, xj)
            if log is not None:
                log.append((k, _REQUEST, i, j, None))
                log.append((k, _ACK, j, i, xj))
        # each cell holds the last value written to it: row r writes
        # entries n + 2r and n + 2r + 1 of values
        at = np.arange(2 * m) // 2
        src = np.tile(np.arange(n), (m, 1))
        src[at, pairs] = np.arange(n, n + 2 * m)
        acts = np.zeros((m, n), dtype=np.uint8)
        acts[at, pairs] = 1
        rec.record(np.fromiter(values, float, len(values)),
                   np.maximum.accumulate(src, axis=0, out=src), acts)
        if rec.judge():
            break
    # one request and one ack per exchange, one exchange per row after x0
    return rec.finish(lambda updates, rows: dict.fromkeys((_REQUEST, _ACK), rows - 1))
