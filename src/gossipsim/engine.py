"""Simulation backends for the duty-cycled averaging protocol.

Every poll-round run goes through one tick kernel, _apply_tick, which
folds each initiator of a tick with UpdateRule.fold:

* run_agent_sim runs the beacon protocol. The anchor's beacon wakes hop
  layer 1 and each layer's wake-up flood wakes the next, so every beacon
  cycle updates layer m at tick cycle * T + m, initiators in ascending
  id; the run computes the hop layers once and applies that schedule.
  The per-message protocol handlers that tests/test_protocol_oracle.py
  drives are the reference it is tested against; no run calls them.
* run_matrix_sim is the one scripted runner: it wakes the nodes of
  activation row k at tick k + 1.

Both report closed-form message counts and, on request, the message
log. step_matrix and closed_form_state write the same steps as explicit
matrices, built from rules.single_active_matrix.

Time: one tick is one hop slot of d_mean + t_c. A full sweep occupies L
consecutive ticks. Delay variance stretches the beacon period (see
duty_cycle.beacon_period); individual messages always travel at the mean
delay, and the period never drops below one sweep.

Iteration accounting: trace rows are update events (one tick each).
max_iterations counts beacon cycles for the agent backend and steps for
the matrix/pairwise backends. analysis.convergence_rounds converts a
trace back to per-node update rounds.

Within one tick the neighborhood-set rule processes initiators
sequentially in ascending node id, each full poll round atomic, so the
polled values include same-tick write-backs; that ordering is what keeps
the global sum exact. The pure-neighbor and self-additive rules instead
answer all polls before anyone computes, which makes same-tick updates
simultaneous and matches the activation-gated matrix form
diag(phi) A + (I - diag(phi)): inactive rows hold their value.
"""

from __future__ import annotations

from dataclasses import dataclass
from math import ceil, isfinite

import numpy as np

from .analysis import Trace, convergence_time, disagreement_rows, make_trace, sustained_run
from .duty_cycle import DutyCycleParams, beacon_period
from .errors import ConfigError, SimulationError
from .graph import Graph, assign_layers
from .rules import RuleVariant, UpdateRule, single_active_matrix

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


def ticks_per_cycle(duty: DutyCycleParams, layer_count: int, cycles: int = 1) -> int:
    """Beacon period in integer ticks; at least one full sweep of layer_count
    ticks. Raises ConfigError unless the last tick of cycles beacon cycles
    fits in int64."""
    ratio = beacon_period(layer_count, duty.d_mean, duty.t_c, duty.d_var) / duty.slot()
    if not isfinite(ratio):
        raise ConfigError("d_mean, t_c and d_var give a beacon cycle of no finite tick count")
    ticks = max(layer_count, ceil(ratio - 1e-12))
    if ticks * cycles > np.iinfo(np.int64).max:
        raise ConfigError(f"{cycles} beacon cycles of {ticks:.3g} ticks overflow int64 ticks")
    return ticks


class _Recorder:
    """Trace rows of a run, judged a block at a time with the reduction
    and window rule of the finished trace's metrics, so that the run
    stops on the numbers metrics.csv reports. Each block starts with the
    row judged last: only x0 is ever judged alone."""

    def __init__(self, graph: Graph, x0: np.ndarray, cycle_ticks: int, tol: float):
        self.graph = graph
        self.cycle_ticks = cycle_ticks
        self.tol = tol
        self.states = [np.asarray(x0, dtype=float).copy()]
        self.acts = [np.zeros(graph.node_count, dtype=np.uint8)]
        self.ticks = [0]
        self.judged = self.run_from = 0  # rows judged; first row of the ok run they end in
        self.converged = False

    def record(self, tick: int, x: np.ndarray, active: np.ndarray) -> None:
        self.states.append(x.copy())
        self.acts.append(active.astype(np.uint8))
        self.ticks.append(tick)

    def judge(self) -> bool:
        """Judge the rows recorded since the last call. Once a run of ok
        rows spans a cycle, drop the rows after the row where it does and
        return True."""
        new = len(self.states) - self.judged
        block = np.array(self.states[max(self.judged - 1, 0):])
        ok = np.ones(len(self.states) - self.run_from, dtype=bool)
        ok[-new:] = disagreement_rows(block, self.graph)[-new:] < self.tol
        run = sustained_run(ok, np.array(self.ticks[self.run_from:]), self.cycle_ticks)
        if run is not None:
            end = self.run_from + run[1] + 1
            del self.states[end:], self.acts[end:], self.ticks[end:]
            self.converged = True
        elif not ok.all():
            self.run_from += int(np.flatnonzero(~ok)[-1]) + 1
        self.judged = len(self.states)
        return self.converged

    def finish(self, messages: list | None) -> Trace:
        """The trace of the rows kept, and of the messages sent up to the
        last row's tick."""
        trace = make_trace(self.graph, self.states[0], self.cycle_ticks)
        trace.states = np.vstack(self.states)
        trace.activations = np.vstack(self.acts)
        trace.ticks = np.asarray(self.ticks, dtype=np.int64)
        trace.converged = self.converged
        while messages and messages[-1][0] > self.ticks[-1]:
            messages.pop()
        trace.messages = messages
        return trace


def _in_neighbors(g: Graph) -> tuple[list[np.ndarray], np.ndarray]:
    """Each node's averaging in-neighbors in ascending id, and the in-degrees."""
    src, dst = g.arcs
    in_deg = np.bincount(dst, minlength=g.node_count)
    # arcs come in row-major order, so a stable sort by target keeps each
    # node's sources ascending
    by_dst = src[np.argsort(dst, kind="stable")]
    return np.split(by_dst, np.cumsum(in_deg)[:-1]), in_deg


def _apply_tick(x: np.ndarray, ids: list[int], rule: UpdateRule,
                in_nbrs: list[np.ndarray], tick: int, log: list | None) -> None:
    """Run one tick's poll rounds on x in place, initiators in ids order.

    Under the neighborhood-set rule the initiators go one after another,
    each writing the common value back to itself and the nodes it polled,
    so later initiators read earlier ones' results. Under the other rules
    every initiator reads x as it stood at the start of the tick. log, if
    given, receives one (tick, kind, src, dst, payload) per message, in
    the order the protocol's per-node handlers emit them.
    """
    sequential = rule.variant is RuleVariant.NEIGHBORHOOD_SET
    staged = []
    for i in ids:
        nb = in_nbrs[i]
        if not len(nb):
            raise SimulationError(f"node {i} has nobody to poll")
        polled = x[nb].tolist()
        if log is not None:
            for j, v in zip(nb.tolist(), polled):
                log.append((tick, _REQUEST, i, j, None))
                log.append((tick, _ACK, j, i, v))
        if sequential:
            x[nb] = x[i] = rule.fold(float(x[i]), polled)
            if log is not None:
                log.append((tick, _WAKE_UP, i, BROADCAST, 1))
        else:
            staged.append(rule.fold(float(x[i]), polled))
    if not sequential:
        x[ids] = staged
        if log is not None:
            log.extend((tick, _WAKE_UP, i, BROADCAST, 1) for i in ids)


def _message_counts(trace: Trace, in_deg: np.ndarray, beacons: int) -> dict[str, int]:
    """Messages of a finished poll-round run, in closed form: each update
    sends one request to and gets one ack from every in-neighbor, then
    broadcasts one wake-up."""
    updates = trace.activations.sum(axis=0, dtype=np.int64)
    polls = int(updates @ in_deg)
    return {_BEACON: beacons, _WAKE_UP: int(updates.sum()),
            _REQUEST: polls, _ACK: polls}


def run_agent_sim(cfg: RunConfig, collect_messages: bool = False) -> Trace:
    """Agent-level simulation: max_iterations beacon cycles of the full
    protocol, or fewer once disagreement holds below tolerance for one
    full beacon period."""
    log: list | None = [] if collect_messages else None
    lay = assign_layers(cfg.graph)
    # row m - 1 flags hop layer m, the nodes tick m of every cycle updates
    waves = lay.layer_of == np.arange(1, lay.layer_count + 1)[:, None]
    wave_ids = [np.flatnonzero(w).tolist() for w in waves]
    in_nbrs, in_deg = _in_neighbors(cfg.graph)
    x0, _ = initial_states(cfg)
    x = x0.copy()
    t_cycle = ticks_per_cycle(cfg.duty, lay.layer_count, cfg.max_iterations)
    rec = _Recorder(cfg.graph, x0, t_cycle, cfg.tolerance)
    if t_cycle <= 1:  # x0 alone can end the run, as a one-row trace's series judges it
        rec.judge()
    cycles = 0
    while not rec.converged and cycles < cfg.max_iterations:
        base = cycles * t_cycle
        cycles += 1
        if log is not None:
            log.append((base + 1, _BEACON, ANCHOR_SRC, BROADCAST, None))
        for m in range(lay.layer_count):
            _apply_tick(x, wave_ids[m], cfg.rule, in_nbrs, base + m + 1, log)
            rec.record(base + m + 1, x, waves[m])
        rec.judge()
    trace = rec.finish(log)
    trace.message_counts = _message_counts(trace, in_deg, cycles)
    return trace


def step_matrix(g: Graph, rule: UpdateRule, phi: np.ndarray) -> np.ndarray:
    """Explicit state matrix for one step under activation row phi.

    Inactive rows keep their value. The neighborhood-set rule composes
    its per-initiator exchange matrices in ascending id order, matching
    the agent backend's sequential processing; the simultaneous rules
    replace one row per active node.
    """
    n = g.node_count
    phi = np.asarray(phi).astype(bool)
    if phi.shape != (n,):
        raise ConfigError(f"phi shape {phi.shape} does not match {n} nodes")
    w = np.eye(n)
    for i in np.flatnonzero(phi):
        single = single_active_matrix(g, int(i), rule)
        if rule.variant is RuleVariant.NEIGHBORHOOD_SET:
            w = single @ w
        else:
            w[i] = single[i]
    return w


def run_matrix_sim(cfg: RunConfig, activation_sequence: np.ndarray,
                   collect_messages: bool = False) -> Trace:
    """Scripted run: wake the nodes of activation row k at tick k + 1, for
    max_iterations steps, with no beacons. Every step records a row, so
    rows align one-to-one with the scripted steps. The run never stops
    early, so its rows are judged once, at the end.
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
    in_nbrs, in_deg = _in_neighbors(cfg.graph)
    log: list | None = [] if collect_messages else None
    x, _ = initial_states(cfg)
    rec = _Recorder(cfg.graph, x, 1, cfg.tolerance)
    for k in range(cfg.max_iterations):
        _apply_tick(x, np.flatnonzero(seq[k]).tolist(), cfg.rule, in_nbrs, k + 1, log)
        rec.record(k + 1, x, seq[k] != 0)
    trace = rec.finish(log)
    trace.converged = convergence_time(trace, cfg.tolerance) is not None
    trace.message_counts = _message_counts(trace, in_deg, 0)
    return trace


def closed_form_state(cfg: RunConfig, activation_sequence: np.ndarray,
                      k: int) -> np.ndarray:
    """State vector at step k via the explicit product (W_k ... W_1) x0,
    W_j the step_matrix of activation row j, instead of the recursion.

    Mathematically equal to run_matrix_sim's row k; numerically it takes
    an entirely different path, which is what makes it a useful
    cross-check.
    """
    seq = np.asarray(activation_sequence)
    if not (0 <= k <= seq.shape[0]):
        raise ConfigError(f"step {k} outside the scripted sequence of {seq.shape[0]}")
    w = np.eye(cfg.graph.node_count)
    for phi in seq[:k]:
        w = step_matrix(cfg.graph, cfg.rule, phi) @ w
    return w @ initial_states(cfg)[0]


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
    rec = _Recorder(g, x, n, cfg.tolerance)
    nbrs = [np.flatnonzero(g.adjacency[i]) for i in range(n)]
    log: list | None = [] if collect_messages else None
    for k in range(1, cfg.max_iterations + 1):
        i = int(rng.integers(n))
        j = int(nbrs[i][rng.integers(len(nbrs[i]))])
        delta = alpha * (x[j] - x[i])
        x[i] += delta
        x[j] -= delta
        if log is not None:
            log.append((k, _REQUEST, i, j, None))
            log.append((k, _ACK, j, i, float(x[j])))
        active = np.zeros(n, dtype=np.uint8)
        active[[i, j]] = 1
        rec.record(k, x, active)
        if (k % n == 0 or k == cfg.max_iterations) and rec.judge():
            break
    trace = rec.finish(log)
    trace.message_counts = dict.fromkeys((_REQUEST, _ACK), trace.iterations - 1)
    return trace
