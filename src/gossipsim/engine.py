"""Simulation backends for the duty-cycled averaging protocol.

Two backends produce the same trajectories from two very different
mechanizations:

* run_agent_sim drives per-node state machines (node_protocol) with
  beacons, wake-up floods, and poll rounds on an integer tick clock.
* run_matrix_sim applies explicit per-step averaging matrices to the
  state vector for a scripted activation sequence.

Time: one tick is one hop slot of d_mean + t_c. A beacon fires every
cycle; the wake wave then updates layer m at tick cycle * T + m, so a
full sweep occupies L consecutive ticks. Delay variance stretches the
beacon period (see duty_cycle.beacon_period); individual messages always
travel at the mean delay, and the period never drops below one sweep.

Iteration accounting: trace rows are update events (one tick each).
max_iterations counts beacon cycles for the agent backend and steps for
the scripted/matrix/pairwise backends. analysis.convergence_rounds
converts a trace back to per-node update rounds.

Within one tick the neighborhood-set rule processes initiators
sequentially in ascending node id, each full poll round atomic, so the
polled values include same-tick write-backs; that ordering is what keeps
the global sum exact. The pure-neighbor and self-additive rules instead
answer all polls before anyone computes, which makes same-tick updates
simultaneous and matches the activation-gated matrix form
diag(phi) A + (I - diag(phi)): inactive rows hold their value.

The rule arithmetic itself lives in rules.py: the backends apply
UpdateRule.fold, and step_matrix is built from single_active_matrix.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from math import ceil

import numpy as np

from . import node_protocol as proto
from .analysis import Trace, disagreement_of, make_trace
from .duty_cycle import DutyCycleParams, beacon_period
from .errors import ConfigError, LivenessError, TopologyError
from .graph import Graph, assign_layers
from .node_protocol import BROADCAST, Message, MessageKind, NodeState
from .rules import RuleVariant, UpdateRule, single_active_matrix

ANCHOR_SRC = -1  # message src used by the anchor entity


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
        if self.tolerance <= 0:
            raise ConfigError(f"tolerance must be > 0, got {self.tolerance}")
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


def ticks_per_cycle(cfg: RunConfig) -> int:
    """Beacon period in integer ticks; at least one full L-tick sweep."""
    lay = assign_layers(cfg.graph)
    slot = cfg.duty.slot()
    period = beacon_period(lay.layer_count, cfg.duty.d_mean, cfg.duty.t_c, cfg.duty.d_var)
    return max(lay.layer_count, ceil(period / slot - 1e-12))


class _Recorder:
    """Accumulates trace rows and watches for sustained convergence."""

    def __init__(self, graph: Graph, x0: np.ndarray, cycle_ticks: int, tol: float):
        self.graph = graph
        self.cycle_ticks = cycle_ticks
        self.tol = tol
        self.states = [np.asarray(x0, dtype=float).copy()]
        self.acts = [np.zeros(graph.node_count, dtype=np.uint8)]
        self.ticks = [0]
        self.first_ok_tick: int | None = 0 if disagreement_of(x0, graph) < tol else None
        self.converged = disagreement_of(x0, graph) < tol and cycle_ticks <= 1

    def record(self, tick: int, x: np.ndarray, active: np.ndarray) -> bool:
        """Append a row; returns True once tol has held for a full cycle."""
        self.states.append(np.asarray(x, dtype=float).copy())
        self.acts.append(active.astype(np.uint8))
        self.ticks.append(tick)
        if disagreement_of(x, self.graph) < self.tol:
            if self.first_ok_tick is None:
                self.first_ok_tick = tick
            if tick >= self.first_ok_tick + self.cycle_ticks - 1:
                self.converged = True
        else:
            self.first_ok_tick = None
        return self.converged

    def finish(self, x_avg_src: np.ndarray,
               message_counts: dict[str, int] | None = None,
               messages: list | None = None) -> Trace:
        trace = make_trace(self.graph, x_avg_src, self.cycle_ticks)
        trace.states = np.vstack(self.states)
        trace.activations = np.vstack(self.acts)
        trace.ticks = np.asarray(self.ticks, dtype=np.int64)
        trace.converged = self.converged
        trace.message_counts = message_counts or {}
        trace.messages = messages
        return trace


class _AgentNet:
    """Mutable node table plus message bookkeeping for the agent backend."""

    def __init__(self, cfg: RunConfig, collect_messages: bool):
        g = cfg.graph
        self.g = g
        self.rule = cfg.rule
        self.layers = assign_layers(g)
        adj = g.adjacency
        und = g.control_adjacency()
        self.avg_nbrs = [tuple(np.flatnonzero(adj[:, i])) for i in range(g.node_count)]
        self.ctrl_nbrs = [frozenset(np.flatnonzero(und[i])) for i in range(g.node_count)]
        lay = self.layers.layer_of
        self.next_layer = [tuple(j for j in np.flatnonzero(und[i]) if lay[j] == lay[i] + 1)
                           for i in range(g.node_count)]
        self.nodes = [NodeState(id=i, x=0.0, layer=int(lay[i])) for i in range(g.node_count)]
        self.counts: dict[str, int] = {k.value: 0 for k in MessageKind}
        self.log: list | None = [] if collect_messages else None

    def set_states(self, x: np.ndarray) -> None:
        for i, v in enumerate(x):
            self.nodes[i] = replace(self.nodes[i], x=float(v))

    def x_vector(self) -> np.ndarray:
        return np.array([nd.x for nd in self.nodes], dtype=float)

    def _note(self, tick: int, msg: Message) -> None:
        self.counts[msg.kind.value] += 1
        if self.log is not None:
            self.log.append((tick, msg.kind.value, msg.src, msg.dst, msg.payload))

    def _answer_polls(self, tick: int, reqs: list[Message]) -> list[Message]:
        acks = []
        for req in reqs:
            self._note(tick, req)
            _, out = proto.on_state_request(self.nodes[req.dst], req,
                                            self.ctrl_nbrs[req.dst])
            ack = out[0]
            self._note(tick, ack)
            acks.append(ack)
        return acks

    def _fold_acks(self, i: int, woken: NodeState, acks: list[Message],
                   tick: int) -> list[int]:
        """Deliver acks to node i, apply write-back, emit the wake flood.

        Returns the next-layer targets of the completed update.
        """
        cur = woken
        wake_targets: list[int] = []
        for ack in acks:
            cur, emitted = proto.on_state_ack(cur, ack, self.rule)
            for msg in emitted:
                self._note(tick, msg)
                if msg.kind is MessageKind.WAKE_UP:
                    wake_targets.extend(self.next_layer[i])
        self.nodes[i] = cur
        if self.rule.variant is RuleVariant.NEIGHBORHOOD_SET:
            common = cur.x
            for j in self.avg_nbrs[i]:
                self.nodes[j] = replace(self.nodes[j], x=common)
        return wake_targets

    def process_tick(self, tick: int, triggers: dict[int, Message | None]) -> tuple[list[int], set[int]]:
        """Run every poll round for one tick.

        triggers maps node id to the stimulus (None for a beacon, or the
        wake_up message that reached it). Returns (updater ids, next
        tick's wake targets).
        """
        order = sorted(triggers)
        updaters: list[int] = []
        next_targets: set[int] = set()
        if self.rule.variant is RuleVariant.NEIGHBORHOOD_SET:
            for i in order:
                woken, reqs = self._wake(i, triggers[i])
                if not reqs:
                    continue
                acks = self._answer_polls(tick, reqs)
                next_targets.update(self._fold_acks(i, woken, acks, tick))
                updaters.append(i)
        else:
            # answer every poll before anyone computes: same-tick updates
            # are simultaneous under these rules
            staged: list[tuple[int, NodeState, list[Message]]] = []
            for i in order:
                woken, reqs = self._wake(i, triggers[i])
                if not reqs:
                    continue
                acks = self._answer_polls(tick, reqs)
                staged.append((i, woken, acks))
            for i, woken, acks in staged:
                next_targets.update(self._fold_acks(i, woken, acks, tick))
                updaters.append(i)
        return updaters, next_targets

    def _wake(self, i: int, stim: Message | None) -> tuple[NodeState, list[Message]]:
        node = self.nodes[i]
        if stim is None:
            woken, reqs = proto.on_beacon(node, self.avg_nbrs[i])
        else:
            woken, reqs = proto.on_wake_up(node, stim, self.avg_nbrs[i])
        if reqs:
            self.nodes[i] = woken
        return woken, reqs

    def reset_phi(self, updaters: list[int]) -> None:
        # phi drops back low after the processing slot
        for i in updaters:
            self.nodes[i] = replace(self.nodes[i], phi=0)


def run_agent_sim(cfg: RunConfig, activation_schedule: np.ndarray | None = None,
                  collect_messages: bool = False) -> Trace:
    """Agent-level simulation.

    Without a schedule, runs max_iterations beacon cycles of the full
    protocol (or stops early once disagreement holds below tolerance for
    one full beacon period). With a scripted activation_schedule of shape
    (steps, n), the given nodes are woken directly at consecutive ticks,
    beacons and flood triggering are disabled, and every step records a
    row; steps must be at least max_iterations.
    """
    if activation_schedule is not None:
        return _run_agent_scripted(cfg, np.asarray(activation_schedule), collect_messages)
    net = _AgentNet(cfg, collect_messages)
    x0, _ = initial_states(cfg)
    net.set_states(x0)
    t_cycle = ticks_per_cycle(cfg)
    rec = _Recorder(cfg.graph, x0, t_cycle, cfg.tolerance)
    layer1 = [i for i in range(cfg.graph.node_count) if net.nodes[i].layer == 1]
    done = rec.converged
    for cycle in range(cfg.max_iterations):
        if done:
            break
        base = cycle * t_cycle
        net._note(base + 1, Message(MessageKind.BEACON, ANCHOR_SRC, BROADCAST))
        triggers: dict[int, Message | None] = {i: None for i in layer1}
        any_update = False
        tick = base
        while triggers:
            tick += 1
            updaters, targets = net.process_tick(tick, triggers)
            if updaters:
                any_update = True
                active = np.zeros(cfg.graph.node_count, dtype=np.uint8)
                active[updaters] = 1
                done = rec.record(tick, net.x_vector(), active)
                net.reset_phi(updaters)
                if done:
                    break
            triggers = {j: Message(MessageKind.WAKE_UP, ANCHOR_SRC, j, payload=1)
                        for j in sorted(targets)}
        if not any_update:
            raise LivenessError(
                f"no node updated during beacon cycle {cycle}; protocol stalled")
    return rec.finish(x0, net.counts, net.log)


def _run_agent_scripted(cfg: RunConfig, schedule: np.ndarray,
                        collect_messages: bool) -> Trace:
    n = cfg.graph.node_count
    if schedule.ndim != 2 or schedule.shape[1] != n:
        raise ConfigError(f"activation schedule shape {schedule.shape} "
                          f"does not match {n} nodes")
    if schedule.shape[0] < cfg.max_iterations:
        raise ConfigError("activation schedule shorter than max_iterations")
    if cfg.rule.variant is RuleVariant.PAIRWISE_BASELINE:
        raise ConfigError("scripted runs use the poll-round rules; "
                          "see run_pairwise_baseline")
    net = _AgentNet(cfg, collect_messages)
    x0, _ = initial_states(cfg)
    net.set_states(x0)
    rec = _Recorder(cfg.graph, x0, 1, cfg.tolerance)
    for k in range(cfg.max_iterations):
        tick = k + 1
        row = np.flatnonzero(schedule[k])
        triggers: dict[int, Message | None] = {
            int(i): Message(MessageKind.WAKE_UP, ANCHOR_SRC, int(i), payload=1)
            for i in row}
        updaters, _ = net.process_tick(tick, triggers)
        active = np.zeros(n, dtype=np.uint8)
        active[updaters] = 1
        rec.record(tick, net.x_vector(), active)
        net.reset_phi(updaters)
    return rec.finish(x0, net.counts, net.log)


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


def run_matrix_sim(cfg: RunConfig, activation_sequence: np.ndarray) -> Trace:
    """Matrix backend: apply per-step averaging matrices along a scripted
    activation sequence.

    Rows align one-to-one with the scripted steps, so a trace from here
    is directly comparable with a scripted run_agent_sim. Both fold with
    the same UpdateRule.fold, in the same order within a step.
    """
    g = cfg.graph
    n = g.node_count
    seq = np.asarray(activation_sequence)
    if seq.ndim != 2 or seq.shape[1] != n:
        raise ConfigError(f"activation sequence shape {seq.shape} does not match {n} nodes")
    if seq.shape[0] < cfg.max_iterations:
        raise ConfigError("activation sequence shorter than max_iterations")
    if cfg.rule.variant is RuleVariant.PAIRWISE_BASELINE:
        raise ConfigError("pairwise baseline has its own runner")
    x0, _ = initial_states(cfg)
    rec = _Recorder(g, x0, 1, cfg.tolerance)
    x = x0.copy()
    adj = g.adjacency
    in_nbrs = [np.flatnonzero(adj[:, i]) for i in range(n)]
    if not all(len(nb) for nb in in_nbrs):
        raise TopologyError("a node has no in-neighbors to average over")
    fold = cfg.rule.fold
    for k in range(cfg.max_iterations):
        active = np.flatnonzero(seq[k])
        if cfg.rule.variant is RuleVariant.NEIGHBORHOOD_SET:
            for i in active:
                nb = in_nbrs[i]
                x[nb] = x[i] = fold(x[i], x[nb])
        else:
            x_read = x.copy()
            for i in active:
                x[i] = fold(x_read[i], x_read[in_nbrs[i]])
        rec.record(k + 1, x, seq[k].astype(np.uint8))
    return rec.finish(x0, {})


def closed_form_state(cfg: RunConfig, activation_sequence: np.ndarray,
                      k: int) -> np.ndarray:
    """Stacked [states; activations] vector at step k via the explicit
    product solution instead of the recursion.

    The state part is (W_k ... W_1) x0 with W_j the step_matrix of
    activation row j; the activation inputs telescope, so the activation
    part is row k itself. Mathematically equal to run_matrix_sim's row k;
    numerically it takes an entirely different path, which is what makes
    it a useful cross-check.
    """
    g = cfg.graph
    n = g.node_count
    seq = np.asarray(activation_sequence)
    if not (0 <= k <= seq.shape[0]):
        raise ConfigError(f"step {k} outside the scripted sequence of {seq.shape[0]}")
    x0, _ = initial_states(cfg)
    if k == 0:
        return np.concatenate([x0, np.zeros(n)])
    w = np.eye(n)
    for phi in seq[:k]:
        w = step_matrix(g, cfg.rule, phi) @ w
    return np.concatenate([w @ x0, seq[k - 1].astype(float)])


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
    counts = {MessageKind.STATE_REQUEST.value: 0, MessageKind.STATE_ACK.value: 0}
    log: list | None = [] if collect_messages else None
    done = rec.converged
    for k in range(cfg.max_iterations):
        if done:
            break
        i = int(rng.integers(n))
        j = int(nbrs[i][rng.integers(len(nbrs[i]))])
        delta = alpha * (x[j] - x[i])
        x[i] += delta
        x[j] -= delta
        counts[MessageKind.STATE_REQUEST.value] += 1
        counts[MessageKind.STATE_ACK.value] += 1
        if log is not None:
            log.append((k + 1, MessageKind.STATE_REQUEST.value, i, j, None))
            log.append((k + 1, MessageKind.STATE_ACK.value, j, i, float(x[j])))
        active = np.zeros(n, dtype=np.uint8)
        active[[i, j]] = 1
        done = rec.record(k + 1, x, active)
    return rec.finish(rec.states[0], counts, log)
