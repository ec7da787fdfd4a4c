"""Oracle: the handlers of tests/node_protocol.py, driven one message at
a time, must give exactly what the engine's tick kernel gives.

The engine never calls the handlers; it applies the compiled layer
schedule. This file keeps the per-message path alive as an independent
reference for states, activations, ticks, message counts and the
message log, on the beacon wave (run_agent_sim) and on scripted
schedules (run_matrix_sim). The oracle spells the message kinds with its
own enum, so the log comparison also pins the --dump-messages names.
"""

from dataclasses import replace

import numpy as np
import pytest

from gossipsim import (RunConfig, UpdateRule, assign_layers, run_agent_sim, run_matrix_sim,
                       ticks_per_cycle)
from gossipsim.engine import ANCHOR_SRC, initial_states
from gossipsim.rules import RuleVariant

from conftest import FIFTY_NODE_KINDS, fifty_node_graph, small_graph_family
from node_protocol import (BROADCAST, Message, MessageKind, NodeState, on_beacon,
                           on_state_ack, on_state_request, on_wake_up)

POLL_RULES = (RuleVariant.NEIGHBORHOOD_SET, RuleVariant.PURE_NEIGHBOR,
              RuleVariant.SELF_ADDITIVE)


class ProtocolOracle:
    """Node table and radio log; every message goes through one handler call."""

    def __init__(self, cfg: RunConfig):
        g = cfg.graph
        und = g.control_adjacency()
        self.rule = cfg.rule
        self.layer = assign_layers(g).layer_of
        self.avg = [tuple(np.flatnonzero(g.adjacency[:, i])) for i in range(g.node_count)]
        self.ctrl = [frozenset(np.flatnonzero(row)) for row in und]
        self.next = [[j for j in np.flatnonzero(und[i]) if self.layer[j] == self.layer[i] + 1]
                     for i in range(g.node_count)]
        x0, _ = initial_states(cfg)
        self.nodes = [NodeState(id=i, x=float(v), layer=int(self.layer[i]))
                      for i, v in enumerate(x0)]
        self.counts = {k.value: 0 for k in MessageKind}
        self.log = []
        self.states, self.acts, self.ticks = [x0], [np.zeros(len(x0), np.uint8)], [0]

    def send(self, tick, msg):
        self.counts[msg.kind.value] += 1
        self.log.append((tick, msg.kind.value, msg.src, msg.dst, msg.payload))

    def tick(self, tick, triggers):
        """Run the poll rounds of the nodes in triggers (id -> None for a
        beacon, or the wake_up that reached it), record the row, and
        return the nodes the wake-up floods reach next."""
        sequential = self.rule.variant is RuleVariant.NEIGHBORHOOD_SET
        staged, updaters, targets = [], [], set()
        for i in sorted(triggers):
            stim = triggers[i]
            node = self.nodes[i]
            woken, reqs = (on_beacon(node, self.avg[i]) if stim is None
                           else on_wake_up(node, stim, self.avg[i]))
            if not reqs:
                continue
            self.nodes[i] = woken
            acks = []
            for req in reqs:
                self.send(tick, req)
                _, (ack,) = on_state_request(self.nodes[req.dst], req, self.ctrl[req.dst])
                self.send(tick, ack)
                acks.append(ack)
            staged.append((i, woken, acks))
            if sequential:
                targets |= self._fold(tick, *staged.pop())
                updaters.append(i)
        for i, woken, acks in staged:
            targets |= self._fold(tick, i, woken, acks)
            updaters.append(i)
        active = np.zeros(len(self.nodes), np.uint8)
        active[updaters] = 1
        self.states.append(np.array([nd.x for nd in self.nodes]))
        self.acts.append(active)
        self.ticks.append(tick)
        for i in updaters:  # phi drops back low after the processing slot
            self.nodes[i] = replace(self.nodes[i], phi=0)
        return targets

    def _fold(self, tick, i, node, acks):
        targets = set()
        for ack in acks:
            node, out = on_state_ack(node, ack, self.rule)
            for msg in out:
                self.send(tick, msg)
                targets.update(self.next[i])
        self.nodes[i] = node
        if self.rule.variant is RuleVariant.NEIGHBORHOOD_SET:
            for j in self.avg[i]:
                self.nodes[j] = replace(self.nodes[j], x=node.x)
        return targets

    def run_beacons(self, cfg, rows):
        """Beacon cycles until rows update rows are recorded."""
        t_cycle = ticks_per_cycle(cfg.duty, int(self.layer.max()))
        for cycle in range(cfg.max_iterations):
            if len(self.ticks) > rows:
                break
            tick = cycle * t_cycle
            self.send(tick + 1, Message(MessageKind.BEACON, ANCHOR_SRC, BROADCAST))
            triggers = {i: None for i in np.flatnonzero(self.layer == 1)}
            while triggers and len(self.ticks) <= rows:
                tick += 1
                triggers = {j: Message(MessageKind.WAKE_UP, ANCHOR_SRC, j, payload=1)
                            for j in sorted(self.tick(tick, triggers))}

    def run_scripted(self, schedule, steps):
        for k in range(steps):
            self.tick(k + 1, {i: Message(MessageKind.WAKE_UP, ANCHOR_SRC, i, payload=1)
                              for i in np.flatnonzero(schedule[k])})


def assert_same(oracle, trace):
    assert np.array_equal(np.vstack(oracle.states), trace.states)
    assert np.array_equal(np.vstack(oracle.acts), trace.activations)
    assert np.array_equal(oracle.ticks, trace.ticks)
    assert oracle.counts == trace.message_counts
    assert oracle.log == trace.messages


@pytest.mark.parametrize("variant", POLL_RULES, ids=lambda v: v.value)
@pytest.mark.parametrize("name", FIFTY_NODE_KINDS)
def test_beacon_wave_matches_handlers(name, variant):
    cfg = RunConfig(graph=fifty_node_graph(name), rule=UpdateRule(variant), seed=7,
                    max_iterations=3)
    trace = run_agent_sim(cfg, collect_messages=True)
    oracle = ProtocolOracle(cfg)
    oracle.run_beacons(cfg, trace.iterations - 1)
    assert_same(oracle, trace)


@pytest.mark.parametrize("variant", POLL_RULES, ids=lambda v: v.value)
def test_scripted_schedules_match_handlers(variant):
    rng = np.random.default_rng(5)
    for _, g in small_graph_family(7):
        schedule = (rng.random((10, g.node_count)) < 0.5).astype(np.uint8)
        cfg = RunConfig(graph=g, rule=UpdateRule(variant), seed=int(rng.integers(100)),
                        max_iterations=10)
        trace = run_matrix_sim(cfg, schedule, collect_messages=True)
        oracle = ProtocolOracle(cfg)
        oracle.run_scripted(schedule, cfg.max_iterations)
        assert_same(oracle, trace)
