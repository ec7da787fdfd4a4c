"""Pure handler behavior of the per-node protocol state machine, the
oracle in tests/node_protocol.py."""

import numpy as np
import pytest

from gossipsim import RunConfig, SimulationError, build_topology, run_agent_sim
from gossipsim.rules import RuleVariant, UpdateRule

from node_protocol import (
    BROADCAST,
    Message,
    MessageKind,
    NodeState,
    Phase,
    on_beacon,
    on_state_ack,
    on_state_request,
    on_wake_up,
)

NS = UpdateRule(RuleVariant.NEIGHBORHOOD_SET)


def sleeping(node_id=1, x=6.0, layer=1):
    return NodeState(id=node_id, x=x, layer=layer)


class TestMessageValidation:
    def test_ack_needs_real_payload(self):
        with pytest.raises(SimulationError):
            Message(MessageKind.STATE_ACK, 0, 1)
        with pytest.raises(SimulationError):
            Message(MessageKind.STATE_ACK, 0, 1, payload=1)

    def test_beacon_and_request_carry_nothing(self):
        with pytest.raises(SimulationError):
            Message(MessageKind.BEACON, -1, BROADCAST, payload=1.0)
        with pytest.raises(SimulationError):
            Message(MessageKind.STATE_REQUEST, 0, 1, payload=0.5)

    def test_wake_up_needs_bit(self):
        with pytest.raises(SimulationError):
            Message(MessageKind.WAKE_UP, 0, BROADCAST, payload=0.7)
        Message(MessageKind.WAKE_UP, 0, BROADCAST, payload=1)


class TestBeacon:
    def test_layer1_node_starts_poll(self):
        node, out = on_beacon(sleeping(), avg_neighbors=(0, 2))
        assert node.phase is Phase.AWAITING_STATES
        assert node.pending_acks == frozenset({0, 2})
        assert [m.kind for m in out] == [MessageKind.STATE_REQUEST] * 2
        assert [m.dst for m in out] == [0, 2]

    def test_deeper_layer_ignores(self):
        node = sleeping(layer=2)
        same, out = on_beacon(node, avg_neighbors=(0,))
        assert same == node and out == []

    def test_busy_node_ignores(self):
        node = NodeState(id=1, x=0.0, layer=1, phase=Phase.AWAITING_STATES,
                         pending_acks=frozenset({0}))
        same, out = on_beacon(node, avg_neighbors=(0,))
        assert same == node and out == []

    def test_raised_phi_ignores(self):
        node = NodeState(id=1, x=0.0, layer=1, phi=1)
        same, out = on_beacon(node, avg_neighbors=(0,))
        assert same == node and out == []


class TestWakeUp:
    def wake_msg(self, bit=1):
        return Message(MessageKind.WAKE_UP, 0, BROADCAST, payload=bit)

    def test_sleeping_node_wakes(self):
        node, out = on_wake_up(sleeping(layer=2), self.wake_msg(), (0, 2))
        assert node.phase is Phase.AWAITING_STATES
        assert len(out) == 2

    def test_zero_bit_ignored(self):
        node = sleeping(layer=2)
        same, out = on_wake_up(node, self.wake_msg(bit=0), (0,))
        assert same == node and out == []

    def test_active_node_ignores(self):
        node = NodeState(id=1, x=0.0, layer=2, phi=1)
        same, out = on_wake_up(node, self.wake_msg(), (0,))
        assert same == node and out == []


class TestStateRequest:
    def test_answers_with_current_state(self):
        node = sleeping(node_id=2, x=3.25, layer=2)
        req = Message(MessageKind.STATE_REQUEST, 1, 2)
        same, out = on_state_request(node, req, control_neighbors=(1, 3))
        assert same == node  # answering never mutates
        assert len(out) == 1
        ack = out[0]
        assert ack.kind is MessageKind.STATE_ACK
        assert ack.payload == 3.25
        assert ack.dst == 1

    def test_answers_even_while_polling(self):
        node = NodeState(id=2, x=1.0, layer=2, phase=Phase.AWAITING_STATES,
                         pending_acks=frozenset({3}))
        req = Message(MessageKind.STATE_REQUEST, 1, 2)
        same, out = on_state_request(node, req, control_neighbors=(1, 3))
        assert same.phase is Phase.AWAITING_STATES
        assert out[0].payload == 1.0

    def test_non_neighbor_rejected(self):
        node = sleeping(node_id=2)
        req = Message(MessageKind.STATE_REQUEST, 9, 2)
        with pytest.raises(SimulationError):
            on_state_request(node, req, control_neighbors=(1, 3))


class TestStateAck:
    def polling_node(self, x=6.0):
        return NodeState(id=1, x=x, layer=1, phase=Phase.AWAITING_STATES,
                         pending_acks=frozenset({0, 2}))

    def ack(self, src, value):
        return Message(MessageKind.STATE_ACK, src, 1, payload=float(value))

    def collect(self, rule, x=6.0, values=(0.0, 0.0)):
        node = self.polling_node(x)
        node, out = on_state_ack(node, self.ack(0, values[0]), rule)
        assert out == []  # nothing emitted until the set is complete
        assert node.phase is Phase.AWAITING_STATES
        node, out = on_state_ack(node, self.ack(2, values[1]), rule)
        return node, out

    def test_neighborhood_set_update(self):
        node, out = self.collect(NS)
        assert node.x == pytest.approx(2.0)
        assert node.phi == 1
        assert node.phase is Phase.INACTIVE
        assert node.pending_acks == frozenset()
        assert [m.kind for m in out] == [MessageKind.WAKE_UP]
        assert out[0].dst == BROADCAST and out[0].payload == 1

    def test_pure_neighbor_update(self):
        node, _ = self.collect(UpdateRule(RuleVariant.PURE_NEIGHBOR))
        assert node.x == pytest.approx(0.0)

    def test_self_additive_update(self):
        node, _ = self.collect(UpdateRule(RuleVariant.SELF_ADDITIVE))
        assert node.x == pytest.approx(6.0)

    def test_duplicate_ack_is_noop(self):
        node = self.polling_node()
        node, _ = on_state_ack(node, self.ack(0, 4.0), NS)
        replay, out = on_state_ack(node, self.ack(0, 4.0), NS)
        assert replay == node and out == []

    def test_unsolicited_ack_is_noop(self):
        node = sleeping()
        same, out = on_state_ack(node, self.ack(0, 4.0), NS)
        assert same == node and out == []

    def test_wrong_kind_rejected(self):
        node = self.polling_node()
        with pytest.raises(SimulationError):
            on_state_ack(node, Message(MessageKind.STATE_REQUEST, 0, 1), NS)


class TestInvariants:
    def test_inactive_with_pending_rejected(self):
        with pytest.raises(SimulationError):
            NodeState(id=0, x=0.0, layer=1, phase=Phase.INACTIVE,
                      pending_acks=frozenset({1}))

    def test_requests_match_acks_in_full_run(self):
        g = build_topology("random_geometric", 12, seed=3)
        cfg = RunConfig(graph=g, seed=3, max_iterations=6)
        trace = run_agent_sim(cfg, collect_messages=True)
        counts = trace.message_counts
        assert counts["state_request"] == counts["state_ack"]
        assert counts["state_request"] > 0

    def test_each_node_updates_once_per_cycle(self):
        from gossipsim import assign_layers
        g = build_topology("random_geometric", 12, seed=3)
        cfg = RunConfig(graph=g, seed=3, max_iterations=4, tolerance=1e-15)
        trace = run_agent_sim(cfg)
        t_cycle = assign_layers(g).layer_count
        # cycle c is rows c * t_cycle + 1 .. (c + 1) * t_cycle
        assert trace.iterations == 1 + 4 * t_cycle
        for c in range(4):
            per_node = trace.activations[c * t_cycle + 1:(c + 1) * t_cycle + 1].sum(axis=0)
            assert (per_node == 1).all()

    def test_wake_flood_moves_strictly_outward(self):
        from gossipsim import assign_layers
        g = build_topology("random_geometric", 15, seed=1)
        lay = assign_layers(g).layer_of
        cfg = RunConfig(graph=g, seed=1, max_iterations=3, tolerance=1e-15)
        trace = run_agent_sim(cfg)
        t_cycle = int(max(lay))
        for k in range(1, trace.iterations):
            active = np.flatnonzero(trace.activations[k])
            assert (lay[active] == (k - 1) % t_cycle + 1).all()
