"""Per-node state machine for the beacon-driven poll protocol: the
reference that test_protocol_oracle.py drives one message at a time and
that the engine's schedule kernel must match exactly. No run calls it.

Handlers are pure: each takes the current NodeState plus one stimulus and
returns a replacement state together with the messages the node emits in
response. The driver (test_protocol_oracle.ProtocolOracle) owns
delivery, timing, and addressing; in particular it only hands wake-ups
to sleeping nodes in the next layer out, and it applies the
common-average write-back of the neighborhood-set rule after the
initiating node finishes its round.

The protocol per node is small: sleep until a beacon (layer 1) or a
wake_up (deeper layers) arrives, poll the averaging neighbors with
state_request, collect one state_ack from each, fold the payloads per
the update rule, flash phi high while broadcasting wake_up outward, then
go back to sleep. A sleeping node still answers state requests; polling
must not require waking anyone.
"""

from __future__ import annotations

import logging
from dataclasses import dataclass, replace
from enum import Enum
from typing import Iterable, Sequence

from gossipsim.errors import SimulationError
from gossipsim.rules import UpdateRule

log = logging.getLogger(__name__)

BROADCAST = -1  # dst value for one-transmission broadcasts


class MessageKind(str, Enum):
    BEACON = "beacon"
    WAKE_UP = "wake_up"
    STATE_REQUEST = "state_request"
    STATE_ACK = "state_ack"


@dataclass(frozen=True)
class Message:
    kind: MessageKind
    src: int
    dst: int  # node id, or BROADCAST
    payload: float | int | None = None

    def __post_init__(self) -> None:
        if self.kind is MessageKind.STATE_ACK:
            if not isinstance(self.payload, float):
                raise SimulationError("state_ack must carry exactly one real payload")
        elif self.kind is MessageKind.WAKE_UP:
            if self.payload not in (0, 1):
                raise SimulationError("wake_up must carry a phi bit")
        elif self.payload is not None:
            raise SimulationError(f"{self.kind.value} carries no payload")


class Phase(str, Enum):
    INACTIVE = "inactive"
    AWAITING_STATES = "awaiting_states"


@dataclass(frozen=True)
class NodeState:
    id: int
    x: float
    layer: int
    phi: int = 0
    phase: Phase = Phase.INACTIVE
    pending_acks: frozenset[int] = frozenset()
    heard: tuple[tuple[int, float], ...] = ()  # (src, payload) in arrival order

    def __post_init__(self) -> None:
        if self.phase is Phase.INACTIVE and self.pending_acks:
            raise SimulationError("inactive node cannot have pending acks")


def _start_poll(node: NodeState, avg_neighbors: Sequence[int]) -> tuple[NodeState, list[Message]]:
    targets = sorted(avg_neighbors)
    if not targets:
        raise SimulationError(f"node {node.id} has nobody to poll")
    reqs = [Message(MessageKind.STATE_REQUEST, node.id, j) for j in targets]
    nxt = replace(node, phase=Phase.AWAITING_STATES,
                  pending_acks=frozenset(targets), heard=())
    return nxt, reqs


def on_beacon(node: NodeState, avg_neighbors: Sequence[int]) -> tuple[NodeState, list[Message]]:
    """Anchor beacon heard. Only a sleeping layer-1 node reacts."""
    if node.layer != 1 or node.phase is not Phase.INACTIVE or node.phi != 0:
        return node, []
    return _start_poll(node, avg_neighbors)


def on_wake_up(node: NodeState, msg: Message,
               avg_neighbors: Sequence[int]) -> tuple[NodeState, list[Message]]:
    """Wake-up flood reached this node; react only if asleep with phi low."""
    if msg.kind is not MessageKind.WAKE_UP:
        raise SimulationError(f"on_wake_up got a {msg.kind.value} message")
    if node.phase is not Phase.INACTIVE or node.phi != 0 or msg.payload != 1:
        return node, []
    return _start_poll(node, avg_neighbors)


def on_state_request(node: NodeState, msg: Message,
                     control_neighbors: Iterable[int]) -> tuple[NodeState, list[Message]]:
    """Answer a poll with the current state, regardless of phase or phi."""
    if msg.kind is not MessageKind.STATE_REQUEST:
        raise SimulationError(f"on_state_request got a {msg.kind.value} message")
    if msg.src not in set(control_neighbors):
        raise SimulationError(
            f"node {node.id} polled by non-neighbor {msg.src}")
    ack = Message(MessageKind.STATE_ACK, node.id, msg.src, payload=float(node.x))
    return node, [ack]


def on_state_ack(node: NodeState, msg: Message,
                 rule: UpdateRule) -> tuple[NodeState, list[Message]]:
    """Record one ack; on the last one compute the update and wake the next layer.

    Duplicate or unsolicited acks are ignored, so replaying a delivery is
    a no-op. When the final ack lands the node folds the collected
    payloads per the rule, raises phi, and broadcasts wake_up(1) in a
    single transmission; the driver routes it to next-layer neighbors
    and drops phi back low after the processing slot.
    """
    if msg.kind is not MessageKind.STATE_ACK:
        raise SimulationError(f"on_state_ack got a {msg.kind.value} message")
    if node.phase is not Phase.AWAITING_STATES or msg.src not in node.pending_acks:
        log.debug("node %d ignoring unsolicited ack from %d", node.id, msg.src)
        return node, []
    heard = node.heard + ((msg.src, float(msg.payload)),)
    pending = node.pending_acks - {msg.src}
    if pending:
        return replace(node, pending_acks=pending, heard=heard), []
    new_x = rule.fold((*(v for _, v in heard), node.x))
    done = replace(node, x=new_x, phi=1, phase=Phase.INACTIVE,
                   pending_acks=frozenset(), heard=())
    wake = Message(MessageKind.WAKE_UP, node.id, BROADCAST, payload=1)
    return done, [wake]
