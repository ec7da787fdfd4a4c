"""Sensor network topologies and anchor-rooted layers.

A graph here is a node set 0..n-1 with boolean adjacency and one
distinguished vertex, ``anchor_id``, where the resource-rich beacon node
sits. Control traffic (beacons, wake-ups) travels over the undirected
radio graph; the direction of an arc only restricts which states a node
can overhear for averaging. Layers are breadth-first hop counts from the
anchor vertex, with the anchor's own vertex folded into layer 1 so that
every node carries a layer in 1..L and the layer sizes sum to n.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .errors import ConfigError, TopologyError, UnconnectableTopologyError

TOPOLOGY_KINDS = ("chain", "star", "circular", "complete", "random_geometric")


@dataclass(frozen=True)
class TopologyParams:
    """Knobs shared by the topology builders.

    Only the random geometric kind reads side/radius/max_attempts, and
    only the circular kind honors directed. Setting erdos_p swaps the
    geometric sampler for an Erdos-Renyi one with that edge probability,
    under the same connectivity retry loop.
    """

    anchor: int = 0
    directed: bool = False
    side: float = 1.0
    radius: float = 0.3
    erdos_p: float | None = None
    max_attempts: int = 100


@dataclass(frozen=True)
class Graph:
    node_count: int
    anchor_id: int
    adjacency: np.ndarray  # (n, n) bool, adjacency[i, j] means arc i -> j
    directed: bool = False

    def __post_init__(self) -> None:
        adj = np.asarray(self.adjacency, dtype=bool)
        object.__setattr__(self, "adjacency", adj)
        n = self.node_count
        if n < 2:
            raise TopologyError(f"need at least 2 nodes, got {n}")
        if adj.shape != (n, n):
            raise TopologyError(f"adjacency shape {adj.shape} does not match node_count {n}")
        if adj.diagonal().any():
            raise TopologyError("self-loops are not allowed")
        if not self.directed and not np.array_equal(adj, adj.T):
            raise TopologyError("undirected graph has asymmetric adjacency")
        if not (0 <= self.anchor_id < n):
            raise TopologyError(f"anchor_id {self.anchor_id} out of range for {n} nodes")
        if (_hops(self.control_adjacency(), self.anchor_id) < 0).any():
            raise TopologyError("graph is not connected from the anchor vertex")

    def control_adjacency(self) -> np.ndarray:
        """Undirected radio view used for beacons, wake-ups, and layers."""
        return self.adjacency | self.adjacency.T

    @cached_property
    def arcs(self) -> tuple[np.ndarray, np.ndarray]:
        """Arc endpoints (i, j), i.e. np.nonzero(adjacency) in row-major order.

        Computed on first use and kept, since the recorder needs them on
        every trace row, so adjacency must not be changed in place after
        construction; the arrays are read-only because they are shared.
        """
        i, j = np.nonzero(self.adjacency)
        i.flags.writeable = False
        j.flags.writeable = False
        return i, j


def _hops(und: np.ndarray, root: int) -> np.ndarray:
    """Breadth-first hop count of every node from root over the symmetric
    adjacency und; -1 for a node root cannot reach."""
    hop = np.full(und.shape[0], -1, dtype=np.int64)
    hop[root] = 0
    frontier = np.array([root])
    h = 0
    while len(frontier):
        h += 1
        frontier = np.flatnonzero(und[frontier].any(axis=0) & (hop < 0))
        hop[frontier] = h
    return hop


def build_topology(kind: str, n: int, params: TopologyParams | None = None,
                   seed: int | None = None) -> Graph:
    """Construct one of the named test topologies.

    Random kinds resample up to params.max_attempts times until the
    result is connected from the anchor, then fail with
    UnconnectableTopologyError. Everything is deterministic for a fixed
    (kind, n, params, seed).
    """
    if params is None:
        params = TopologyParams()
    if kind not in TOPOLOGY_KINDS:
        raise ConfigError(f"unknown topology kind {kind!r}; expected one of {TOPOLOGY_KINDS}")
    if n < 2:
        raise ConfigError(f"need at least 2 nodes, got {n}")
    if not (0 <= params.anchor < n):
        raise ConfigError(f"anchor {params.anchor} out of range for {n} nodes")
    if params.directed and kind != "circular":
        raise ConfigError("directed variant is only defined for the circular topology")

    adj = np.zeros((n, n), dtype=bool)
    if kind == "chain":
        idx = np.arange(n - 1)
        adj[idx, idx + 1] = True
        adj |= adj.T
    elif kind == "star":
        hub = params.anchor
        adj[hub, :] = True
        adj[:, hub] = True
        adj[hub, hub] = False
    elif kind == "circular":
        idx = np.arange(n)
        adj[idx, (idx + 1) % n] = True
        if not params.directed:
            adj |= adj.T
    elif kind == "complete":
        adj[:] = True
        np.fill_diagonal(adj, False)
    else:  # random_geometric, optionally Erdos-Renyi
        return _build_random(n, params, seed)
    return Graph(node_count=n, anchor_id=params.anchor, adjacency=adj,
                 directed=params.directed and kind == "circular")


def _build_random(n: int, params: TopologyParams, seed: int | None) -> Graph:
    if params.erdos_p is None and not (0.0 < params.radius and 0.0 < params.side):
        raise ConfigError("random_geometric needs positive side and radius")
    if params.erdos_p is not None and not (0.0 < params.erdos_p <= 1.0):
        raise ConfigError(f"erdos_p must lie in (0, 1], got {params.erdos_p}")
    rng = np.random.default_rng(seed)
    for _ in range(params.max_attempts):
        if params.erdos_p is not None:
            upper = np.triu(rng.random((n, n)) < params.erdos_p, k=1)
            adj = upper | upper.T
        else:
            pts = rng.uniform(0.0, params.side, size=(n, 2))
            d2 = ((pts[:, None, :] - pts[None, :, :]) ** 2).sum(axis=2)
            adj = d2 <= params.radius ** 2
            np.fill_diagonal(adj, False)
        if (_hops(adj, params.anchor) >= 0).all():
            return Graph(node_count=n, anchor_id=params.anchor, adjacency=adj)
    raise UnconnectableTopologyError(
        f"no connected sample in {params.max_attempts} attempts "
        f"(n={n}, radius={params.radius}, side={params.side}, erdos_p={params.erdos_p})")


@dataclass(frozen=True)
class LayerAssignment:
    """Hop layers rooted at the anchor vertex.

    layer_of[i] is in 1..layer_count for every node; the anchor vertex is
    folded into layer 1 together with its radio neighbors.
    """

    layer_of: np.ndarray  # (n,) int64
    layer_count: int
    layer_sizes: np.ndarray  # (layer_count,) int64


def assign_layers(g: Graph) -> LayerAssignment:
    """Breadth-first layers over the radio graph, rooted at the anchor."""
    layer_of = np.maximum(_hops(g.control_adjacency(), g.anchor_id), 1)
    count = int(layer_of.max())
    sizes = np.bincount(layer_of, minlength=count + 1)[1:]
    return LayerAssignment(layer_of=layer_of, layer_count=count, layer_sizes=sizes)
