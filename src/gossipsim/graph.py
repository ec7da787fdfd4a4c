"""Sensor network topologies and anchor-rooted layers.

A graph here is a node set 0..n-1 with boolean adjacency and one
distinguished vertex, ``anchor_id``, where the resource-rich beacon node
sits. Control traffic (beacons, wake-ups) travels over the undirected
radio graph; the direction of an arc only restricts which states a node
can overhear for averaging; the one directed kind, circular_directed, is
the ring of arcs i -> i + 1 mod n. Layers are breadth-first hop counts from the
anchor vertex, with the anchor's own vertex folded into layer 1 so that
every node carries a layer in 1..L and the layer sizes sum to n.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .errors import ConfigError, TopologyError, UnconnectableTopologyError

TOPOLOGY_KINDS = ("chain", "star", "circular", "circular_directed", "complete",
                  "random_geometric")

#: samples a random kind draws before giving up on connecting the anchor
MAX_ATTEMPTS = 100


@dataclass(frozen=True)
class TopologyParams:
    """Knobs shared by the topology builders.

    Only the random geometric kind reads radius, the connection radius
    of nodes drawn on the unit square. Setting erdos_p swaps the
    geometric sampler for an Erdos-Renyi one with that edge probability,
    under the same connectivity retry loop.
    """

    anchor: int = 0
    radius: float = 0.3
    erdos_p: float | None = None


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
        if (self.hops < 0).any():
            raise TopologyError("graph is not connected from the anchor vertex")

    def control_adjacency(self) -> np.ndarray:
        """Undirected radio view used for beacons, wake-ups, and layers."""
        return self.adjacency | self.adjacency.T

    # Views of adjacency, computed on first use and shared read-only, so
    # adjacency must not change in place after construction.

    @cached_property
    def hops(self) -> np.ndarray:
        """Breadth-first hop count of every node from the anchor over the
        radio graph, computed once by the connectivity check."""
        hop = _hops(self.control_adjacency(), self.anchor_id)
        hop.flags.writeable = False
        return hop

    @cached_property
    def arcs(self) -> tuple[np.ndarray, np.ndarray]:
        """Arc endpoints (i, j), i.e. np.nonzero(adjacency) in row-major order."""
        i, j = np.nonzero(self.adjacency)
        i.flags.writeable = False
        j.flags.writeable = False
        return i, j

    @cached_property
    def in_neighbors(self) -> tuple[np.ndarray, ...]:
        """Each node's averaging in-neighbors (sources of its in-arcs), ascending."""
        src, dst = self.arcs
        # arcs come in row-major order, so a stable sort by target keeps
        # each node's sources ascending
        by_dst = src[np.argsort(dst, kind="stable")]
        by_dst.flags.writeable = False
        bounds = np.cumsum(np.bincount(dst, minlength=self.node_count))[:-1]
        return tuple(np.split(by_dst, bounds))


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

    Random kinds resample up to MAX_ATTEMPTS times until the result is
    connected from the anchor, then fail with
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
    elif kind in ("circular", "circular_directed"):
        idx = np.arange(n)
        adj[idx, (idx + 1) % n] = True
        if kind == "circular":
            adj |= adj.T
    elif kind == "complete":
        adj[:] = True
        np.fill_diagonal(adj, False)
    else:  # random_geometric, optionally Erdos-Renyi
        return _build_random(n, params, seed)
    return Graph(node_count=n, anchor_id=params.anchor, adjacency=adj,
                 directed=kind == "circular_directed")


def _build_random(n: int, params: TopologyParams, seed: int | None) -> Graph:
    if params.erdos_p is None and not 0.0 < params.radius:
        raise ConfigError("random_geometric needs a positive radius")
    if params.erdos_p is not None and not (0.0 < params.erdos_p <= 1.0):
        raise ConfigError(f"erdos_p must lie in (0, 1], got {params.erdos_p}")
    rng = np.random.default_rng(seed)
    for _ in range(MAX_ATTEMPTS):
        if params.erdos_p is not None:
            upper = np.triu(rng.random((n, n)) < params.erdos_p, k=1)
            adj = upper | upper.T
        else:
            pts = rng.uniform(0.0, 1.0, size=(n, 2))
            d2 = ((pts[:, None, :] - pts[None, :, :]) ** 2).sum(axis=2)
            adj = d2 <= params.radius ** 2
            np.fill_diagonal(adj, False)
        if (_hops(adj, params.anchor) >= 0).all():
            return Graph(node_count=n, anchor_id=params.anchor, adjacency=adj)
    raise UnconnectableTopologyError(
        f"no connected sample in {MAX_ATTEMPTS} attempts "
        f"(n={n}, radius={params.radius}, erdos_p={params.erdos_p})")


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
    layer_of = np.maximum(g.hops, 1)
    count = int(layer_of.max())
    sizes = np.bincount(layer_of, minlength=count + 1)[1:]
    return LayerAssignment(layer_of=layer_of, layer_count=count, layer_sizes=sizes)
