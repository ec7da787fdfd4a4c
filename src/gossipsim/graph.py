"""Sensor network topologies and anchor-rooted layers.

A graph here is a node set 0..n-1, stored as its sorted arcs, and one
distinguished vertex, ``anchor_id``, where the resource-rich beacon node
sits. Control traffic (beacons, wake-ups) travels over the undirected
radio graph; the direction of an arc only restricts which states a node
can overhear for averaging; the one directed kind, circular_directed, is
the ring of arcs i -> i + 1 mod n. Layers are breadth-first hop counts from the
anchor vertex, with the anchor's own vertex folded into layer 1 so that
every node carries a layer in 1..L and the layer sizes sum to n.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property, lru_cache

import numpy as np

from .errors import (ConfigError, DisconnectedTopologyError, TopologyError,
                     UnconnectableTopologyError)

TOPOLOGY_KINDS = ("chain", "star", "circular", "circular_directed", "complete",
                  "random_geometric")

#: samples a random kind draws before giving up on connecting the anchor
MAX_ATTEMPTS = 100

#: rows of the Erdos-Renyi uniform draw held at once
ER_BLOCK_ROWS = 64

#: candidate pairs of the geometric build, and arcs of a graph's checks,
#: held at once: 256 KiB of int64 per work array
PAIR_BLOCK = 1 << 15

#: graphs of the kinds drawn from no seed that one process keeps built:
#: a sweep's workers then build each of its (kind, n, anchor) once
DETERMINISTIC_GRAPHS = 16


@dataclass(frozen=True)
class Graph:
    """A connected graph stored as its arcs.

    arcs is (src, dst), the endpoints of every arc src -> dst in
    row-major order: arc keys src * n + dst strictly increase, which is
    the order np.nonzero gives for a dense adjacency. An undirected
    graph holds both arcs of every edge.
    """

    node_count: int
    anchor_id: int
    arcs: tuple[np.ndarray, np.ndarray]
    directed: bool = False

    def __post_init__(self) -> None:
        n = self.node_count
        if n < 2:
            raise TopologyError(f"need at least 2 nodes, got {n}")
        src, dst = (np.array(a, dtype=np.int64, ndmin=1) for a in self.arcs)
        if src.ndim != 1 or src.shape != dst.shape:
            raise TopologyError(f"arc arrays of shapes {src.shape} and {dst.shape}")
        if len(src) and (min(src.min(), dst.min()) < 0 or max(src.max(), dst.max()) >= n):
            raise TopologyError(f"arc endpoint out of range for {n} nodes")
        if (src == dst).any():
            raise TopologyError("self-loops are not allowed")
        # the keys, PAIR_BLOCK at a time, each chunk with the key after it
        for a in range(0, len(src), PAIR_BLOCK):
            keys = src[a:a + PAIR_BLOCK + 1] * n + dst[a:a + PAIR_BLOCK + 1]
            if (np.diff(keys) <= 0).any():
                raise TopologyError("arcs are not in strictly increasing row-major order")
        if not self.directed:
            # the reverse arcs' keys, sorted, are the keys, chunk by chunk
            rev = dst * n
            rev += src
            rev.sort()
            for a in range(0, len(src), PAIR_BLOCK):
                if not np.array_equal(rev[a:a + PAIR_BLOCK],
                                      src[a:a + PAIR_BLOCK] * n + dst[a:a + PAIR_BLOCK]):
                    raise TopologyError("undirected graph has an arc without its reverse")
            del rev  # before the search
        src.flags.writeable = False
        dst.flags.writeable = False
        object.__setattr__(self, "arcs", (src, dst))
        if not (0 <= self.anchor_id < n):
            raise TopologyError(f"anchor_id {self.anchor_id} out of range for {n} nodes")
        if (self.hops < 0).any():
            raise DisconnectedTopologyError("graph is not connected from the anchor vertex")

    # Views of the arcs, computed on first use and shared read-only.

    @cached_property
    def hops(self) -> np.ndarray:
        """Breadth-first hop count of every node from the anchor over the
        radio graph, computed once by the connectivity check. An
        undirected graph, checked symmetric before this runs, is already
        the radio graph; a directed one adds the reverse of every arc."""
        n = self.node_count
        src, dst = _undirected(*self.arcs, n) if self.directed else self.arcs
        hop = _hops(_offsets(src, n), dst, self.anchor_id)
        hop.flags.writeable = False
        return hop

    @cached_property
    def adjacency(self) -> np.ndarray:
        """Dense (n, n) bool view, adjacency[i, j] meaning arc i -> j. It
        costs n * n bytes, so no run path reads it."""
        adj = np.zeros((self.node_count, self.node_count), dtype=bool)
        adj[self.arcs] = True
        adj.flags.writeable = False
        return adj

    @cached_property
    def in_neighbors(self) -> tuple[np.ndarray, ...]:
        """Each node's averaging in-neighbors (sources of its in-arcs), ascending."""
        src, dst = self.arcs
        if not self.directed:  # each node's in-neighbors are its out-neighbors
            return tuple(np.split(dst, _offsets(src, self.node_count)[1:-1]))
        # arcs come in row-major order, so a stable sort by target keeps
        # each node's sources ascending
        by_dst = src[np.argsort(dst, kind="stable")]
        by_dst.flags.writeable = False
        bounds = np.cumsum(np.bincount(dst, minlength=self.node_count))[:-1]
        return tuple(np.split(by_dst, bounds))

    @cached_property
    def schedules(self) -> dict:
        """Run schedules compiled for this graph, keyed by every other
        compile input; the engine fills it, so that a graph built once
        is compiled once for each."""
        return {}


def _undirected(a: np.ndarray, b: np.ndarray, n: int) -> tuple[np.ndarray, np.ndarray]:
    """Row-major arcs of the undirected graph on n nodes with edges (a, b),
    each edge as both of its arcs, repeated edges once."""
    keys = np.empty(2 * len(a), dtype=np.int64)
    np.multiply(a, n, out=keys[:len(a)])
    keys[:len(a)] += b
    np.multiply(b, n, out=keys[len(a):])
    keys[len(a):] += a
    keys.sort()
    if (keys[1:] == keys[:-1]).any():  # a repeated edge
        keys = keys[np.diff(keys, prepend=-1) != 0]
    src = keys // n
    return src, np.remainder(keys, n, out=keys)


def _offsets(src: np.ndarray, n: int) -> np.ndarray:
    """CSR offsets of row-major arcs: node i's arcs are offsets[i]:offsets[i + 1]."""
    return np.searchsorted(src, np.arange(n + 1))


def _hops(offsets: np.ndarray, dst: np.ndarray, root: int) -> np.ndarray:
    """Breadth-first hop count of every node from root over the symmetric
    graph with CSR offsets and arc targets dst; -1 for a node root cannot
    reach. Plain Python: O(n + arcs), with no per-level numpy calls,
    which would dominate on small graphs and long chains. The targets are
    read through a memoryview, which makes each int as it is read: no
    list of every arc's target is held."""
    off, nbr = offsets.tolist(), memoryview(dst)
    hop = [-1] * (len(off) - 1)
    hop[root] = 0
    frontier, h = [root], 0
    left = len(hop) - 1  # nodes without a hop count
    # a level that leaves no node without a count ends the search: the
    # next would only rescan arcs, (n - 1) ** 2 of them on a complete graph
    while frontier and left:
        h += 1
        reached = []
        for u in frontier:
            for v in nbr[off[u]:off[u + 1]]:
                if hop[v] < 0:
                    hop[v] = h
                    reached.append(v)
        left -= len(reached)
        frontier = reached
    return np.array(hop, dtype=np.int64)


def build_topology(kind: str, n: int, *, anchor: int = 0, radius: float = 0.3,
                   erdos_p: float | None = None, seed: int | None = None) -> Graph:
    """Construct one of the named test topologies, rooted at anchor.

    Only the random geometric kind reads radius, the connection radius
    of nodes drawn on the unit square. Setting erdos_p swaps the
    geometric sampler for an Erdos-Renyi one with that edge probability,
    under the same connectivity retry loop. Random kinds resample up to
    MAX_ATTEMPTS times until the result is connected from the anchor,
    then fail with UnconnectableTopologyError. Everything is
    deterministic for a fixed (kind, n, anchor, radius, erdos_p, seed).
    The other kinds read none of radius, erdos_p and seed, and each of
    the last DETERMINISTIC_GRAPHS (kind, n, anchor) built is built once
    per process: the same Graph object is returned, with the schedules
    compiled for it.
    """
    if kind not in TOPOLOGY_KINDS:
        raise ConfigError(f"unknown topology kind {kind!r}; expected one of {TOPOLOGY_KINDS}")
    if n < 2:
        raise ConfigError(f"need at least 2 nodes, got {n}")
    if not (0 <= anchor < n):
        raise ConfigError(f"anchor {anchor} out of range for {n} nodes")

    if kind == "random_geometric":  # optionally Erdos-Renyi
        return _build_random(n, anchor, radius, erdos_p, seed)
    return _build_deterministic(kind, n, anchor)


@lru_cache(maxsize=DETERMINISTIC_GRAPHS)
def _build_deterministic(kind: str, n: int, anchor: int) -> Graph:
    idx = np.arange(n)
    if kind == "chain":
        arcs = _undirected(idx[:-1], idx[1:], n)
    elif kind == "star":
        arcs = _undirected(np.full(n - 1, anchor), np.delete(idx, anchor), n)
    elif kind == "circular":
        arcs = _undirected(idx, (idx + 1) % n, n)
    elif kind == "circular_directed":
        arcs = (idx, (idx + 1) % n)
    else:  # complete
        # each node's n - 1 others, in order: skip its own index
        src, dst = np.repeat(idx, n - 1), np.tile(np.arange(n - 1), n)
        dst += dst >= src
        arcs = (src, dst)
    return Graph(node_count=n, anchor_id=anchor, arcs=arcs,
                 directed=kind == "circular_directed")


def _build_random(n: int, anchor: int, radius: float, erdos_p: float | None,
                  seed: int | None) -> Graph:
    if erdos_p is None and not 0.0 < radius:
        raise ConfigError("random_geometric needs a positive radius")
    if erdos_p is not None and not (0.0 < erdos_p <= 1.0):
        raise ConfigError(f"erdos_p must lie in (0, 1], got {erdos_p}")
    rng = np.random.default_rng(seed)
    for _ in range(MAX_ATTEMPTS):
        if erdos_p is not None:
            src, dst = _erdos_renyi_arcs(rng, n, erdos_p)
        else:
            # any radius of 2 or more joins every pair of the unit square;
            # capped there so that radius ** 2 cannot overflow
            src, dst = _geometric_arcs(rng.uniform(0.0, 1.0, size=(n, 2)), min(radius, 2.0))
        if not np.bincount(src, minlength=n).all():
            continue  # a node without arcs: disconnected, with no search
        try:  # the graph's own connectivity check is the sample's one search
            return Graph(node_count=n, anchor_id=anchor, arcs=(src, dst))
        except DisconnectedTopologyError:
            continue
    raise UnconnectableTopologyError(
        f"no connected sample in {MAX_ATTEMPTS} attempts "
        f"(n={n}, radius={radius}, erdos_p={erdos_p})")


def _erdos_renyi_arcs(rng: np.random.Generator, n: int,
                      p: float) -> tuple[np.ndarray, np.ndarray]:
    """Arcs of the graph with edge i < j where u[i, j] < p, u being the
    (n, n) uniform draw rng.random((n, n)), drawn ER_BLOCK_ROWS rows at a
    time: the same numbers from the same stream."""
    a, b = [], []
    for lo in range(0, n, ER_BLOCK_ROWS):
        i, j = np.nonzero(rng.random((min(ER_BLOCK_ROWS, n - lo), n)) < p)
        i += lo
        a.append(i[j > i])
        b.append(j[j > i])
    return _undirected(np.concatenate(a), np.concatenate(b), n)


def _geometric_arcs(pts: np.ndarray, radius: float) -> tuple[np.ndarray, np.ndarray]:
    """Arcs between the points of pts, (n, 2) in the unit square, whose
    squared distance is at most radius ** 2.

    Each point is bucketed into a grid of m x m square cells and compared
    only with the points of the 3 x 3 block of cells around its own. The
    radius spans at most 1 - 1/(isqrt(n) + 2) of a cell's side 1/m, a
    margin far above rounding, so two points within reach always lie in
    the same or adjacent cells. m is capped near sqrt(n), so no array
    grows with 1 / radius, and only occupied cells are indexed. The
    points go in runs of the cell order, each with at most PAIR_BLOCK
    candidate pairs, so that no work array grows with the arcs.
    """
    n = len(pts)
    m = max(1, int(min(1.0 / radius, math.isqrt(n) + 2)) - 1)
    cell = np.minimum((pts * m).astype(np.int64), m - 1)
    key = cell[:, 0] * m + cell[:, 1]
    order = np.argsort(key, kind="stable")
    # the occupied cells, ascending, and where each one's points start in order
    sorted_key = key[order]
    first = np.flatnonzero(np.diff(sorted_key, prepend=-1))
    occupied, size = sorted_key[first], np.diff(first, append=n)
    # a point meets at most five cells' points
    run = max(1, PAIR_BLOCK // (5 * int(size.max())))
    a, b = [], []
    for lo in range(0, n, run):
        own = np.arange(lo, min(lo + run, n))
        # each unordered pair once: from every point, the later points of its
        # own cell and all points of four of the eight neighbouring cells
        nbr = cell[order[own]][:, None, :] + np.array([[0, 0], [0, 1], [1, -1], [1, 0], [1, 1]])
        nx, ny = nbr[..., 0], nbr[..., 1]
        want = nx * m + ny
        slot = np.minimum(np.searchsorted(occupied, want), len(occupied) - 1)
        hit = (nx < m) & (0 <= ny) & (ny < m) & (occupied[slot] == want)
        starts = np.where(hit, first[slot], 0)
        counts = np.where(hit, size[slot], 0)
        counts[:, 0] += starts[:, 0] - own - 1
        starts[:, 0] = own + 1
        i = order[np.repeat(own, counts.sum(axis=1))]
        starts, counts = starts.ravel(), counts.ravel()
        # the sorted positions starts[k] .. starts[k] + counts[k] - 1, for every k
        j = order[np.repeat(starts - np.cumsum(counts) + counts, counts) + np.arange(counts.sum())]
        near = ((pts[i] - pts[j]) ** 2).sum(axis=-1) <= radius ** 2
        a.append(i[near])
        b.append(j[near])
    return _undirected(np.concatenate(a), np.concatenate(b), n)


@dataclass(frozen=True)
class LayerAssignment:
    """Hop layers rooted at the anchor vertex.

    layer_of[i] is in 1..layer_count for every node; the anchor vertex is
    folded into layer 1 together with its radio neighbors.
    """

    layer_of: np.ndarray  # (n,) int64
    layer_count: int


def assign_layers(g: Graph) -> LayerAssignment:
    """Breadth-first layers over the radio graph, rooted at the anchor."""
    layer_of = np.maximum(g.hops, 1)
    return LayerAssignment(layer_of=layer_of, layer_count=int(layer_of.max()))
