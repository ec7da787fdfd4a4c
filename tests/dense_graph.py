"""Dense reference builders for the random topologies.

The package stores a graph as its arcs and builds random geometric
graphs on a cell grid. These are the dense builders it replaced: every
pairwise squared distance at once, one (n, n) uniform draw for
Erdos-Renyi, and a breadth-first search over dense adjacency rows. The
tests compare the package's builders with them, arc for arc.
"""

import numpy as np

from gossipsim.graph import MAX_ATTEMPTS


def dense_hops(und: np.ndarray, root: int) -> np.ndarray:
    """Breadth-first hop count of every node from root over the symmetric
    dense adjacency und; -1 for a node root cannot reach."""
    hop = np.full(und.shape[0], -1, dtype=np.int64)
    hop[root] = 0
    frontier = np.array([root])
    h = 0
    while len(frontier):
        h += 1
        frontier = np.flatnonzero(und[frontier].any(axis=0) & (hop < 0))
        hop[frontier] = h
    return hop


def dense_random_graph(n: int, seed, *, anchor: int = 0, radius: float = 0.3,
                       erdos_p: float | None = None) -> tuple[np.ndarray | None, int]:
    """(adjacency, attempts): the first sample of the random kind, with
    build_topology's keywords, that is connected from the anchor and the
    number of samples drawn, or (None, MAX_ATTEMPTS) when no sample is."""
    rng = np.random.default_rng(seed)
    for attempt in range(1, MAX_ATTEMPTS + 1):
        if erdos_p is not None:
            upper = np.triu(rng.random((n, n)) < erdos_p, k=1)
            adj = upper | upper.T
        else:
            pts = rng.uniform(0.0, 1.0, size=(n, 2))
            d2 = ((pts[:, None, :] - pts[None, :, :]) ** 2).sum(axis=2)
            adj = d2 <= radius ** 2
            np.fill_diagonal(adj, False)
        if (dense_hops(adj, anchor) >= 0).all():
            return adj, attempt
    return None, MAX_ATTEMPTS
