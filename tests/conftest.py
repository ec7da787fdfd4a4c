"""Shared helpers for the test suite."""

import numpy as np
import pytest

from gossipsim import Graph, TopologyParams, build_topology, cli

# the five standard 50-node evaluation topologies
FIFTY_NODE_KINDS = ["chain", "star", "circular", "circular_directed", "random_geometric"]


def fifty_node_graph(kind: str, seed: int = 1) -> Graph:
    return build_topology(kind, 50, seed=seed)


def small_graph_family(max_n: int = 10):
    """Assorted small connected undirected graphs for property tests."""
    out = []
    for n in range(2, max_n + 1):
        out.append(("chain", build_topology("chain", n)))
        if n >= 3:
            out.append(("circular", build_topology("circular", n)))
        out.append(("star", build_topology("star", n)))
        out.append(("complete", build_topology("complete", n)))
    for seed in (0, 1, 2):
        out.append(("random_geometric",
                    build_topology("random_geometric", 8,
                                   TopologyParams(radius=0.55), seed=seed)))
    return out


def random_connected_graph(rng: np.random.Generator) -> Graph:
    kind = ["chain", "star", "circular", "complete", "random_geometric"][int(rng.integers(5))]
    n = int(rng.integers(2, 21))
    if kind == "circular" and n < 3:
        n = 3
    if kind == "random_geometric":
        return build_topology(kind, max(n, 4), TopologyParams(radius=0.6),
                              seed=int(rng.integers(2 ** 31)))
    return build_topology(kind, n)


@pytest.fixture
def serial_pool(monkeypatch):
    """Replace the sweep's process pool with one that maps in this process;
    returns the max_workers of every pool the sweep opens."""
    opened = []

    class SerialPool:
        def __init__(self, max_workers):
            opened.append(max_workers)

        def __enter__(self):
            return self

        def __exit__(self, *exc):
            return False

        def map(self, fn, tasks):
            return map(fn, tasks)

    monkeypatch.setattr(cli, "ProcessPoolExecutor", SerialPool)
    return opened
