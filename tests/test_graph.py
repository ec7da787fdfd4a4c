"""Topology construction, layers and weight matrices."""

import time
import tracemalloc

import networkx as nx
import numpy as np
import pytest

from gossipsim import (
    DisconnectedTopologyError,
    Graph,
    TopologyError,
    UnconnectableTopologyError,
    assign_layers,
    build_topology,
    expected_weight_matrix,
    step_matrix,
)
from gossipsim import graph as graph_module
from gossipsim.errors import ConfigError
from gossipsim.rules import RuleVariant, UpdateRule

from conftest import graph_of, small_graph_family
from dense_graph import dense_hops, dense_random_graph


def radio(g: Graph) -> np.ndarray:
    """Undirected radio view used for beacons, wake-ups, and layers."""
    return g.adjacency | g.adjacency.T


def to_networkx(g: Graph):
    und = radio(g)
    nxg = nx.Graph()
    nxg.add_nodes_from(range(g.node_count))
    nxg.add_edges_from(zip(*np.nonzero(und)))
    return nxg


def control_degrees(g: Graph) -> np.ndarray:
    return radio(g).sum(axis=1)


class TestBuilders:
    def test_chain_degrees(self):
        g = build_topology("chain", 4)
        assert list(control_degrees(g)) == [1, 2, 2, 1]

    def test_star_hub_degree(self):
        g = build_topology("star", 4)
        assert control_degrees(g)[0] == 3
        assert list(control_degrees(g)[1:]) == [1, 1, 1]

    def test_circular_degrees(self):
        g = build_topology("circular", 6)
        assert (control_degrees(g) == 2).all()
        assert not g.directed

    def test_circular_directed(self):
        g = build_topology("circular_directed", 5)
        assert g.directed
        assert (g.adjacency.sum(axis=0) == 1).all()
        assert (g.adjacency.sum(axis=1) == 1).all()
        assert list(np.flatnonzero(g.adjacency[2])) == [3]
        assert list(np.flatnonzero(g.adjacency[:, 2])) == [1]

    def test_complete(self):
        g = build_topology("complete", 5)
        assert (control_degrees(g) == 4).all()

    @pytest.mark.parametrize("n", range(2, 41))
    def test_complete_arcs_are_every_ordered_pair(self, n):
        i, j = build_topology("complete", n).arcs
        want_i, want_j = np.nonzero(~np.eye(n, dtype=bool))
        assert np.array_equal(i, want_i) and np.array_equal(j, want_j)

    def test_unknown_kind(self):
        with pytest.raises(ConfigError):
            build_topology("hexgrid", 5)

    def test_too_small(self):
        with pytest.raises(ConfigError):
            build_topology("chain", 1)

    def test_rgg_deterministic_and_connected(self):
        a = build_topology("random_geometric", 30, radius=0.35, seed=9)
        b = build_topology("random_geometric", 30, radius=0.35, seed=9)
        assert np.array_equal(a.adjacency, b.adjacency)
        assert nx.is_connected(to_networkx(a))

    def test_rgg_unconnectable(self):
        with pytest.raises(UnconnectableTopologyError):
            build_topology("random_geometric", 40, radius=0.01, seed=0)

    def test_erdos_renyi_option(self):
        g = build_topology("random_geometric", 20, erdos_p=0.3, seed=4)
        assert nx.is_connected(to_networkx(g))
        h = build_topology("random_geometric", 20, erdos_p=0.3, seed=4)
        assert np.array_equal(g.adjacency, h.adjacency)

    def test_anchor_out_of_range(self):
        with pytest.raises(ConfigError):
            build_topology("chain", 4, anchor=4)


def assert_built_as_dense(n, seed, *, anchor, **params):
    """build_topology's random graph is the dense builder's, arcs and hops."""
    adj, attempts = dense_random_graph(n, seed, anchor=anchor, **params)
    if adj is None:
        with pytest.raises(UnconnectableTopologyError):
            build_topology("random_geometric", n, anchor=anchor, **params, seed=seed)
        return attempts
    g = build_topology("random_geometric", n, anchor=anchor, **params, seed=seed)
    i, j = np.nonzero(adj)
    assert np.array_equal(g.arcs[0], i) and np.array_equal(g.arcs[1], j)
    assert np.array_equal(g.hops, dense_hops(adj, anchor))
    return attempts


def traced_peak_bytes(fn) -> int:
    tracemalloc.start()
    try:
        fn()
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


class TestRandomBuilders:
    # (n, radius, anchor): radii of exactly 1/k, at and beyond the unit
    # square's side, anchors other than 0, and draws that need retries
    @pytest.mark.parametrize("n, radius, anchor", [
        (60, 0.25, 0), (40, 0.25, 7), (90, 1 / 6, 3), (30, 1 / 3, 29), (160, 0.125, 11),
        (25, 1.0, 4), (20, 1.7, 0), (50, 0.2, 17),
    ])
    def test_cell_grid_matches_dense_builder(self, n, radius, anchor):
        for seed in range(50):
            assert_built_as_dense(n, seed, anchor=anchor, radius=radius)

    # PAIR_BLOCK of 1: runs of one point, each with more candidates than
    # the block; of 1000: runs of a few dozen points
    @pytest.mark.parametrize("block", [1, 1000])
    def test_cell_grid_in_runs_of_points(self, monkeypatch, block):
        monkeypatch.setattr(graph_module, "PAIR_BLOCK", block)
        for n, radius, anchor in ((60, 0.25, 0), (90, 1 / 6, 3), (25, 1.0, 4)):
            for seed in range(5):
                assert_built_as_dense(n, seed, anchor=anchor, radius=radius)

    def test_second_attempt_matches_dense_builder(self):
        assert assert_built_as_dense(40, 8, anchor=7, radius=0.25) == 2
        assert assert_built_as_dense(40, 15, anchor=7, radius=0.25) == 6

    @pytest.mark.parametrize("block_rows", [1, 7, graph_module.ER_BLOCK_ROWS])
    @pytest.mark.parametrize("n, p", [(10, 0.5), (50, 0.1), (150, 0.03)])
    def test_erdos_renyi_matches_one_dense_draw(self, monkeypatch, block_rows, n, p):
        monkeypatch.setattr(graph_module, "ER_BLOCK_ROWS", block_rows)
        attempts = [assert_built_as_dense(n, seed, anchor=seed % n, erdos_p=p)
                    for seed in range(6)]
        assert max(attempts) > 1 or n == 10

    @pytest.mark.parametrize("anchor, seed, attempts", [(7, 8, 2), (7, 15, 6), (0, 0, 1)])
    def test_each_sample_is_searched_at_most_once(self, monkeypatch, anchor, seed, attempts):
        searched = []

        def counted(offsets, dst, root):
            searched.append(root)
            return hops(offsets, dst, root)

        hops = graph_module._hops
        monkeypatch.setattr(graph_module, "_hops", counted)
        assert assert_built_as_dense(40, seed, anchor=anchor, radius=0.25) == attempts
        # the graph's own check searches the sample it keeps; a rejected
        # sample is searched only when it has no node without arcs
        assert 1 <= len(searched) <= attempts

    def test_huge_radius_joins_every_pair(self):
        for radius in (2.0, 1e300, float("inf")):
            g = build_topology("random_geometric", 6, radius=radius, seed=0)
            assert np.array_equal(g.arcs, build_topology("complete", 6).arcs)

    def test_tiny_radius_fails_fast_in_little_memory(self):
        def build():
            with pytest.raises(UnconnectableTopologyError):
                build_topology("random_geometric", 2000, radius=1e-9, seed=0)

        t0 = time.perf_counter()
        assert traced_peak_bytes(build) < 4 * 2 ** 20
        assert time.perf_counter() - t0 < 10

    def test_ten_thousand_nodes_in_bounded_memory(self):
        # the dense builder would hold 1.6 GB of pairwise differences
        g = []
        peak = traced_peak_bytes(lambda: g.append(build_topology(
            "random_geometric", 10_000, radius=0.022, seed=0)))
        assert peak < 64 * 2 ** 20
        assert (g[0].hops >= 0).all() and len(g[0].arcs[0]) > 10 * 10_000


class TestGraphValidation:
    def test_self_loop_rejected(self):
        adj = np.zeros((3, 3), dtype=bool)
        adj[0, 1] = adj[1, 0] = True
        adj[1, 2] = adj[2, 1] = True
        adj[0, 0] = True
        with pytest.raises(TopologyError):
            graph_of(adj)

    def test_asymmetric_undirected_rejected(self):
        adj = np.zeros((3, 3), dtype=bool)
        adj[0, 1] = True
        adj[1, 2] = adj[2, 1] = True
        with pytest.raises(TopologyError):
            graph_of(adj)

    def test_disconnected_rejected(self):
        adj = np.zeros((4, 4), dtype=bool)
        adj[0, 1] = adj[1, 0] = True
        adj[2, 3] = adj[3, 2] = True
        with pytest.raises(DisconnectedTopologyError):
            graph_of(adj)

    @pytest.mark.parametrize("arcs", [
        ([1, 0, 1, 2], [0, 1, 2, 1]),  # unsorted
        ([0, 0, 1, 1, 1, 2], [1, 1, 0, 0, 2, 1]),  # a repeated edge
        ([0, 0, 1, 1, 2], [0, 1, 0, 2, 1]),  # a self-loop
        ([0, 1, 1, 2, 2], [1, 0, 2, 1, 3]),  # an endpoint out of range
        ([0, 1, 1, 2], [1, 0, 2]),  # arc arrays of different lengths
    ])
    def test_malformed_arcs_rejected(self, arcs):
        with pytest.raises(TopologyError):
            Graph(node_count=3, anchor_id=0, arcs=arcs)
        Graph(node_count=3, anchor_id=0, arcs=([0, 1, 1, 2], [1, 0, 2, 1]))

    @pytest.mark.parametrize("block", [1, 2, 3])
    def test_arcs_checked_a_few_at_a_time(self, block, monkeypatch):
        # the key checks go PAIR_BLOCK arcs at a time: a fault in any
        # chunk, or between two, is still found
        monkeypatch.setattr(graph_module, "PAIR_BLOCK", block)
        ring = build_topology("circular", 6).arcs
        Graph(node_count=6, anchor_id=0, arcs=ring)
        for k in range(len(ring[0]) - 1):  # swap two neighbouring arcs
            src, dst = (a.copy() for a in ring)
            src[[k, k + 1]], dst[[k, k + 1]] = src[[k + 1, k]], dst[[k + 1, k]]
            with pytest.raises(TopologyError, match="row-major"):
                Graph(node_count=6, anchor_id=0, arcs=(src, dst))
        for k in range(len(ring[0])):  # drop one arc, keeping its reverse
            with pytest.raises(TopologyError, match="reverse"):
                Graph(node_count=6, anchor_id=0, arcs=tuple(np.delete(a, k) for a in ring))

    def test_arcs_are_a_read_only_copy(self):
        src, dst = np.array([0, 1, 1, 2]), np.array([1, 0, 2, 1])
        g = Graph(node_count=3, anchor_id=0, arcs=(src, dst))
        src[0] = 2
        assert list(g.arcs[0]) == [0, 1, 1, 2]
        assert not g.arcs[0].flags.writeable and not g.arcs[1].flags.writeable
        assert g.arcs[0].dtype == np.intp
        assert not g.adjacency.flags.writeable


class TestNeighborhoods:
    def test_chain_neighborhood(self):
        g = build_topology("chain", 3)
        assert list(np.flatnonzero(g.adjacency[1])) == [0, 2]
        assert list(np.flatnonzero(g.adjacency[:, 1])) == [0, 2]
        assert list(np.flatnonzero(radio(g)[0])) == [1]

    def test_bad_index(self):
        adj = build_topology("chain", 3).adjacency
        for anchor in (3, -1):
            with pytest.raises(TopologyError):
                graph_of(adj, anchor)


class TestDerivedViews:
    @pytest.mark.parametrize("kind", graph_module.TOPOLOGY_KINDS)
    def test_in_neighbors_are_column_scans(self, kind):
        g = build_topology(kind, 9, radius=0.6, seed=2)
        for i in range(g.node_count):
            assert np.array_equal(g.in_neighbors[i], np.flatnonzero(g.adjacency[:, i]))
        assert g.in_neighbors is g.in_neighbors
        assert not any(nb.flags.writeable for nb in g.in_neighbors)

    def test_in_neighbors_of_uneven_in_degrees(self):
        rng = np.random.default_rng(3)
        adj = rng.random((12, 12)) < 0.3
        np.fill_diagonal(adj, False)
        adj[np.arange(11), np.arange(1, 12)] = True  # connected from node 0
        g = graph_of(adj, directed=True)
        for i in range(12):
            assert np.array_equal(g.in_neighbors[i], np.flatnonzero(adj[:, i]))

    def test_layers_reuse_the_connectivity_bfs(self, monkeypatch):
        g = build_topology("random_geometric", 30, radius=0.4, seed=1)
        dist = nx.single_source_shortest_path_length(to_networkx(g), g.anchor_id)
        assert list(g.hops) == [dist[i] for i in range(g.node_count)]
        assert not g.hops.flags.writeable
        monkeypatch.setattr(graph_module, "_hops", None)  # a second BFS would fail
        assert np.array_equal(assign_layers(g).layer_of, np.maximum(g.hops, 1))


class TestHops:
    @pytest.mark.parametrize("n, anchor", [(2, 1), (9, 4), (40, 0)])
    @pytest.mark.parametrize("kind", graph_module.TOPOLOGY_KINDS)
    def test_hops_are_the_full_search(self, kind, n, anchor):
        # the search stops at the first level that leaves no node without
        # a count; the dense search runs until its frontier is empty
        g = build_topology(kind, n, anchor=anchor, radius=0.6, seed=3)
        assert np.array_equal(g.hops, dense_hops(radio(g), anchor))

    def test_a_disconnected_graph(self):
        # the chain 0 - 1 - 2 and the edge 3 - 4: the search from 0 runs
        # out of frontier with two nodes unreached
        src, dst = graph_module._undirected(np.array([0, 1, 3]), np.array([1, 2, 4]), 5)
        und = np.zeros((5, 5), dtype=bool)
        und[src, dst] = True
        for root in range(5):
            hop = graph_module._hops(graph_module._offsets(src, 5), dst, root)
            assert np.array_equal(hop, dense_hops(und, root))
        assert list(graph_module._hops(graph_module._offsets(src, 5), dst, 0)) == [0, 1, 2, -1, -1]


class TestBuiltOnce:
    @pytest.mark.parametrize("kind", ["chain", "star", "circular", "circular_directed",
                                      "complete"])
    def test_equal_keys_give_the_same_graph(self, kind):
        g = build_topology(kind, 9, anchor=2)
        # the kinds drawn from no seed read neither the seed nor the radius
        assert build_topology(kind, 9, anchor=2, radius=0.5, seed=7) is g
        assert build_topology(kind, 9) is not g
        assert build_topology(kind, 10, anchor=2) is not g

    def test_random_graphs_are_never_shared(self):
        a, b, c = (build_topology("random_geometric", 12, radius=0.5, seed=s) for s in (1, 2, 1))
        assert a is not b and a is not c
        assert not np.array_equal(a.arcs[0], b.arcs[0])
        assert a.schedules is not c.schedules


class TestLayers:
    def test_chain4_layers(self):
        lay = assign_layers(build_topology("chain", 4))
        assert list(lay.layer_of) == [1, 1, 2, 3]
        assert lay.layer_count == 3

    def test_star_all_layer_one(self):
        lay = assign_layers(build_topology("star", 5))
        assert (lay.layer_of == 1).all()
        assert lay.layer_count == 1

    def test_layer_sizes_sum_to_n(self):
        for _, g in small_graph_family():
            lay = assign_layers(g)
            sizes = np.bincount(lay.layer_of)
            assert len(sizes) == lay.layer_count + 1 and sizes[0] == 0
            assert (sizes[1:] > 0).all()
            assert sizes.sum() == g.node_count

    def test_bfs_oracle(self):
        # independent oracle: shortest path lengths from the anchor
        for _, g in small_graph_family():
            dist = nx.single_source_shortest_path_length(to_networkx(g), g.anchor_id)
            lay = assign_layers(g)
            for i in range(g.node_count):
                assert lay.layer_of[i] == max(1, dist[i])

    def test_adjacent_layers_differ_by_at_most_one(self):
        for _, g in small_graph_family():
            lay = assign_layers(g).layer_of
            i, j = np.nonzero(radio(g))
            assert (np.abs(lay[i] - lay[j]) <= 1).all()

    def test_permutation_equivariance(self):
        rng = np.random.default_rng(5)
        g = build_topology("random_geometric", 12, radius=0.5, seed=3)
        perm = rng.permutation(g.node_count)
        padj = np.zeros_like(g.adjacency)
        padj[np.ix_(perm, perm)] = g.adjacency
        pg = graph_of(padj, int(perm[g.anchor_id]))
        lay = assign_layers(g).layer_of
        play = assign_layers(pg).layer_of
        assert np.array_equal(play[perm], lay)

    def test_custom_root(self):
        g = build_topology("chain", 4, anchor=3)
        lay = assign_layers(g)
        assert list(lay.layer_of) == [3, 2, 1, 1]


class TestWeightMatrices:
    def test_neighborhood_set_chain3(self):
        g = build_topology("chain", 3)
        assert np.allclose(step_matrix(g, UpdateRule(), [0, 1, 0])[1], [1 / 3, 1 / 3, 1 / 3])
        assert np.allclose(step_matrix(g, UpdateRule(), [1, 0, 0])[0], [1 / 2, 1 / 2, 0])

    def test_pure_neighbor_chain3(self):
        w = step_matrix(build_topology("chain", 3), UpdateRule(RuleVariant.PURE_NEIGHBOR),
                        [0, 1, 0])
        assert np.allclose(w[1], [1 / 2, 0, 1 / 2])
        assert w[1, 1] == 0.0

    def test_self_additive_base_is_row_stochastic(self):
        # the rule adds a row-stochastic neighbor average to the held state
        w = step_matrix(build_topology("chain", 3),
                        UpdateRule(RuleVariant.SELF_ADDITIVE), np.ones(3))
        assert np.allclose((w - np.eye(3)).sum(axis=1), 1.0)

    def test_pairwise_two_node(self):
        w = expected_weight_matrix(build_topology("chain", 2),
                                   UpdateRule(RuleVariant.PAIRWISE_BASELINE))
        assert np.allclose(w, [[0.5, 0.5], [0.5, 0.5]])

    def test_rows_sum_to_one_all_rules(self):
        for _, g in small_graph_family():
            for v in RuleVariant:
                rule = UpdateRule(v)
                if v is RuleVariant.PAIRWISE_BASELINE:
                    w = expected_weight_matrix(g, rule)
                else:
                    w = step_matrix(g, rule, np.ones(g.node_count))
                held = 1.0 if v is RuleVariant.SELF_ADDITIVE else 0.0
                assert np.abs(w.sum(axis=1) - held - 1.0).max() <= 1e-12

    def test_directed_uses_in_neighbors(self):
        g = build_topology("circular_directed", 4)
        w = step_matrix(g, UpdateRule(RuleVariant.PURE_NEIGHBOR), np.ones(4))
        for i in range(4):
            assert w[i, (i - 1) % 4] == 1.0

    def test_undirected_pattern_symmetric(self):
        for _, g in small_graph_family():
            w = expected_weight_matrix(g)
            off = w.copy()
            np.fill_diagonal(off, 0.0)
            assert np.array_equal(off > 0, off.T > 0)

    def test_pairwise_rejects_directed(self):
        g = build_topology("circular_directed", 4)
        with pytest.raises(ConfigError):
            expected_weight_matrix(g, UpdateRule(RuleVariant.PAIRWISE_BASELINE))
