"""Topology construction, layers and weight matrices."""

import networkx as nx
import numpy as np
import pytest

from gossipsim import (
    Graph,
    TopologyParams,
    TopologyError,
    UnconnectableTopologyError,
    assign_layers,
    build_topology,
    expected_weight_matrix,
    step_matrix,
)
from gossipsim.errors import ConfigError
from gossipsim.rules import RuleVariant, UpdateRule, single_active_matrix

from conftest import small_graph_family


def to_networkx(g: Graph):
    und = g.control_adjacency()
    nxg = nx.Graph()
    nxg.add_nodes_from(range(g.node_count))
    nxg.add_edges_from(zip(*np.nonzero(und)))
    return nxg


def control_degrees(g: Graph) -> np.ndarray:
    return g.control_adjacency().sum(axis=1)


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
        g = build_topology("circular", 5, TopologyParams(directed=True))
        assert g.directed
        assert (g.adjacency.sum(axis=0) == 1).all()
        assert (g.adjacency.sum(axis=1) == 1).all()
        assert list(np.flatnonzero(g.adjacency[2])) == [3]
        assert list(np.flatnonzero(g.adjacency[:, 2])) == [1]

    def test_complete(self):
        g = build_topology("complete", 5)
        assert (control_degrees(g) == 4).all()

    def test_directed_flag_restricted_to_circular(self):
        with pytest.raises(ConfigError):
            build_topology("chain", 5, TopologyParams(directed=True))

    def test_unknown_kind(self):
        with pytest.raises(ConfigError):
            build_topology("hexgrid", 5)

    def test_too_small(self):
        with pytest.raises(ConfigError):
            build_topology("chain", 1)

    def test_rgg_deterministic_and_connected(self):
        a = build_topology("random_geometric", 30, TopologyParams(radius=0.35), seed=9)
        b = build_topology("random_geometric", 30, TopologyParams(radius=0.35), seed=9)
        assert np.array_equal(a.adjacency, b.adjacency)
        assert nx.is_connected(to_networkx(a))

    def test_rgg_unconnectable(self):
        with pytest.raises(UnconnectableTopologyError):
            build_topology("random_geometric", 40,
                           TopologyParams(radius=0.01, max_attempts=5), seed=0)

    def test_erdos_renyi_option(self):
        g = build_topology("random_geometric", 20,
                           TopologyParams(erdos_p=0.3), seed=4)
        assert nx.is_connected(to_networkx(g))
        h = build_topology("random_geometric", 20,
                           TopologyParams(erdos_p=0.3), seed=4)
        assert np.array_equal(g.adjacency, h.adjacency)

    def test_anchor_out_of_range(self):
        with pytest.raises(ConfigError):
            build_topology("chain", 4, TopologyParams(anchor=4))


class TestGraphValidation:
    def test_self_loop_rejected(self):
        adj = np.zeros((3, 3), dtype=bool)
        adj[0, 1] = adj[1, 0] = True
        adj[1, 2] = adj[2, 1] = True
        adj[0, 0] = True
        with pytest.raises(TopologyError):
            Graph(node_count=3, anchor_id=0, adjacency=adj)

    def test_asymmetric_undirected_rejected(self):
        adj = np.zeros((3, 3), dtype=bool)
        adj[0, 1] = True
        adj[1, 2] = adj[2, 1] = True
        with pytest.raises(TopologyError):
            Graph(node_count=3, anchor_id=0, adjacency=adj)

    def test_disconnected_rejected(self):
        adj = np.zeros((4, 4), dtype=bool)
        adj[0, 1] = adj[1, 0] = True
        adj[2, 3] = adj[3, 2] = True
        with pytest.raises(TopologyError):
            Graph(node_count=4, anchor_id=0, adjacency=adj)


class TestNeighborhoods:
    def test_chain_neighborhood(self):
        g = build_topology("chain", 3)
        assert list(np.flatnonzero(g.adjacency[1])) == [0, 2]
        assert list(np.flatnonzero(g.adjacency[:, 1])) == [0, 2]
        assert list(np.flatnonzero(g.control_adjacency()[0])) == [1]

    def test_bad_index(self):
        adj = build_topology("chain", 3).adjacency
        for anchor in (3, -1):
            with pytest.raises(TopologyError):
                Graph(node_count=3, anchor_id=anchor, adjacency=adj)


class TestLayers:
    def test_chain4_layers(self):
        lay = assign_layers(build_topology("chain", 4))
        assert list(lay.layer_of) == [1, 1, 2, 3]
        assert lay.layer_count == 3
        assert list(lay.layer_sizes) == [2, 1, 1]

    def test_star_all_layer_one(self):
        lay = assign_layers(build_topology("star", 5))
        assert (lay.layer_of == 1).all()
        assert lay.layer_count == 1

    def test_layer_sizes_sum_to_n(self):
        for _, g in small_graph_family():
            lay = assign_layers(g)
            assert lay.layer_sizes.sum() == g.node_count
            assert lay.layer_of.min() >= 1
            assert lay.layer_of.max() == lay.layer_count

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
            und = g.control_adjacency()
            i, j = np.nonzero(und)
            assert (np.abs(lay[i] - lay[j]) <= 1).all()

    def test_permutation_equivariance(self):
        rng = np.random.default_rng(5)
        g = build_topology("random_geometric", 12, TopologyParams(radius=0.5), seed=3)
        perm = rng.permutation(g.node_count)
        padj = np.zeros_like(g.adjacency)
        padj[np.ix_(perm, perm)] = g.adjacency
        pg = Graph(node_count=g.node_count, anchor_id=int(perm[g.anchor_id]),
                   adjacency=padj)
        lay = assign_layers(g).layer_of
        play = assign_layers(pg).layer_of
        assert np.array_equal(play[perm], lay)

    def test_custom_root(self):
        g = build_topology("chain", 4, TopologyParams(anchor=3))
        lay = assign_layers(g)
        assert list(lay.layer_of) == [3, 2, 1, 1]


class TestWeightMatrices:
    def test_neighborhood_set_chain3(self):
        g = build_topology("chain", 3)
        assert np.allclose(single_active_matrix(g, 1, UpdateRule())[1], [1 / 3, 1 / 3, 1 / 3])
        assert np.allclose(single_active_matrix(g, 0, UpdateRule())[0], [1 / 2, 1 / 2, 0])

    def test_pure_neighbor_chain3(self):
        w = single_active_matrix(build_topology("chain", 3), 1,
                                 UpdateRule(RuleVariant.PURE_NEIGHBOR))
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
        g = build_topology("circular", 4, TopologyParams(directed=True))
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
        g = build_topology("circular", 4, TopologyParams(directed=True))
        with pytest.raises(ConfigError):
            expected_weight_matrix(g, UpdateRule(RuleVariant.PAIRWISE_BASELINE))
