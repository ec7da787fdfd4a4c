"""Topology construction, layers, weight matrices, and serialization."""

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
    consensus_weight_matrix,
    from_edge_list,
    in_neighborhood,
    neighborhood,
    to_edge_list,
)
from gossipsim.errors import ConfigError
from gossipsim.graph import control_neighborhood, degrees
from gossipsim.rules import RuleVariant, UpdateRule

from conftest import small_graph_family


def to_networkx(g: Graph):
    und = g.control_adjacency()
    nxg = nx.Graph()
    nxg.add_nodes_from(range(g.node_count))
    nxg.add_edges_from(zip(*np.nonzero(und)))
    return nxg


class TestBuilders:
    def test_chain_degrees(self):
        g = build_topology("chain", 4)
        assert list(degrees(g, "control")) == [1, 2, 2, 1]

    def test_star_hub_degree(self):
        g = build_topology("star", 4)
        assert degrees(g, "control")[0] == 3
        assert list(degrees(g, "control")[1:]) == [1, 1, 1]

    def test_circular_degrees(self):
        g = build_topology("circular", 6)
        assert (degrees(g, "control") == 2).all()
        assert not g.directed

    def test_circular_directed(self):
        g = build_topology("circular", 5, TopologyParams(directed=True))
        assert g.directed
        assert (degrees(g, "in") == 1).all()
        assert (degrees(g, "out") == 1).all()
        assert neighborhood(g, 2) == (3,)
        assert in_neighborhood(g, 2) == (1,)

    def test_complete(self):
        g = build_topology("complete", 5)
        assert (degrees(g, "control") == 4).all()

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
        assert neighborhood(g, 1) == (0, 2)
        assert in_neighborhood(g, 1) == (0, 2)
        assert control_neighborhood(g, 0) == (1,)

    def test_bad_index(self):
        g = build_topology("chain", 3)
        with pytest.raises(ValueError):
            neighborhood(g, 3)
        with pytest.raises(ValueError):
            neighborhood(g, -1)


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
        g = build_topology("chain", 4)
        lay = assign_layers(g, anchor=3)
        assert list(lay.layer_of) == [3, 2, 1, 1]


class TestWeightMatrices:
    def test_neighborhood_set_chain3(self):
        w = consensus_weight_matrix(build_topology("chain", 3))
        assert np.allclose(w[1], [1 / 3, 1 / 3, 1 / 3])
        assert np.allclose(w[0], [1 / 2, 1 / 2, 0])

    def test_pure_neighbor_chain3(self):
        w = consensus_weight_matrix(build_topology("chain", 3),
                                    UpdateRule(RuleVariant.PURE_NEIGHBOR))
        assert np.allclose(w[1], [1 / 2, 0, 1 / 2])
        assert w[1, 1] == 0.0

    def test_self_additive_base_is_row_stochastic(self):
        w = consensus_weight_matrix(build_topology("chain", 3),
                                    UpdateRule(RuleVariant.SELF_ADDITIVE))
        assert np.allclose(w.sum(axis=1), 1.0)

    def test_pairwise_two_node(self):
        w = consensus_weight_matrix(build_topology("chain", 2),
                                    UpdateRule(RuleVariant.PAIRWISE_BASELINE))
        assert np.allclose(w, [[0.5, 0.5], [0.5, 0.5]])

    def test_rows_sum_to_one_all_rules(self):
        rules = [UpdateRule(v) for v in RuleVariant]
        for _, g in small_graph_family():
            for rule in rules:
                w = consensus_weight_matrix(g, rule)
                assert np.abs(w.sum(axis=1) - 1.0).max() <= 1e-12

    def test_directed_uses_in_neighbors(self):
        g = build_topology("circular", 4, TopologyParams(directed=True))
        w = consensus_weight_matrix(g, UpdateRule(RuleVariant.PURE_NEIGHBOR))
        for i in range(4):
            assert w[i, (i - 1) % 4] == 1.0

    def test_undirected_pattern_symmetric(self):
        for _, g in small_graph_family():
            w = consensus_weight_matrix(g)
            off = w.copy()
            np.fill_diagonal(off, 0.0)
            assert np.array_equal(off > 0, off.T > 0)

    def test_pairwise_rejects_directed(self):
        g = build_topology("circular", 4, TopologyParams(directed=True))
        with pytest.raises(ConfigError):
            consensus_weight_matrix(g, UpdateRule(RuleVariant.PAIRWISE_BASELINE))


class TestSerialization:
    def test_roundtrip_undirected(self):
        g = build_topology("random_geometric", 15, TopologyParams(radius=0.45), seed=2)
        h = from_edge_list(to_edge_list(g))
        assert np.array_equal(g.adjacency, h.adjacency)
        assert h.anchor_id == g.anchor_id
        assert h.directed == g.directed

    def test_roundtrip_directed(self):
        g = build_topology("circular", 6, TopologyParams(directed=True))
        h = from_edge_list(to_edge_list(g))
        assert np.array_equal(g.adjacency, h.adjacency)
        assert h.directed

    def test_header_format(self):
        g = build_topology("chain", 3)
        first = to_edge_list(g).splitlines()[0]
        assert first == "3 0 0"

    def test_bad_header(self):
        with pytest.raises(TopologyError):
            from_edge_list("3 0\n0 1\n1 2\n")

    def test_edge_out_of_range(self):
        with pytest.raises(TopologyError):
            from_edge_list("3 0 0\n0 5\n")

    def test_non_integer_edge_token(self):
        with pytest.raises(TopologyError):
            from_edge_list("3 0 0\n0 x\n")
