"""Metrics, convergence detection, and spectral certification."""

import csv
import io
import math

import numpy as np
import pytest

from gossipsim import (
    ActivationMode,
    DutyCycleParams,
    RunConfig,
    TopologyParams,
    activation_sequence,
    analysis,
    build_topology,
    check_consensus_conditions,
    convergence_rounds,
    convergence_time,
    disagreement_of,
    drift,
    expected_weight_matrix,
    run_agent_sim,
    run_matrix_sim,
    run_pairwise_baseline,
    second_eigenvalue_modulus,
    spectral_radius,
)
from gossipsim.analysis import (
    Trace,
    disagreement_series,
    drift_series,
    make_trace,
    metrics_csv_text,
    single_active_matrix,
    trace_csv_text,
)
from gossipsim.rules import RuleVariant, UpdateRule

CHAIN3 = build_topology("chain", 3)
PAIR = build_topology("chain", 2)


def synthetic_trace(graph, rows, ticks=None, cycle_ticks=1):
    """Trace with hand-picked state rows (activation rows all zero)."""
    rows = [np.asarray(r, dtype=float) for r in rows]
    tr = make_trace(graph, rows[0], cycle_ticks)
    tr.states = np.vstack(rows)
    n = graph.node_count
    tr.activations = np.zeros((len(rows), n), dtype=np.uint8)
    tr.ticks = (np.arange(len(rows), dtype=np.int64) if ticks is None
                else np.asarray(ticks, dtype=np.int64))
    return tr


class TestDrift:
    def test_mean_preserving_row_has_zero_drift(self):
        tr = synthetic_trace(CHAIN3, [[0.0, 6.0, 0.0], [2.0, 2.0, 2.0]])
        assert drift(tr, 0) == 0.0
        assert drift(tr, 1) == 0.0

    def test_constant_shift_shows_up_exactly(self):
        tr = synthetic_trace(CHAIN3, [[0.0, 6.0, 0.0], [1.0, 7.0, 1.0]])
        assert drift(tr, 1) == pytest.approx(1.0, abs=1e-15)

    def test_x_avg_is_exact_initial_mean(self):
        tr = synthetic_trace(CHAIN3, [[0.0, 6.0, 0.0]])
        assert tr.x_avg == 2.0

    def test_series_shape(self):
        tr = synthetic_trace(CHAIN3, [[0.0, 6.0, 0.0], [2.0, 2.0, 2.0]])
        assert drift_series(tr).shape == (2,)


class TestDisagreement:
    def test_chain3_hand_value(self):
        # ordered adjacent pairs: (0,1),(1,0),(1,2),(2,1) each gap 6
        assert disagreement_of(np.array([0.0, 6.0, 0.0]), CHAIN3) == pytest.approx(
            np.sqrt(144 / 3))

    def test_two_node_hand_value(self):
        assert disagreement_of(np.array([0.0, 1.0]), PAIR) == pytest.approx(1.0)

    def test_consensus_is_zero(self):
        assert disagreement_of(np.full(3, 4.2), CHAIN3) == 0.0

    def test_invariant_under_constant_shift(self):
        x = np.array([1.0, 5.0, 2.0])
        assert disagreement_of(x, CHAIN3) == pytest.approx(
            disagreement_of(x + 17.5, CHAIN3))

    def test_directed_counts_arcs_only(self):
        from gossipsim import TopologyParams
        g = build_topology("circular", 3, TopologyParams(directed=True))
        x = np.array([0.0, 1.0, 0.0])
        # arcs 0->1, 1->2, 2->0 with gaps 1, 1, 0
        assert disagreement_of(x, g) == pytest.approx(np.sqrt(2 / 3))

    def test_trace_accessor_matches_series(self):
        tr = synthetic_trace(CHAIN3, [[0.0, 6.0, 0.0], [2.0, 2.0, 2.0]])
        series = disagreement_series(tr)
        assert disagreement_of(tr.states[0], CHAIN3) == pytest.approx(series[0])
        assert series[1] == 0.0


class TestConvergenceTime:
    def test_already_converged_reports_zero(self):
        tr = synthetic_trace(CHAIN3, [[1.0, 1.0, 1.0], [1.0, 1.0, 1.0]])
        assert convergence_time(tr, 1e-6) == 0
        assert convergence_rounds(tr, 1e-6) == 0

    def test_never_converged_reports_none(self):
        tr = synthetic_trace(PAIR, [[0.0, 8.0], [0.0, 4.0], [0.0, 2.0]])
        assert convergence_time(tr, 1e-6) is None

    def test_dip_shorter_than_cycle_does_not_count(self):
        # disagreement on the 2-node chain equals the gap |x0 - x1|
        rows = [[0.0, 1.0], [0.0, 0.1], [0.0, 1.0],
                [0.0, 0.1], [0.0, 0.1], [0.0, 0.1], [0.0, 0.1]]
        tr = synthetic_trace(PAIR, rows, cycle_ticks=3)
        assert convergence_time(tr, 0.5) == 3

    def test_window_needs_coverage(self):
        rows = [[0.0, 1.0], [0.0, 0.1]]
        tr = synthetic_trace(PAIR, rows, cycle_ticks=5)
        assert convergence_time(tr, 0.5) is None
        tr.converged = True  # engine vouched for the stop
        assert convergence_time(tr, 0.5) == 1

    def test_rounds_use_cycle_arithmetic(self):
        rows = [[0.0, 1.0], [0.0, 1.0], [0.0, 0.01], [0.0, 0.01], [0.0, 0.01]]
        tr = synthetic_trace(PAIR, rows, ticks=[0, 1, 2, 3, 4], cycle_ticks=2)
        # first good row at tick 2 -> cycle ceil(2/2) = 1
        assert convergence_rounds(tr, 0.5) == 1

    def test_bad_tol_rejected(self):
        tr = synthetic_trace(PAIR, [[0.0, 1.0]])
        with pytest.raises(ValueError):
            convergence_time(tr, 0.0)


class TestSpectral:
    def test_radius_identity(self):
        assert spectral_radius(np.eye(4)) == pytest.approx(1.0)

    def test_radius_swap(self):
        assert spectral_radius(np.array([[0.0, 1.0], [1.0, 0.0]])) == pytest.approx(1.0)

    def test_radius_scaled(self):
        assert spectral_radius(0.9 * np.eye(3)) == pytest.approx(0.9)

    def test_radius_bounded_by_max_row_sum(self):
        rng = np.random.default_rng(0)
        for _ in range(20):
            m = rng.random((5, 5))
            assert spectral_radius(m) <= np.abs(m).sum(axis=1).max() + 1e-12

    def test_non_square_rejected(self):
        with pytest.raises(ValueError):
            spectral_radius(np.ones((2, 3)))

    def test_second_modulus_projector(self):
        assert second_eigenvalue_modulus(np.full((2, 2), 0.5)) == pytest.approx(0.0)

    def test_second_modulus_identity_clusters(self):
        # all eigenvalues sit in the top cluster; the report must not
        # pretend the identity mixes
        assert second_eigenvalue_modulus(np.eye(3)) == pytest.approx(1.0)

    def test_second_modulus_cluster_tolerance(self):
        m = np.diag([1.0, 1.0 - 1e-12, 0.3])
        assert second_eigenvalue_modulus(m) == pytest.approx(0.3)
        m = np.diag([1.0, 0.99, 0.3])
        assert second_eigenvalue_modulus(m) == pytest.approx(0.99)


class TestConsensusConditions:
    def test_pairwise_two_node_fully_certified(self):
        w = expected_weight_matrix(PAIR, UpdateRule(RuleVariant.PAIRWISE_BASELINE))
        rep = check_consensus_conditions(w)
        assert rep.row_stochastic and rep.column_stochastic
        assert rep.rho_centered == pytest.approx(0.0, abs=1e-12)
        assert rep.certified_consensus and rep.certified_average

    def test_identity_not_certified(self):
        rep = check_consensus_conditions(np.eye(3))
        assert rep.row_stochastic
        assert not rep.lambda2_below_one
        assert not rep.certified_consensus

    def test_row_only_stochastic_certifies_consensus_not_average(self):
        w = expected_weight_matrix(build_topology("star", 5),
                                   UpdateRule(RuleVariant.PURE_NEIGHBOR))
        rep = check_consensus_conditions(w)
        assert rep.certified_consensus
        assert not rep.column_stochastic
        assert not rep.certified_average

    def test_average_implies_consensus(self):
        from conftest import small_graph_family
        for _, g in small_graph_family(6):
            for variant in (RuleVariant.NEIGHBORHOOD_SET, RuleVariant.PAIRWISE_BASELINE):
                rep = check_consensus_conditions(
                    expected_weight_matrix(g, UpdateRule(variant)))
                assert rep.certified_consensus or not rep.certified_average

    def test_report_text_roundtrip(self):
        rep = check_consensus_conditions(np.full((2, 2), 0.5), label="demo")
        text = rep.to_text()
        kv = dict(line.split("=", 1) for line in text.strip().splitlines())
        assert kv["label"] == "demo"
        assert kv["certified_average"] == "true"
        assert float(kv["lambda2"]) == pytest.approx(0.0)


class TestExpectedMatrix:
    def test_two_node_pure_neighbor(self):
        w = expected_weight_matrix(PAIR, UpdateRule(RuleVariant.PURE_NEIGHBOR))
        assert np.allclose(w, [[0.5, 0.5], [0.5, 0.5]])

    def test_complete3_neighborhood_set_is_uniform(self):
        w = expected_weight_matrix(build_topology("complete", 3))
        assert np.allclose(w, np.full((3, 3), 1 / 3))
        assert np.allclose(w, w.T)
        assert np.allclose(w.sum(axis=1), 1.0)

    def test_single_active_matrix_holds_inactive_rows(self):
        w = single_active_matrix(CHAIN3, 1, UpdateRule(RuleVariant.PURE_NEIGHBOR))
        assert np.allclose(w[0], [1.0, 0.0, 0.0])
        assert np.allclose(w[2], [0.0, 0.0, 1.0])
        assert np.allclose(w[1], [0.5, 0.0, 0.5])

    def test_matches_monte_carlo_average(self):
        # empirical mean of uniformly drawn single-active matrices must
        # land within 3 sigma of the exact enumeration, entrywise
        g = build_topology("random_geometric", 8, seed=5)
        rule = UpdateRule(RuleVariant.NEIGHBORHOOD_SET)
        exact = expected_weight_matrix(g, rule)
        rng = np.random.default_rng(11)
        draws = 20_000
        acc = np.zeros_like(exact)
        acc2 = np.zeros_like(exact)
        for _ in range(draws):
            w = single_active_matrix(g, int(rng.integers(g.node_count)), rule)
            acc += w
            acc2 += w * w
        mean = acc / draws
        var = acc2 / draws - mean * mean
        bound = 3.0 * np.sqrt(np.maximum(var, 0.0) / draws) + 1e-12
        assert (np.abs(mean - exact) <= bound).all()

    def test_pairwise_expectation_matches_graph_matrix(self):
        # oracle: the mean of the exchange matrix I - alpha (e_i - e_j)(e_i - e_j)^T
        # over a uniform initiator i and a uniform neighbor j of it
        g = build_topology("random_geometric", 8, TopologyParams(radius=0.5), seed=2)
        rule = UpdateRule(RuleVariant.PAIRWISE_BASELINE, alpha=0.3)
        n = g.node_count
        want = np.zeros((n, n))
        for i in range(n):
            nbrs = np.flatnonzero(g.adjacency[i])
            for j in nbrs:
                d = np.zeros(n)
                d[i], d[j] = 1.0, -1.0
                want += (np.eye(n) - rule.alpha * np.outer(d, d)) / (n * len(nbrs))
        assert np.allclose(expected_weight_matrix(g, rule), want, atol=1e-14)


class TestCsv:
    def test_metrics_csv_layout(self):
        g = build_topology("chain", 3)
        cfg = RunConfig(graph=g, initial_states=np.array([0.0, 6.0, 0.0]),
                        max_iterations=2)
        tr = run_agent_sim(cfg)
        lines = metrics_csv_text(tr).splitlines()
        assert lines[0] == "iteration,drift,disagreement"
        assert len(lines) == tr.iterations + 1
        assert lines[1].startswith("0,0,")

    def test_trace_csv_layout(self):
        g = build_topology("chain", 3)
        cfg = RunConfig(graph=g, initial_states=np.array([0.0, 6.0, 0.0]),
                        max_iterations=2)
        tr = run_agent_sim(cfg)
        lines = trace_csv_text(tr).splitlines()
        assert lines[0] == "iteration,node_id,x,phi"
        assert len(lines) == tr.iterations * 3 + 1
        assert lines[1] == "0,0,0,0"


def reference_trace_csv(trace):
    """The trace CSV as a csv.writer loop over every cell writes it."""
    buf = io.StringIO()
    w = csv.writer(buf, lineterminator="\n")
    w.writerow(["iteration", "node_id", "x", "phi"])
    for k in range(trace.iterations):
        for i in range(trace.graph.node_count):
            w.writerow([k, i, f"{trace.states[k, i]:.17g}",
                        int(trace.activations[k, i])])
    return buf.getvalue()


def _agent_trace(kind, n, params=TopologyParams(), cycles=20):
    g = build_topology(kind, n, params, seed=3)
    x0 = np.random.default_rng(5).uniform(0.0, 100.0, n)
    return run_agent_sim(RunConfig(graph=g, initial_states=x0, max_iterations=cycles))


def _pairwise_trace():
    g = build_topology("random_geometric", 12, TopologyParams(radius=0.5), seed=2)
    return run_pairwise_baseline(RunConfig(graph=g, rule=UpdateRule(RuleVariant.PAIRWISE_BASELINE),
                                           seed=4, max_iterations=300))


def _stochastic_matrix_trace():
    g = build_topology("circular", 9)
    duty = DutyCycleParams(mode=ActivationMode.STOCHASTIC, p=0.4, q=0.3)
    cfg = RunConfig(graph=g, duty=duty, seed=6, max_iterations=120)
    return run_matrix_sim(cfg, activation_sequence(duty, 9, 120, seed=7))


def _special_values_trace():
    """Cells going 0.0 -> -0.0 -> 0.0, through nan and inf, under
    activation rows that repeat and vary."""
    rows = [[0.0, 1.5, 2.0], [-0.0, 1.5, 2.0], [0.0, float("nan"), 2.0],
            [0.0, -float("nan"), float("inf")], [0.0, 1.5, -float("inf")],
            [5e-324, 1.5, -0.0], [5e-324, 1.5, -0.0], [1e300, 0.1, 0.0]]
    tr = synthetic_trace(CHAIN3, rows)
    tr.activations = np.array([[0, 0, 0], [1, 0, 0], [0, 1, 1], [1, 0, 0],
                               [0, 1, 1], [0, 0, 0], [1, 1, 1], [1, 0, 0]], dtype=np.uint8)
    return tr


ORACLE_TRACES = {
    "agent_chain": lambda: _agent_trace("chain", 12),
    "agent_star": lambda: _agent_trace("star", 8),
    "agent_ring_directed": lambda: _agent_trace("circular", 10, TopologyParams(directed=True)),
    "pairwise": _pairwise_trace,
    "matrix_stochastic": _stochastic_matrix_trace,
    "special_values": _special_values_trace,
}


class TestTraceCsvOracle:
    @pytest.mark.parametrize("name", sorted(ORACLE_TRACES))
    def test_matches_csv_writer_loop(self, name):
        tr = ORACLE_TRACES[name]()
        assert trace_csv_text(tr) == reference_trace_csv(tr)

    @pytest.mark.parametrize("name", sorted(ORACLE_TRACES))
    def test_matches_with_tiny_blocks_and_template_cache(self, name, monkeypatch):
        # one row per block, and a template cache that keeps a single row
        monkeypatch.setattr(analysis, "_BLOCK_CELLS", 1)
        monkeypatch.setattr(analysis, "_MAX_TEMPLATES", 1)
        tr = ORACLE_TRACES[name]()
        assert trace_csv_text(tr) == reference_trace_csv(tr)


def sequential_disagreement(x, graph):
    """Left-to-right sum over the arcs of np.nonzero(adjacency), in floats."""
    acc = 0.0
    for a, b in zip(*np.nonzero(graph.adjacency)):
        d = float(x[a]) - float(x[b])
        acc += d * d
    return math.sqrt(acc / graph.node_count)


SERIES_TRACES = {
    "chain": lambda: _agent_trace("chain", 10),
    "random_geometric": lambda: _agent_trace("random_geometric", 30, TopologyParams(radius=0.4)),
    "ring_directed": lambda: _agent_trace("circular", 10, TopologyParams(directed=True)),
}


ONE_ROW_GRAPHS = [build_topology(kind, 40) for kind in ("chain", "star", "circular", "complete")]
ONE_ROW_GRAPHS += [
    build_topology("circular", 40, TopologyParams(directed=True)),
    build_topology("random_geometric", 40, seed=1),
    build_topology("random_geometric", 300, TopologyParams(radius=0.1), seed=2),
]


class TestSeriesAgainstRecorder:
    @pytest.mark.parametrize("name", sorted(SERIES_TRACES))
    def test_cached_arcs_are_nonzero_in_order(self, name):
        g = SERIES_TRACES[name]().graph
        i, j = np.nonzero(g.adjacency)
        assert np.array_equal(g.arcs[0], i) and np.array_equal(g.arcs[1], j)
        assert g.arcs is g.arcs
        assert not g.arcs[0].flags.writeable

    @pytest.mark.parametrize("cells", [None, 1, 64])
    @pytest.mark.parametrize("name", sorted(SERIES_TRACES))
    def test_series_and_recorder_values(self, name, cells, monkeypatch):
        if cells is not None:
            monkeypatch.setattr(analysis, "_BLOCK_CELLS", cells)
        tr = SERIES_TRACES[name]()
        g = tr.graph
        series = disagreement_series(tr)
        i, j = np.nonzero(g.adjacency)
        whole = tr.states[:, i] - tr.states[:, j]
        assert np.array_equal(series, np.sqrt((whole * whole).sum(axis=1) / g.node_count))
        # the recorder sums one row pairwise, the series left to right:
        # each within arcs * eps of the true sum of nonnegative terms
        rel = len(i) * np.finfo(float).eps
        for k in range(tr.iterations):
            x = tr.states[k]
            diff = x[i] - x[j]
            assert disagreement_of(x, g) == float(np.sqrt((diff * diff).sum() / g.node_count))
            assert series[k] == sequential_disagreement(x, g)
            assert series[k] == pytest.approx(disagreement_of(x, g), rel=rel, abs=0.0)

    @pytest.mark.parametrize("seed", range(5))
    def test_one_row_trace_sums_like_the_recorder(self, seed):
        # one magnitude per seed; disagreement_of and a one-row series both
        # give the pairwise sum of a flat vector, bit for bit, on every graph
        scale = (1e-8, 1e-3, 1.0, 1e4, 1e9)[seed]
        for g in ONE_ROW_GRAPHS:
            x = np.random.default_rng(seed).uniform(0.0, 100.0, g.node_count) * scale
            i, j = g.arcs
            diff = x[i] - x[j]
            want = float(np.sqrt((diff * diff).sum() / g.node_count))
            assert disagreement_of(x, g) == want
            assert disagreement_series(make_trace(g, x, 1))[0] == want
