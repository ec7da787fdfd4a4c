"""Metrics, convergence detection, and spectral certification."""

import csv
import dataclasses
import io
import math

import numpy as np
import pytest

from gossipsim import (
    DutyCycleParams,
    RunConfig,
    TopologyParams,
    activation_sequence,
    analysis,
    build_topology,
    check_consensus_conditions,
    disagreement_of,
    engine,
    expected_weight_matrix,
    run_agent_sim,
    run_matrix_sim,
    run_pairwise_baseline,
    second_eigenvalue_modulus,
    spectral_radius,
    step_matrix,
)
from gossipsim.analysis import (
    Trace,
    disagreement_rows,
    metrics_csv_text,
    sustained_run,
    trace_csv_text,
    write_messages_csv,
)
from gossipsim.rules import RuleVariant, UpdateRule

from fsum_drifts import fsum_drifts
from list_recorder import block_disagreements

CHAIN3 = build_topology("chain", 3)
PAIR = build_topology("chain", 2)


def synthetic_trace(graph, rows, cycle_ticks=1, tolerance=1e-6, activations=None):
    """Trace with hand-picked state rows (activation rows all zero unless
    given)."""
    states = np.vstack([np.asarray(r, dtype=float) for r in rows])
    return Trace(graph=graph, states=states,
                 activations=(np.zeros(states.shape, dtype=np.uint8) if activations is None
                              else np.asarray(activations, dtype=np.uint8)),
                 cycle_ticks=cycle_ticks, tolerance=tolerance)


class TestDrift:
    def test_mean_preserving_row_has_zero_drift(self):
        tr = synthetic_trace(CHAIN3, [[0.0, 6.0, 0.0], [2.0, 2.0, 2.0]])
        assert tr.drifts[0] == 0.0
        assert tr.drifts[1] == 0.0

    def test_constant_shift_shows_up_exactly(self):
        tr = synthetic_trace(CHAIN3, [[0.0, 6.0, 0.0], [1.0, 7.0, 1.0]])
        assert tr.drifts[1] == pytest.approx(1.0, abs=1e-15)

    def test_x_avg_is_exact_initial_mean(self):
        tr = synthetic_trace(CHAIN3, [[0.0, 6.0, 0.0]])
        assert tr.x_avg == 2.0

    def test_series_shape(self):
        tr = synthetic_trace(CHAIN3, [[0.0, 6.0, 0.0], [2.0, 2.0, 2.0]])
        assert tr.drifts.shape == (2,)


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
        g = build_topology("circular_directed", 3)
        x = np.array([0.0, 1.0, 0.0])
        # arcs 0->1, 1->2, 2->0 with gaps 1, 1, 0
        assert disagreement_of(x, g) == pytest.approx(np.sqrt(2 / 3))

    def test_trace_accessor_matches_series(self):
        tr = synthetic_trace(CHAIN3, [[0.0, 6.0, 0.0], [2.0, 2.0, 2.0]])
        series = tr.disagreements
        assert disagreement_of(tr.states[0], CHAIN3) == pytest.approx(series[0])
        assert series[1] == 0.0


class TestConvergenceTime:
    def test_already_converged_reports_zero(self):
        tr = synthetic_trace(CHAIN3, [[1.0, 1.0, 1.0], [1.0, 1.0, 1.0]])
        assert tr.convergence_row == 0
        assert tr.rounds_to_tolerance == 0

    def test_never_converged_reports_none(self):
        tr = synthetic_trace(PAIR, [[0.0, 8.0], [0.0, 4.0], [0.0, 2.0]])
        assert tr.convergence_row is None
        assert tr.rounds_to_tolerance is None

    def test_dip_shorter_than_cycle_does_not_count(self):
        # disagreement on the 2-node chain equals the gap |x0 - x1|
        rows = [[0.0, 1.0], [0.0, 0.1], [0.0, 1.0],
                [0.0, 0.1], [0.0, 0.1], [0.0, 0.1], [0.0, 0.1]]
        tr = synthetic_trace(PAIR, rows, cycle_ticks=3, tolerance=0.5)
        assert tr.convergence_row == 3

    def test_window_needs_coverage(self):
        rows = [[0.0, 1.0], [0.0, 0.1]]
        tr = synthetic_trace(PAIR, rows, cycle_ticks=5, tolerance=0.5)
        assert tr.convergence_row is None
        assert not tr.converged

    def test_rounds_use_cycle_arithmetic(self):
        rows = [[0.0, 1.0], [0.0, 1.0], [0.0, 0.01], [0.0, 0.01], [0.0, 0.01]]
        tr = synthetic_trace(PAIR, rows, cycle_ticks=2, tolerance=0.5)
        # first good row 2 -> cycle ceil(2/2) = 1
        assert tr.rounds_to_tolerance == 1

    @pytest.mark.parametrize("ok, cycle, run", [
        ([1, 1, 0, 1, 1, 1, 1], 3, (3, 5)),  # the first run is one row short
        ([1, 1, 0, 1, 1, 1, 1], 2, (0, 1)),
        ([0, 1], 1, (1, 1)),                 # a one-row cycle ends where it starts
        ([1], 1, (0, 0)),
        ([1, 1, 1, 0], 4, None),
        ([0, 0], 1, None),
    ])
    def test_sustained_run_counts_rows(self, ok, cycle, run):
        assert sustained_run(np.array(ok, dtype=bool), cycle) == run


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

    def test_one_hot_step_holds_inactive_rows(self):
        w = step_matrix(CHAIN3, UpdateRule(RuleVariant.PURE_NEIGHBOR), np.array([0, 1, 0]))
        assert np.allclose(w[0], [1.0, 0.0, 0.0])
        assert np.allclose(w[2], [0.0, 0.0, 1.0])
        assert np.allclose(w[1], [0.5, 0.0, 0.5])

    @pytest.mark.parametrize("variant", [RuleVariant.NEIGHBORHOOD_SET,
                                         RuleVariant.PURE_NEIGHBOR, RuleVariant.SELF_ADDITIVE])
    def test_equals_mean_of_one_hot_steps(self, variant):
        from conftest import small_graph_family
        rule = UpdateRule(variant)
        for _, g in [*small_graph_family(), ("ring", build_topology("circular_directed", 7))]:
            n = g.node_count
            want = sum(step_matrix(g, rule, np.arange(n) == i) for i in range(n)) / n
            assert np.abs(expected_weight_matrix(g, rule) - want).max() <= 1e-14

    def test_matches_monte_carlo_average(self):
        # empirical mean of the step matrices of a uniformly drawn single
        # active node must land within 3 sigma of the exact enumeration,
        # entrywise
        g = build_topology("random_geometric", 8, seed=5)
        rule = UpdateRule(RuleVariant.NEIGHBORHOOD_SET)
        exact = expected_weight_matrix(g, rule)
        rng = np.random.default_rng(11)
        draws = 20_000
        acc = np.zeros_like(exact)
        acc2 = np.zeros_like(exact)
        for _ in range(draws):
            w = step_matrix(g, rule, np.arange(g.node_count) == rng.integers(g.node_count))
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
    duty = DutyCycleParams(p=0.4, q=0.3)
    cfg = RunConfig(graph=g, duty=duty, seed=6, max_iterations=120)
    return run_matrix_sim(cfg, activation_sequence(duty, 9, 120, seed=7))


def _special_values_trace():
    """Cells going 0.0 -> -0.0 -> 0.0, through nan and inf, under
    activation rows that repeat and vary."""
    rows = [[0.0, 1.5, 2.0], [-0.0, 1.5, 2.0], [0.0, float("nan"), 2.0],
            [0.0, -float("nan"), float("inf")], [0.0, 1.5, -float("inf")],
            [5e-324, 1.5, -0.0], [5e-324, 1.5, -0.0], [1e300, 0.1, 0.0]]
    acts = [[0, 0, 0], [0, 0, 0], [0, 1, 1], [1, 0, 0],
            [0, 1, 1], [0, 0, 0], [1, 1, 1], [1, 0, 0]]
    return synthetic_trace(CHAIN3, rows, activations=acts)


def _flag_flips_trace():
    """Rows whose states repeat bit for bit while activation flags flip,
    and a node (node 1) whose phi changes while its x holds."""
    rows = [[1.0, 2.0, 3.0], [1.0, 2.0, 3.0], [1.0, 2.0, 3.0],
            [1.5, 2.0, 2.5], [1.5, 2.0, 2.5], [2.0, 2.0, 2.0]]
    acts = [[0, 0, 0], [1, 1, 0], [0, 1, 1], [1, 0, 1], [1, 1, 1], [1, 0, 1]]
    return synthetic_trace(CHAIN3, rows, activations=acts)


ORACLE_TRACES = {
    "agent_chain": lambda: _agent_trace("chain", 12),
    "agent_star": lambda: _agent_trace("star", 8),
    "agent_ring_directed": lambda: _agent_trace("circular_directed", 10),
    "pairwise": _pairwise_trace,
    "matrix_stochastic": _stochastic_matrix_trace,
    "special_values": _special_values_trace,
    "flag_flips": _flag_flips_trace,
}


class TestTraceCsvOracle:
    @pytest.mark.parametrize("name", sorted(ORACLE_TRACES))
    def test_matches_csv_writer_loop(self, name):
        tr = ORACLE_TRACES[name]()
        assert trace_csv_text(tr) == reference_trace_csv(tr)

    @pytest.mark.parametrize("name", sorted(ORACLE_TRACES))
    def test_matches_with_tiny_blocks(self, name, monkeypatch):
        # one row per block, and one write per row
        monkeypatch.setattr(analysis, "_BLOCK_CELLS", 1)
        monkeypatch.setattr(analysis, "_WRITE_CHARS", 1)
        tr = ORACLE_TRACES[name]()
        assert trace_csv_text(tr) == reference_trace_csv(tr)


def reference_messages_csv(trace):
    """The message CSV as a csv.writer loop over every message writes it."""
    buf = io.StringIO()
    w = csv.writer(buf, lineterminator="\n")
    w.writerow(["time", "kind", "src", "dst", "payload"])
    for time, kind, src, dst, payload in (trace.messages or []):
        w.writerow([time, kind, src, dst,
                    "" if payload is None else analysis.format_value(payload)])
    return buf.getvalue()


def _messages_text(trace):
    buf = io.StringIO()
    write_messages_csv(trace, buf)
    return buf.getvalue()


def _crafted_messages_trace():
    """Every payload type a log can hold, floats at their edges included."""
    tr = synthetic_trace(CHAIN3, [[0.0, 1.0, 2.0]])
    payloads = [None, 1, True, 0.1, -0.0, 0.0, float("nan"), -float("nan"), float("inf"),
                -float("inf"), 5e-324, 1e300, -2.5e-17, np.float64(1 / 3), 12345678901234567890]
    messages = [(k, "state_ack", k % 3, -1 if k % 2 else 2, v) for k, v in enumerate(payloads)]
    return dataclasses.replace(tr, messages=messages)


def _logged(run, cfg, *args):
    return run(cfg, *args, collect_messages=True)


MESSAGE_TRACES = {
    "agent_ring": lambda: _logged(run_agent_sim, RunConfig(
        graph=build_topology("circular", 9), seed=2, max_iterations=30)),
    "agent_pure_neighbor": lambda: _logged(run_agent_sim, RunConfig(
        graph=build_topology("chain", 7), rule=UpdateRule(RuleVariant.PURE_NEIGHBOR), seed=3,
        max_iterations=30)),
    "pairwise": lambda: _logged(run_pairwise_baseline, RunConfig(
        graph=build_topology("star", 6), rule=UpdateRule(RuleVariant.PAIRWISE_BASELINE),
        seed=4, max_iterations=200)),
    "matrix_stochastic": lambda: _logged(
        run_matrix_sim, RunConfig(graph=build_topology("circular", 9), seed=6, max_iterations=60),
        activation_sequence(DutyCycleParams(p=0.4, q=0.3), 9, 60, seed=7)),
    "crafted": _crafted_messages_trace,
    "no_log": lambda: synthetic_trace(CHAIN3, [[0.0, 1.0, 2.0]]),
}


class TestMessagesCsvOracle:
    @pytest.mark.parametrize("chars", [None, 1, 64])
    @pytest.mark.parametrize("name", sorted(MESSAGE_TRACES))
    def test_matches_csv_writer_loop(self, name, chars, monkeypatch):
        # one line per write, two per write, and the default batches
        if chars is not None:
            monkeypatch.setattr(analysis, "_WRITE_CHARS", chars)
        tr = MESSAGE_TRACES[name]()
        assert name == "no_log" or tr.messages
        assert _messages_text(tr) == reference_messages_csv(tr)


def _bits(values) -> np.ndarray:
    return np.asarray(values, dtype=np.float64).view(np.int64)


def _fsum_or_error(row):
    """fsum of the row, or the class of the exception it raises."""
    try:
        return math.fsum(row)
    except (OverflowError, ValueError) as exc:
        return type(exc)


MAX, TINY, INF, NAN = np.finfo(float).max, 5e-324, float("inf"), float("nan")

#: rows whose correctly rounded sums are hard to certify, by kind
CRAFTED_ROWS = {
    "cancellation": [[1e16, 1.0, -1e16], [1.0, 1e100, 1.0, -1e100],
                     [1e308, -1e308, TINY], [0.1, 0.2, -0.3], [1e-300, 1e300, 1e-300, -1e300]],
    # exact ties round to even, one down and one up; a far term breaks them
    "ties": [[1.0, 2**-53], [1.0 + 2**-52, 2**-53], [2.0**53, 1.0], [2.0**53 + 2, 1.0],
             [1.0, 2**-53, 2**-105], [1.0, 2**-53, -2**-105], [1.0 + 2**-52, 2**-53, -2**-300],
             [3.0, 2**-52, 2**-80, -2**-80]],
    # just below a power of two the gap is half the one above it
    "powers_of_two": [[0.5, 0.25, 0.25], [1.0, -2**-54], [1.0, -2**-54, -2**-80],
                      [1.0, -2**-54, 2**-80], [1.0, -2**-55], [1.0, -2**-55, -2**-90],
                      [2.0**-1022, -TINY], [4.0, -2**-51, -2**-60, 2**-61],
                      [0.75, 0.25, -2**-54, 2**-200],
                      # fl(hi + lo) is the tie below 2.0 and the second tree's
                      # remainder is negative: half the gap above would accept 2.0
                      [1 + 2**-51, 1 - 2**-51, -2**-53, -2**-120]],
    "subnormal_and_zero": [[TINY, TINY, -2 * TINY], [TINY, 3 * TINY], [2.0**-1023, 2.0**-1023],
                           [2.0**-1022, -TINY, TINY], [0.0, 0.0], [-0.0, -0.0],
                           [-0.0, 0.0], [0.0, -0.0, -0.0]],
    # fsum returns nan or inf, raises ValueError on inf + -inf, and
    # OverflowError when a partial sum overflows, even one whose exact
    # total is finite
    "non_finite": [[NAN, 1.0], [1.0, INF], [-INF, 2.0], [INF, -INF], [NAN, INF, -INF],
                   [-NAN, INF], [MAX, MAX], [-MAX, -MAX, 1.0], [MAX, MAX, -MAX],
                   [1.0, MAX, MAX, -MAX, -MAX], [MAX, -MAX, MAX], [MAX, 2.0**970]],
}


def _arrangements(row):
    """The row, reversed, and padded with zeros to odd and even widths:
    equal sums through trees of other shapes."""
    out = [list(row), list(row)[::-1]]
    for width in (5, 8, 9, 16):
        if width > len(row):
            out.append(list(row) + [0.0] * (width - len(row)))
            out.append([0.0] * (width - len(row)) + list(row)[::-1])
    return out


def _random_rows(rows, n, seed):
    """Rows of mixed signs and magnitudes, half of them followed by the
    negation of their first half, so that most of their sum cancels."""
    rng = np.random.default_rng(seed)
    x = rng.normal(size=(rows, n)) * 2.0 ** rng.integers(-40, 40, size=(rows, n))
    h = n // 2
    x[::2, n - h:] = -x[::2, :h] * (1.0 + rng.integers(-2, 3, size=(len(x[::2]), h)) * 2**-52)
    return x


#: _BLOCK_CELLS for the drift tests: row sums take _BLOCK_CELLS // (4 n)
#: rows per block, so 1 and 7 make one-row blocks and 100 blocks of a few
DRIFT_BLOCK_CELLS = [None, 1, 7, 100]


class TestDriftOracle:
    """Trace.drifts against one fsum per row, bit for bit."""

    @pytest.mark.parametrize("cells", DRIFT_BLOCK_CELLS)
    @pytest.mark.parametrize("name", sorted(ORACLE_TRACES))
    def test_matches_fsum_loop(self, name, cells, monkeypatch):
        if cells is not None:
            monkeypatch.setattr(analysis, "_BLOCK_CELLS", cells)
        tr = ORACLE_TRACES[name]()
        assert np.array_equal(_bits(tr.drifts), _bits(fsum_drifts(tr)))

    @pytest.mark.parametrize("name", sorted(ORACLE_TRACES))
    def test_metrics_csv_matches_per_row_loop(self, name):
        tr = ORACLE_TRACES[name]()
        rows = zip(fsum_drifts(tr).tolist(), tr.disagreements.tolist())
        assert metrics_csv_text(tr) == "iteration,drift,disagreement\n" + "".join(
            f"{k},{d:.17g},{e:.17g}\n" for k, (d, e) in enumerate(rows))

    @pytest.mark.parametrize("cells", DRIFT_BLOCK_CELLS)
    @pytest.mark.parametrize("kind", sorted(CRAFTED_ROWS))
    def test_crafted_rows(self, kind, cells, monkeypatch):
        if cells is not None:
            monkeypatch.setattr(analysis, "_BLOCK_CELLS", cells)
        for row in CRAFTED_ROWS[kind]:
            for x in _arrangements(row):
                want = _fsum_or_error(x)
                # a zero first row makes x_avg 0, so the drift is |sum / n|
                tr = synthetic_trace(build_topology("chain", len(x)), [[0.0] * len(x), x])
                if isinstance(want, type):
                    with pytest.raises(want):
                        analysis._row_fsums(np.array([x]))
                    with pytest.raises(want):
                        tr.drifts
                    continue
                # fsum gives 0.0 for every zero sum; + 0.0 clears a -0.0
                assert _bits(analysis._row_fsums(np.array([x]))[0] + 0.0) == _bits(want + 0.0), x
                assert np.array_equal(_bits(tr.drifts), _bits(fsum_drifts(tr))), x

    @pytest.mark.parametrize("cells", DRIFT_BLOCK_CELLS)
    def test_crafted_rows_in_one_trace(self, cells, monkeypatch):
        # every finite crafted row as one row of a 9-node trace, so that
        # rows the tree certifies and rows fsum sums share blocks
        if cells is not None:
            monkeypatch.setattr(analysis, "_BLOCK_CELLS", cells)
        rows = [x for kind, crafted in sorted(CRAFTED_ROWS.items()) if kind != "non_finite"
                for row in crafted for x in _arrangements(row) if len(x) <= 9]
        rows = [[0.5] * 9] + [x + [0.0] * (9 - len(x)) for x in rows]
        tr = synthetic_trace(build_topology("chain", 9), rows)
        assert np.array_equal(_bits(tr.drifts), _bits(fsum_drifts(tr)))
        assert np.array_equal(_bits(analysis._row_fsums(tr.states) + 0.0),
                              _bits([math.fsum(x) + 0.0 for x in rows]))

    def test_non_finite_initial_row(self):
        # x_avg is inf, so rows give inf - inf and inf - x without a warning
        tr = synthetic_trace(CHAIN3, [[INF, 0.0, 0.0], [INF, 1.0, 0.0], [1.0, 2.0, 3.0]])
        assert np.array_equal(_bits(tr.drifts), _bits(fsum_drifts(tr)))

    def test_one_column(self):
        values = [1.5, -0.0, TINY, -MAX, 2.0**-1022, 0.1, INF, -INF, NAN]
        got = analysis._row_fsums(np.array(values)[:, None])
        assert np.array_equal(_bits(got + 0.0), _bits([math.fsum([v]) + 0.0 for v in values]))

    @pytest.mark.parametrize("n", [1, 2, 3, 5, 8, 13, 50])
    def test_random_rows(self, n):
        x = _random_rows(400, n, seed=n)
        want = [math.fsum(row) + 0.0 for row in x]
        assert np.array_equal(_bits(analysis._row_fsums(x) + 0.0), _bits(want))
        if n > 1:
            tr = synthetic_trace(build_topology("chain", n), x)
            assert np.array_equal(_bits(tr.drifts), _bits(fsum_drifts(tr)))


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
    "ring_directed": lambda: _agent_trace("circular_directed", 10),
}


ONE_ROW_GRAPHS = [build_topology(kind, 40) for kind in ("chain", "star", "circular", "complete")]
ONE_ROW_GRAPHS += [
    build_topology("circular_directed", 40),
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
        series = tr.disagreements
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
        # one magnitude per seed; a one-row series, the recorder's x0 and
        # a row of a taller block all add their terms in arc order, and
        # disagreement_of gives the pairwise sum of a flat vector, bit for
        # bit, on every graph
        scale = (1e-8, 1e-3, 1.0, 1e4, 1e9)[seed]
        for g in ONE_ROW_GRAPHS:
            x = np.random.default_rng(seed).uniform(0.0, 100.0, g.node_count) * scale
            i, j = g.arcs
            diff = x[i] - x[j]
            assert disagreement_of(x, g) == float(np.sqrt((diff * diff).sum() / g.node_count))
            want = sequential_disagreement(x, g)
            assert synthetic_trace(g, [x]).disagreements[0] == want
            assert engine._Recorder(g, x, 1, 1e-6, False).series[0] == want
            assert synthetic_trace(g, [x[::-1], x]).disagreements[1] == want


#: _BLOCK_CELLS for the disagreement tests. Row blocks hold at least
#: max(2, _BLOCK_CELLS // n) rows and arc chunks _BLOCK_CELLS // rows arcs:
#: 1 and 2 give chunks of one arc, and 14, on 8 or more nodes, two-row
#: blocks with chunks of seven arcs
DISAGREEMENT_BLOCK_CELLS = [None, 1, 2, 14, 100]


def _slices(rows):
    """Every row alone, runs of two, three and seven rows from every
    third row, and the whole range, its second row on and its second
    half."""
    out = {(k, k + 1) for k in range(rows)}
    out |= {(lo, min(lo + h, rows)) for lo in range(0, rows, 3) for h in (2, 3, 7)}
    out |= {(0, rows), (min(1, rows - 1), rows), (rows // 2, rows)}
    return sorted(out)


class TestDisagreementOracle:
    """disagreement_rows against an in-order pass that sums each block's
    whole (arcs, rows) array of terms at once, bit for bit: a row's value
    does not depend on the rows summed with it."""

    @pytest.mark.parametrize("cells", DISAGREEMENT_BLOCK_CELLS)
    @pytest.mark.parametrize("name", sorted(ORACLE_TRACES))
    def test_matches_whole_block_sums(self, name, cells, monkeypatch):
        tr = ORACLE_TRACES[name]()
        want = block_disagreements(tr.states, tr.graph)
        # the recorder's series, then fresh passes over every row alone
        # and over slices of the trace
        assert np.array_equal(_bits(tr.disagreements), _bits(want))
        if cells is not None:
            monkeypatch.setattr(analysis, "_BLOCK_CELLS", cells)
        for lo, hi in _slices(tr.iterations):
            got = disagreement_rows(tr.states[lo:hi], tr.graph)
            assert np.array_equal(_bits(got), _bits(want[lo:hi])), (lo, hi)
            assert np.array_equal(_bits(block_disagreements(tr.states[lo:hi], tr.graph)),
                                  _bits(want[lo:hi])), (lo, hi)

    @pytest.mark.parametrize("cells", DISAGREEMENT_BLOCK_CELLS)
    def test_rows_of_nan_and_inf(self, cells, monkeypatch):
        if cells is not None:
            monkeypatch.setattr(analysis, "_BLOCK_CELLS", cells)
        g = build_topology("chain", 9)
        x = _random_rows(12, 9, seed=3)
        x[1, 4] = np.nan
        x[2, 0] = -np.nan
        x[3, 5] = np.inf
        x[4, 6:] = -np.inf
        x[5] = np.inf
        x[6, 2], x[6, 3] = np.inf, np.nan
        x[7] = 1e300  # squares overflow to inf
        x[8, ::2] = 1e300
        want = block_disagreements(x, g)
        for lo, hi in _slices(len(x)):
            assert np.array_equal(_bits(disagreement_rows(x[lo:hi], g)), _bits(want[lo:hi]))
        for k in range(len(x)):
            assert _bits(want[k]) == _bits(sequential_disagreement(x[k], g))

    def test_judged_series_seeds_the_trace_and_replace_recomputes(self):
        tr = synthetic_trace(CHAIN3, [[0.0, 6.0, 0.0], [2.0, 2.0, 2.0]])
        judged = Trace(graph=tr.graph, states=tr.states, activations=tr.activations,
                       cycle_ticks=1, tolerance=1e-6, judged=np.array([7.0, 8.0]))
        assert judged.disagreements.tolist() == [7.0, 8.0]
        assert not judged.disagreements.flags.writeable
        assert judged.convergence_row is None
        again = dataclasses.replace(judged, states=judged.states)
        assert np.array_equal(again.disagreements, tr.disagreements)
        assert again.convergence_row == 1
