"""Engine backends: agent wave, matrix recursion, closed form, pairwise."""

from argparse import Namespace
from dataclasses import FrozenInstanceError, replace
from math import ceil, fsum

import numpy as np
import pytest

from gossipsim import (
    ConfigError,
    Graph,
    RunConfig,
    SimulationError,
    UpdateRule,
    assign_layers,
    build_topology,
    analysis,
    cli,
    engine,
    run_agent_sim,
    run_matrix_sim,
    run_pairwise_baseline,
    step_matrix,
)
from gossipsim.analysis import sustained_run
from gossipsim.engine import initial_states
from gossipsim.rules import RuleVariant

from closed_form import closed_form_state

CHAIN3 = build_topology("chain", 3)
CHAIN4 = build_topology("chain", 4)
STAR6 = build_topology("star", 6)
RING6 = build_topology("circular", 6)

POLL_RULES = (RuleVariant.NEIGHBORHOOD_SET, RuleVariant.PURE_NEIGHBOR,
              RuleVariant.SELF_ADDITIVE)


def ones_schedule(n, steps):
    return np.ones((steps, n), dtype=np.uint8)


class TestInitialStates:
    def test_default_draw_range_and_determinism(self):
        cfg = RunConfig(graph=STAR6, seed=7)
        x_a, _ = initial_states(cfg)
        x_b, _ = initial_states(cfg)
        assert np.array_equal(x_a, x_b)
        assert ((x_a >= 0.0) & (x_a < 100.0)).all()
        x_c, _ = initial_states(RunConfig(graph=STAR6, seed=8))
        assert not np.array_equal(x_a, x_c)

    def test_explicit_vector_used_verbatim(self):
        want = np.array([3.0, 1.0, 4.0])
        cfg = RunConfig(graph=CHAIN3, initial_states=want)
        got, _ = initial_states(cfg)
        assert np.array_equal(got, want)

    def test_config_validation(self):
        with pytest.raises(ConfigError):
            RunConfig(graph=CHAIN3, max_iterations=0)
        for tol in (0.0, float("nan"), float("inf")):
            with pytest.raises(ConfigError):
                RunConfig(graph=CHAIN3, tolerance=tol)
        with pytest.raises(ConfigError):
            RunConfig(graph=CHAIN3, initial_states=np.zeros(5))
        with pytest.raises(ConfigError):
            RunConfig(graph=CHAIN3, initial_states=np.array([0.0, np.inf, 1.0]))


class TestTicksPerCycle:
    """A beacon cycle is one tick, and so one trace row, per hop layer."""

    def test_chain4_three_layers(self):
        tr = run_agent_sim(RunConfig(graph=CHAIN4, max_iterations=1))
        assert tr.cycle_ticks == assign_layers(CHAIN4).layer_count == 3
        assert tr.iterations == 1 + 3

    def test_star_single_layer(self):
        tr = run_agent_sim(RunConfig(graph=STAR6, max_iterations=1))
        assert tr.cycle_ticks == assign_layers(STAR6).layer_count == 1


class TestFixedPointsAndBounds:
    @pytest.mark.parametrize("variant", [RuleVariant.NEIGHBORHOOD_SET,
                                         RuleVariant.PURE_NEIGHBOR])
    def test_consensus_is_fixed_point(self, variant):
        cfg = RunConfig(graph=RING6, rule=UpdateRule(variant),
                        initial_states=np.full(6, 2.5), max_iterations=3,
                        tolerance=1e-15)
        tr = run_agent_sim(cfg)
        assert (tr.states == 2.5).all()
        assert tr.converged

    def test_consensus_fixed_under_pairwise(self):
        cfg = RunConfig(graph=RING6, rule=UpdateRule(RuleVariant.PAIRWISE_BASELINE),
                        initial_states=np.full(6, 2.5), max_iterations=12)
        tr = run_pairwise_baseline(cfg)
        assert (tr.states == 2.5).all()

    def test_self_additive_doubles_a_constant(self):
        # one fully active step: every node adds its own value to the
        # neighbor mean, so a constant vector scales by two
        cfg = RunConfig(graph=RING6, rule=UpdateRule(RuleVariant.SELF_ADDITIVE),
                        initial_states=np.full(6, 2.5), max_iterations=1)
        tr = run_matrix_sim(cfg, ones_schedule(6, 1))
        assert np.array_equal(tr.states[1], np.full(6, 5.0))

    def test_row_sums_conserved_by_neighborhood_set(self):
        from math import fsum
        g = build_topology("random_geometric", 12, seed=3)
        cfg = RunConfig(graph=g, seed=5, max_iterations=20)
        tr = run_agent_sim(cfg)
        for row in tr.states:
            assert abs(fsum(row) / g.node_count - tr.x_avg) <= 1e-12

    def test_row_sums_conserved_by_pairwise(self):
        from math import fsum
        g = build_topology("circular", 8)
        cfg = RunConfig(graph=g, rule=UpdateRule(RuleVariant.PAIRWISE_BASELINE),
                        seed=5, max_iterations=300)
        tr = run_pairwise_baseline(cfg)
        for row in tr.states:
            assert abs(fsum(row) / 8 - tr.x_avg) <= 1e-12

    @pytest.mark.parametrize("variant", [RuleVariant.NEIGHBORHOOD_SET,
                                         RuleVariant.PURE_NEIGHBOR])
    def test_states_stay_in_initial_hull(self, variant):
        g = build_topology("random_geometric", 12, seed=3)
        cfg = RunConfig(graph=g, rule=UpdateRule(variant), seed=9,
                        max_iterations=15)
        tr = run_agent_sim(cfg)
        lo, hi = tr.states[0].min(), tr.states[0].max()
        assert tr.states.min() >= lo - 1e-12
        assert tr.states.max() <= hi + 1e-12


class TestStepMatrix:
    def test_all_asleep_holds_everything(self):
        w = step_matrix(RING6, UpdateRule(), np.zeros(6))
        assert np.array_equal(w, np.eye(6))

    def test_neighborhood_set_composes_in_id_order(self):
        # initiator 0 folds {0,1} to their mean, then initiator 1 folds
        # {0,1,2}; the product is the full uniform averaging matrix
        w = step_matrix(CHAIN3, UpdateRule(), np.array([1, 1, 0]))
        assert np.allclose(w, np.full((3, 3), 1 / 3), atol=1e-15)

    def test_neighborhood_set_is_the_product_of_one_hot_steps(self):
        g = build_topology("random_geometric", 12, radius=0.5, seed=3)
        rng = np.random.default_rng(4)
        for _ in range(5):
            phi = rng.random(12) < 0.5
            want = np.eye(12)
            for i in np.flatnonzero(phi):  # ascending id
                want = step_matrix(g, UpdateRule(), np.arange(12) == i) @ want
            assert np.abs(step_matrix(g, UpdateRule(), phi) - want).max() <= 1e-15

    def test_poll_rule_replaces_active_rows_only(self):
        w = step_matrix(CHAIN3, UpdateRule(RuleVariant.PURE_NEIGHBOR),
                        np.array([0, 1, 0]))
        assert np.allclose(w[0], [1, 0, 0])
        assert np.allclose(w[1], [0.5, 0, 0.5])
        assert np.allclose(w[2], [0, 0, 1])

    def test_bad_phi_shape_rejected(self):
        with pytest.raises(ConfigError):
            step_matrix(CHAIN3, UpdateRule(), np.zeros(4))


class TestMatrixBackend:
    def test_all_sleeping_step_holds_state(self):
        cfg = RunConfig(graph=CHAIN3, initial_states=np.array([0.0, 6.0, 0.0]),
                        max_iterations=1)
        tr = run_matrix_sim(cfg, np.zeros((1, 3), dtype=np.uint8))
        assert np.array_equal(tr.states[1], tr.states[0])

    def test_fully_active_matches_matrix_power_oracle(self):
        rule = UpdateRule(RuleVariant.PURE_NEIGHBOR)
        cfg = RunConfig(graph=RING6, rule=rule, seed=2, max_iterations=15)
        tr = run_matrix_sim(cfg, ones_schedule(6, 15))
        w = step_matrix(RING6, rule, np.ones(6))
        x0 = tr.states[0]
        for k in range(16):
            want = np.linalg.matrix_power(w, k) @ x0
            assert np.abs(tr.states[k] - want).max() <= 1e-11

    def test_validation(self):
        cfg = RunConfig(graph=CHAIN3, max_iterations=4)
        with pytest.raises(ConfigError):
            run_matrix_sim(cfg, np.zeros((4, 5)))
        with pytest.raises(ConfigError):
            run_matrix_sim(cfg, np.zeros((2, 3)))
        bad = RunConfig(graph=CHAIN3, rule=UpdateRule(RuleVariant.PAIRWISE_BASELINE),
                        max_iterations=4)
        with pytest.raises(ConfigError):
            run_matrix_sim(bad, np.zeros((4, 3)))


class TestNodeWithoutInNeighbors:
    # directed chain 0 -> 1 -> 2: node 0 hears nobody
    G = Graph(node_count=3, anchor_id=0, directed=True, arcs=([0, 1], [1, 2]))

    def test_beacon_run_raises_simulation_error(self):
        with pytest.raises(SimulationError, match="node 0 has nobody to poll"):
            run_agent_sim(RunConfig(graph=self.G, max_iterations=2))

    def test_scripted_run_raises_only_when_scheduled(self):
        cfg = RunConfig(graph=self.G, max_iterations=2)
        schedule = np.array([[0, 1, 1], [1, 0, 0]], dtype=np.uint8)
        with pytest.raises(SimulationError, match="node 0 has nobody to poll"):
            run_matrix_sim(cfg, schedule, collect_messages=True)
        tr = run_matrix_sim(replace(cfg, max_iterations=1), schedule, collect_messages=True)
        assert tr.iterations == 2
        assert tr.message_counts == {"beacon": 0, "wake_up": 2,
                                     "state_request": 2, "state_ack": 2}


class TestSwitchedSystem:
    def test_block_structure(self):
        # one step of the closed form is the step matrix applied to x0
        schedule = np.array([[1, 0, 0]], dtype=np.uint8)
        cfg = RunConfig(graph=CHAIN3, seed=3, max_iterations=1)
        x0, _ = initial_states(cfg)
        y = closed_form_state(cfg, schedule, 1)
        assert np.array_equal(y, step_matrix(CHAIN3, UpdateRule(), schedule[0]) @ x0)

    def test_closed_form_step_zero_is_initial_stack(self):
        cfg = RunConfig(graph=CHAIN3, seed=3, max_iterations=5)
        x0, _ = initial_states(cfg)
        assert np.array_equal(closed_form_state(cfg, np.zeros((5, 3)), 0), x0)

    @pytest.mark.parametrize("variant", POLL_RULES)
    def test_closed_form_matches_recursion(self, variant):
        rng = np.random.default_rng(17)
        g = build_topology("random_geometric", 8, seed=5)
        schedule = (rng.random((20, 8)) < 0.4).astype(np.uint8)
        cfg = RunConfig(graph=g, rule=UpdateRule(variant), seed=6,
                        max_iterations=20)
        tr = run_matrix_sim(cfg, schedule)
        for k in (1, 7, 20):
            y = closed_form_state(cfg, schedule, k)
            assert y.shape == (8,)
            assert np.abs(y - tr.states[k]).max() <= 1e-10

    def test_out_of_range_step_rejected(self):
        cfg = RunConfig(graph=CHAIN3, max_iterations=2)
        with pytest.raises(ConfigError):
            closed_form_state(cfg, np.zeros((2, 3)), 3)


class TestBeaconSchedule:
    def test_chain4_wave_tick_pattern(self):
        cfg = RunConfig(graph=CHAIN4, seed=0, max_iterations=2, tolerance=1e-15)
        tr = run_agent_sim(cfg)
        assert tr.iterations == 1 + 2 * 3
        # cycle 0: layer 1 = {0,1}, then {2}, then {3}; cycle 1 repeats
        want = [[1, 1, 0, 0], [0, 0, 1, 0], [0, 0, 0, 1]]
        assert tr.activations[1:4].tolist() == want
        assert tr.activations[4:7].tolist() == want

    def test_star_updates_everyone_in_one_tick(self):
        cfg = RunConfig(graph=STAR6, seed=0, max_iterations=3)
        tr = run_agent_sim(cfg)
        assert (tr.activations[1] == 1).all()
        assert tr.cycle_ticks == 1

    def test_star_converges_in_first_cycle(self):
        cfg = RunConfig(graph=STAR6, seed=0, max_iterations=50)
        tr = run_agent_sim(cfg)
        assert tr.converged
        assert tr.iterations == 2  # initial row plus the one wave tick
        gap = tr.final_state - tr.x_avg
        assert np.abs(gap).max() <= 1e-12

    def test_same_seed_reproduces_exactly(self):
        cfg = RunConfig(graph=RING6, seed=12, max_iterations=6)
        tr_a = run_agent_sim(cfg)
        tr_b = run_agent_sim(cfg)
        assert np.array_equal(tr_a.states, tr_b.states)
        assert np.array_equal(tr_a.activations, tr_b.activations)
        assert tr_a.message_counts == tr_b.message_counts


class TestEnergyAccounting:
    def test_agent_message_counts(self):
        cfg = RunConfig(graph=RING6, seed=12, max_iterations=4, tolerance=1e-15)
        tr = run_agent_sim(cfg, collect_messages=True)
        updates = int(tr.activations.sum())
        assert updates == 4 * 6  # every node once per cycle
        assert tr.message_counts["beacon"] == 4
        assert tr.message_counts["wake_up"] == updates
        # each update polls both ring neighbors and each poll is acked
        assert tr.message_counts["state_request"] == updates * 2
        assert tr.message_counts["state_ack"] == updates * 2
        assert tr.total_messages() == sum(tr.message_counts.values())
        assert len(tr.messages) == tr.total_messages()
        kinds = {m[1] for m in tr.messages}
        assert kinds <= {"beacon", "wake_up", "state_request", "state_ack"}

    def test_pairwise_message_counts(self):
        g = build_topology("circular", 8)
        cfg = RunConfig(graph=g, rule=UpdateRule(RuleVariant.PAIRWISE_BASELINE),
                        seed=3, max_iterations=25, tolerance=1e-15)
        tr = run_pairwise_baseline(cfg, collect_messages=True)
        assert tr.message_counts == {"state_request": 25, "state_ack": 25}
        assert len(tr.messages) == 50


class TestPairwiseBaseline:
    def test_two_nodes_meet_at_midpoint(self):
        g = build_topology("chain", 2)
        cfg = RunConfig(graph=g, rule=UpdateRule(RuleVariant.PAIRWISE_BASELINE),
                        initial_states=np.array([0.0, 8.0]), max_iterations=10)
        tr = run_pairwise_baseline(cfg)
        assert np.array_equal(tr.states[1], [4.0, 4.0])
        assert tr.converged

    def test_partial_step_with_small_alpha(self):
        g = build_topology("chain", 2)
        rule = UpdateRule(RuleVariant.PAIRWISE_BASELINE, alpha=0.25)
        cfg = RunConfig(graph=g, rule=rule, initial_states=np.array([0.0, 8.0]),
                        max_iterations=1)
        tr = run_pairwise_baseline(cfg)
        assert sorted(tr.states[1]) == [2.0, 6.0]

    def test_converges_across_seeds(self):
        g = build_topology("circular", 8)
        for seed in range(5):
            cfg = RunConfig(graph=g, rule=UpdateRule(RuleVariant.PAIRWISE_BASELINE),
                            seed=seed, max_iterations=6000)
            tr = run_pairwise_baseline(cfg)
            assert tr.converged, f"seed {seed} did not converge"
            assert abs(np.mean(tr.final_state) - tr.x_avg) <= 1e-12

    def test_directed_graph_rejected(self):
        g = build_topology("circular_directed", 5)
        cfg = RunConfig(graph=g, rule=UpdateRule(RuleVariant.PAIRWISE_BASELINE))
        with pytest.raises(ConfigError):
            run_pairwise_baseline(cfg)

    def test_exact_activation_flags(self):
        g = build_topology("circular", 8)
        cfg = RunConfig(graph=g, rule=UpdateRule(RuleVariant.PAIRWISE_BASELINE),
                        seed=3, max_iterations=40, tolerance=1e-15)
        tr = run_pairwise_baseline(cfg)
        assert (tr.activations[1:].sum(axis=1) == 2).all()
        assert tr.cycle_ticks == 8


def first_stop(ok, cycle_ticks):
    """(first row, stop row) of the first run of cycle_ticks ok rows, one
    row at a time; None if no run does."""
    start = None
    for k, good in enumerate(ok):
        if not good:
            start = None
            continue
        if start is None:
            start = k
        if k - start >= cycle_ticks - 1:
            return start, k
    return None


PAIRWISE = UpdateRule(RuleVariant.PAIRWISE_BASELINE)

# agent and pairwise runs: (graph, rule, seed, max_iterations, tolerance).
# chain20_ulp stops at row 730 when the stop is judged with a sum other
# than the one its metrics use: no run of its rows spans a cycle there.
STOP_RUNS = {
    "chain20_ulp": (build_topology("chain", 20), UpdateRule(), 1, 400,
                    0.1827057988809243),
    "chain20_1e-6": (build_topology("chain", 20), UpdateRule(), 1, 400, 1e-6),
    "star8": (build_topology("star", 8), UpdateRule(), 3, 50, 1e-6),
    "ring10_directed": (build_topology("circular_directed", 10),
                        UpdateRule(), 4, 400, 1e-4),
    "rgg30": (build_topology("random_geometric", 30, radius=0.4, seed=2),
              UpdateRule(), 5, 200, 1e-8),
    "pairwise_ring12": (build_topology("circular", 12), PAIRWISE, 6, 5000, 1e-3),
    "pairwise_rgg12": (build_topology("random_geometric", 12, radius=0.5,
                                      seed=2), PAIRWISE, 7, 5000, 1e-2),
}


def stop_run(name, **kw):
    g, rule, seed, steps, tol = STOP_RUNS[name]
    cfg = RunConfig(graph=g, rule=rule, seed=seed, max_iterations=steps, tolerance=tol)
    run = run_pairwise_baseline if rule is PAIRWISE else run_agent_sim
    return run(cfg, **kw), tol


class TestStopRule:
    """A run stops on the row its own metrics call converged."""

    @pytest.mark.parametrize("name", sorted(STOP_RUNS))
    def test_stops_at_first_row_its_series_spans_a_cycle(self, name):
        tr, tol = stop_run(name)
        assert tr.converged
        ok = tr.disagreements < tol
        last = tr.iterations - 1
        k = tr.convergence_row
        assert first_stop(ok, tr.cycle_ticks) == (k, last)
        assert ok[k:].all()
        assert last - k == tr.cycle_ticks - 1

    @pytest.mark.parametrize("name", ["chain20_1e-6", "pairwise_ring12"])
    def test_budget_cut_run_has_no_sustained_run(self, name):
        g, rule, seed, _, tol = STOP_RUNS[name]
        steps = 10 if rule is PAIRWISE else 3
        cfg = RunConfig(graph=g, rule=rule, seed=seed, max_iterations=steps, tolerance=tol)
        tr = (run_pairwise_baseline if rule is PAIRWISE else run_agent_sim)(cfg)
        assert not tr.converged
        assert first_stop(tr.disagreements < tol, tr.cycle_ticks) is None
        assert tr.convergence_row is None

    @pytest.mark.parametrize("name", sorted(STOP_RUNS))
    def test_messages_end_at_the_stop_row(self, name):
        tr, _ = stop_run(name, collect_messages=True)
        plain, _ = stop_run(name)
        assert np.array_equal(tr.states, plain.states)
        assert tr.message_counts == plain.message_counts
        assert tr.messages[-1][0] == tr.iterations - 1
        kinds = {}
        for m in tr.messages:
            kinds[m[1]] = kinds.get(m[1], 0) + 1
        assert kinds == {k: v for k, v in tr.message_counts.items() if v}

    @pytest.mark.parametrize("tol", [pytest.param(None, id="own"), 1e-3, 1e-9])
    @pytest.mark.parametrize("name", sorted(STOP_RUNS))
    def test_rejudged_trace_reads_its_new_tolerance(self, name, tol):
        tr, own = stop_run(name)
        t = own if tol is None else tol
        again = replace(tr, tolerance=t)
        run = first_stop(tr.disagreements < t, tr.cycle_ticks)
        row = None if run is None else run[0]
        assert again.convergence_row == row
        assert again.converged == (row is not None)
        rounds = None if row is None else ceil(row / tr.cycle_ticks)
        assert again.rounds_to_tolerance == rounds
        summary = cli.summarize(again)
        assert summary["converged"] == ("true" if row is not None else "false")
        assert summary["rounds_to_tolerance"] == ("" if rounds is None else str(rounds))

    def test_pairwise_counts_come_from_rows_kept(self):
        tr, _ = stop_run("pairwise_ring12")
        assert tr.iterations - 1 < 5000
        assert tr.message_counts == {"state_request": tr.iterations - 1,
                                     "state_ack": tr.iterations - 1}

    @pytest.mark.parametrize("name", ["star8", "chain20_1e-6", "ring10_directed",
                                      "pairwise_ring12"])
    def test_recorder_values_equal_the_series(self, name, monkeypatch):
        judged, recorded = [], []  # (rows, values) of each pass; each block recorded

        def spy(states, graph):
            out = analysis.disagreement_rows(states, graph)
            judged.append((states.copy(), out))
            return out

        class Spy(engine._Recorder):
            def record(self, values, src, acts):
                recorded.append(values.take(src))
                super().record(values, src, acts)

        monkeypatch.setattr(engine, "disagreement_rows", spy)
        monkeypatch.setattr(engine, "_Recorder", Spy)
        tr, _ = stop_run(name)
        # every row recorded, the dropped ones too, goes through one pass,
        # once and in order, and the values of the rows kept are the series
        rows = np.concatenate([r for r, _ in judged])
        assert rows.tobytes() == np.concatenate(recorded).tobytes()
        values = np.concatenate([v for _, v in judged])
        assert values[:tr.iterations].tobytes() == tr.disagreements.tobytes()


def preset_cfgd(preset, rule, **keys):
    """The CLI's resolved config of a preset under rule, with keys set."""
    cfgd = cli.resolve_config(Namespace(preset=preset, config=None))
    cfgd["rule.variant"] = rule
    cfgd.update(keys)
    return cfgd


VERDICT_RUNS = {
    f"{preset}/{rule}": preset_cfgd(preset, rule)
    for preset in cli.PRESETS
    for rule in ("neighborhood_set", "pure_neighbor", "pairwise_baseline")
    if not (rule == "pairwise_baseline" and preset == "circular_directed")
}
# the budget compare gives the baseline, enough for it to converge
VERDICT_RUNS["random_geometric/pairwise_long"] = preset_cfgd(
    "random_geometric", "pairwise_baseline", **{"run.max_iterations": 300 * 50})
# hub-anchored star: one layer, one-tick cycles, and x0 already at consensus
VERDICT_RUNS["star/constant"] = preset_cfgd("star", "neighborhood_set",
                                            **{"run.initial_states": [3.25] * 50})


class TestOneVerdict:
    """A trace's converged is read off its rows by the window rule alone,
    and the runs that stop early stop where that rule first holds."""

    @pytest.mark.parametrize("name", sorted(VERDICT_RUNS))
    def test_stopped_runs_end_on_their_spanning_row(self, name):
        cfgd = VERDICT_RUNS[name]
        tr = cli.execute_run(cfgd)
        run = sustained_run(tr.disagreements < tr.tolerance, tr.cycle_ticks)
        assert tr.tolerance == cfgd["run.tolerance"]
        assert tr.converged == (run is not None)
        if tr.converged:
            assert run[1] == tr.iterations - 1
        elif cfgd["rule.variant"] == "pairwise_baseline":
            assert tr.iterations - 1 == cfgd["run.max_iterations"]
        else:
            assert tr.message_counts["beacon"] == cfgd["run.max_iterations"]

    def test_constant_star_stops_on_x0(self):
        tr = cli.execute_run(VERDICT_RUNS["star/constant"])
        assert tr.cycle_ticks == 1
        assert tr.converged and tr.iterations == 1
        assert tr.message_counts["beacon"] == 0

    @pytest.mark.parametrize("name", sorted(n for n in VERDICT_RUNS if "pairwise" not in n))
    def test_scripted_runs_converge_on_any_row_below_tolerance(self, name):
        tr = cli.execute_run(dict(VERDICT_RUNS[name], **{"run.backend": "matrix"}))
        assert tr.iterations == VERDICT_RUNS[name]["run.max_iterations"] + 1
        assert tr.converged == bool((tr.disagreements < tr.tolerance).any())


class TestFrozenTrace:
    def test_fields_cannot_be_assigned(self):
        tr = run_agent_sim(RunConfig(graph=CHAIN4, max_iterations=3))
        for name in ("blocks", "states", "converged", "x_avg", "message_counts"):
            with pytest.raises(FrozenInstanceError):
                setattr(tr, name, None)

    def test_rows_are_read_only(self):
        tr = run_agent_sim(RunConfig(graph=CHAIN4, max_iterations=3))
        for rows in (tr.states, tr.activations):
            with pytest.raises(ValueError, match="read-only"):
                rows[-1] = 0
        # and so are the blocks they are gathered from
        for block in tr.blocks:
            for a in block:
                with pytest.raises(ValueError, match="read-only"):
                    a[-1] = 0

    def test_verdict_and_mean_are_derived_from_the_rows(self):
        tr = run_agent_sim(RunConfig(graph=CHAIN4, seed=2, max_iterations=200))
        assert tr.converged
        assert tr.x_avg == fsum(tr.states[0]) / 4
        tight = replace(tr, tolerance=1e-300)
        assert not tight.converged
        assert tight.x_avg == tr.x_avg
