"""The engine's recorder and kernel against the ones they replaced.

Every runner's trace must be the one tests/list_recorder.py records, bit
for bit: states, activations, disagreements, message counts and message
log, at the default chunk size and at chunks of a few rows, where
recorded blocks span chunk boundaries and the rows a converged run
drops can fill whole chunks. The poll-round runners must also give the
traces of the per-tick kernel in tests/tick_kernel.py: on every preset
under every poll rule and backend, and with the cycles and scripts
compiled in slices of a few ticks, which chunks of a few rows bring
about.
"""

import weakref
from argparse import Namespace
from dataclasses import replace

import numpy as np
import pytest

from gossipsim import RunConfig, UpdateRule, build_topology, cli, engine
from gossipsim.engine import run_agent_sim, run_pairwise_baseline

from list_recorder import ListRecorder
from tick_kernel import run_agent_per_tick, run_matrix_per_tick


def cfgd_of(preset, **keys):
    cfgd = cli.resolve_config(Namespace(preset=preset, config=None))
    cfgd.update(keys)
    return cfgd


# the five presets on the agent backend, the scripted runner and the baseline
CLI_RUNS = {
    **{preset: cfgd_of(preset) for preset in cli.PRESETS},
    "matrix/chain": cfgd_of("chain", **{"run.backend": "matrix"}),
    "matrix/stochastic": cfgd_of("circular", **{"run.backend": "matrix", "duty.p": 0.3,
                                                "duty.q": 0.6, "run.max_iterations": 300}),
    "pairwise/random_geometric": cfgd_of("random_geometric", **{
        "rule.variant": "pairwise_baseline", "run.max_iterations": 300 * 50}),
    "pairwise/star": cfgd_of("star", **{"rule.variant": "pairwise_baseline"}),
}
# runs small enough to log every message
MESSAGE_RUNS = ["star", "random_geometric", "matrix/stochastic", "pairwise/star"]

PAIRWISE = UpdateRule.parse("pairwise_baseline")
# (graph, rule, seed, max_iterations, tolerance): runs that stop after a
# few hundred rows
SMALL_RUNS = {
    "chain6": (build_topology("chain", 6), UpdateRule(), 1, 200, 1e-3),
    "star8": (build_topology("star", 8), UpdateRule(), 3, 50, 1e-6),
    "ring6_directed": (build_topology("circular_directed", 6), UpdateRule(), 4, 200, 1e-2),
    "pairwise_ring8": (build_topology("circular", 8), PAIRWISE, 6, 2000, 1e-2),
    # the baseline under a budget that is not a multiple of n, stopping in
    # its last, shorter block of exchanges; and on an odd node count,
    # stopping inside a cycle
    "pairwise_ring8_cut": (build_topology("circular", 8), PAIRWISE, 6, 213, 1e-2),
    "pairwise_star9": (build_topology("star", 9), PAIRWISE, 0, 5000, 1e-2),
    "chain7_pure_neighbor": (build_topology("chain", 7), UpdateRule("pure_neighbor"), 2, 300,
                             1e-3),
}


def run_small(name, per_tick=False, **kw):
    """The small run name, by the engine or, with per_tick, by its
    reference: the per-tick kernel, or the baseline on the list recorder."""
    g, rule, seed, steps, tol = SMALL_RUNS[name]
    cfg = RunConfig(graph=g, rule=rule, seed=seed, max_iterations=steps, tolerance=tol)
    if rule is not PAIRWISE:
        return (run_agent_per_tick if per_tick else run_agent_sim)(cfg, **kw)
    if per_tick:
        return with_list_recorder(lambda: run_pairwise_baseline(cfg, **kw))
    return run_pairwise_baseline(cfg, **kw)


def with_list_recorder(run):
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(engine, "_Recorder", ListRecorder)
        return run()


def with_chunk_rows(rows, n, run):
    """run() with recorder chunks of the given number of rows, or the
    default chunks when rows is None."""
    with pytest.MonkeyPatch.context() as mp:
        if rows is not None:
            mp.setattr(engine, "_BLOCK_CELLS", rows * n)
        return run()


def with_per_tick_kernel(run):
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(cli, "run_agent_sim", run_agent_per_tick)
        mp.setattr(cli, "run_matrix_sim", run_matrix_per_tick)
        return run()


def assert_same_trace(got, want):
    for field in ("states", "activations", "disagreements"):
        a, b = getattr(got, field), getattr(want, field)
        assert a.dtype == b.dtype and a.shape == b.shape, field
        assert a.tobytes() == b.tobytes(), field
    # the series the recorder hands over is the one a fresh pass computes
    fresh = replace(got, states=got.states).disagreements
    assert fresh.tobytes() == got.disagreements.tobytes()
    assert got.message_counts == want.message_counts
    # repr tells -0.0 from 0.0 and a float payload from an int one
    assert repr(got.messages) == repr(want.messages)
    assert (got.cycle_ticks, got.tolerance) == (want.cycle_ticks, want.tolerance)
    assert got.converged == want.converged


class TestAgainstListRecorder:
    @pytest.mark.parametrize("name", sorted(CLI_RUNS))
    def test_cli_runs(self, name):
        cfgd = CLI_RUNS[name]
        want = with_list_recorder(lambda: cli.execute_run(cfgd))
        for rows in (None, 3):
            got = with_chunk_rows(rows, cfgd["graph.n"], lambda: cli.execute_run(cfgd))
            assert_same_trace(got, want)

    @pytest.mark.parametrize("name", MESSAGE_RUNS)
    def test_cli_runs_with_messages(self, name):
        cfgd = CLI_RUNS[name]
        want = with_list_recorder(lambda: cli.execute_run(cfgd, collect_messages=True))
        assert want.messages
        for rows in (None, 2):
            got = with_chunk_rows(rows, cfgd["graph.n"],
                                  lambda: cli.execute_run(cfgd, collect_messages=True))
            assert_same_trace(got, want)

    @pytest.mark.parametrize("collect", [False, True])
    @pytest.mark.parametrize("name", sorted(SMALL_RUNS))
    def test_chunks_of_a_few_rows_and_of_the_trace(self, name, collect):
        want = run_small(name, per_tick=True, collect_messages=collect)
        assert want.converged
        n, rows = want.graph.node_count, want.iterations
        # chunks of a few rows, which every recorded block spans; chunks of
        # rows rows, which the rows kept fill exactly; and chunks of
        # rows - 1 rows, whose second holds just the last row kept
        for c in sorted({*range(1, 9), rows - 1, rows, rows + 1}):
            got = with_chunk_rows(c, n, lambda: run_small(name, collect_messages=collect))
            assert_same_trace(got, want)

    # star8's one-tick cycles end on their spanning row, so it drops none
    @pytest.mark.parametrize("name", sorted(set(SMALL_RUNS) - {"star8"}))
    def test_converged_runs_drop_recorded_rows(self, name, monkeypatch):
        # the premise of the chunk sweep above: each run stops with rows
        # recorded past its spanning row, which the stop then drops
        recorded = []

        class Spy(engine._Recorder):
            def judge(self):
                recorded.append(self.rows)
                return super().judge()

        monkeypatch.setattr(engine, "_Recorder", Spy)
        tr = run_small(name)
        assert recorded[-1] > tr.iterations


POLL_RULES = ("neighborhood_set", "pure_neighbor", "self_additive")
BACKENDS = {
    "agent": {},
    "matrix": {"run.backend": "matrix"},
    # a random script: some steps wake few nodes or none
    "matrix_random": {"run.backend": "matrix", "duty.p": 0.3, "duty.q": 0.5},
}


def run_or_error(run):
    """run()'s trace, or the arithmetic error it stopped on: a diverging
    self-additive run can overflow inside fsum."""
    try:
        return run()
    except (ArithmeticError, ValueError) as exc:
        return exc


class TestAgainstPerTickKernel:
    @pytest.mark.parametrize("backend", sorted(BACKENDS))
    @pytest.mark.parametrize("rule", POLL_RULES)
    @pytest.mark.parametrize("preset", cli.PRESETS)
    def test_cli_runs(self, preset, rule, backend):
        cfgd = cfgd_of(preset, **{"rule.variant": rule}, **BACKENDS[backend])

        def run():
            return run_or_error(lambda: cli.execute_run(cfgd, collect_messages=True))

        want = with_per_tick_kernel(run)
        got = run()
        if isinstance(want, Exception):
            assert (type(got), str(got)) == (type(want), str(want))
        else:
            assert want.messages
            assert_same_trace(got, want)

    @pytest.mark.parametrize("rule", POLL_RULES)
    def test_scripts_in_slices_of_a_few_ticks(self, rule):
        cfgd = cfgd_of("circular", **{"rule.variant": rule, "run.max_iterations": 40},
                       **BACKENDS["matrix_random"])
        want = with_per_tick_kernel(lambda: cli.execute_run(cfgd, collect_messages=True))
        for rows in range(1, 9):
            got = with_chunk_rows(rows, cfgd["graph.n"],
                                  lambda: cli.execute_run(cfgd, collect_messages=True))
            assert_same_trace(got, want)


class TestChunks:
    def test_chunks_hold_about_block_cells(self):
        g = build_topology("chain", 50)
        rec = engine._Recorder(g, np.zeros(50), 50, 1e-6, False)
        assert rec.chunk_rows == engine._BLOCK_CELLS // 50
        assert rec.states[0].shape == (rec.chunk_rows, 50)

    def test_a_chunk_holds_at_least_one_row(self, monkeypatch):
        monkeypatch.setattr(engine, "_BLOCK_CELLS", 49)
        g = build_topology("chain", 50)
        assert engine._Recorder(g, np.zeros(50), 50, 1e-6, False).chunk_rows == 1

    @pytest.mark.parametrize("cells", [1, 20, 64, 1000])
    def test_pairwise_blocks_keep_the_budget(self, cells, monkeypatch):
        # a block is a cycle of n = 8 exchanges, or as many as the budget holds
        monkeypatch.setattr(engine, "_BLOCK_CELLS", cells)
        heights = []

        class Spy(engine._Recorder):
            def record(self, states, acts):
                heights.append(len(states))
                super().record(states, acts)

        monkeypatch.setattr(engine, "_Recorder", Spy)
        tr = run_small("pairwise_ring8_cut")
        blocks = heights[1:]  # after x0
        assert sum(blocks) >= tr.iterations - 1
        assert max(blocks) == min(8, max(1, cells // 8))
        assert all(h * 8 <= max(cells, 8) for h in blocks)

    def test_trace_keeps_no_chunk(self, monkeypatch):
        # the trace's arrays are copies: no chunk outlives finish
        monkeypatch.setattr(engine, "_BLOCK_CELLS", 6 * 3)
        chunks = []

        class Spy(engine._Recorder):
            def finish(self, counts):
                chunks.extend(weakref.ref(c) for c in self.states + self.acts)
                return super().finish(counts)

        monkeypatch.setattr(engine, "_Recorder", Spy)
        tr = run_small("chain6")
        assert len(chunks) == 2 * -(-tr.iterations // 3)
        assert all(ref() is None for ref in chunks)
        assert all(a.base is None for a in (tr.states, tr.activations))
