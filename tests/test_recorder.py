"""The engine's recorder and kernel against the ones they replaced.

Every runner's trace must be the one tests/list_recorder.py records, bit
for bit: states, activations, disagreements, message counts and message
log, at the default block budget and at blocks of a few rows, where a
converged run stops inside a recorded block, or in a pass of a
multi-pass block, and the trace keeps that block cut to its rows. The
poll-round runners must also give the traces of the per-tick kernel in
tests/tick_kernel.py: on every preset under every poll rule and
backend, and with the scripts compiled, and every block's rows judged,
in slices of a few ticks, which a gather budget of a few rows brings
about; and on small graphs whose cycles the engine runs several at a
time. The pairwise baseline must give the traces of the scalar loop in
tests/pairwise_exchanges.py, and its bounded draws must be numpy's.
"""

import math
import weakref
from argparse import Namespace
from dataclasses import replace

import numpy as np
import pytest

from gossipsim import Graph, RunConfig, UpdateRule, analysis, build_topology, cli, engine
from gossipsim.engine import run_agent_sim, run_pairwise_baseline
from gossipsim.errors import SimulationError
from gossipsim.rules import FOLDS, RuleVariant

import pairwise_exchanges
from list_recorder import ListRecorder, block_disagreements
from pairwise_exchanges import run_pairwise_per_exchange
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


def with_block_rows(rows, n, run):
    """run() with a gather budget of the given number of rows, or of the
    default budget when rows is None: the recorder judges every block that
    many rows at a time, and the scripted and pairwise runners' blocks
    hold at most that many."""
    with pytest.MonkeyPatch.context() as mp:
        if rows is not None:
            mp.setattr(analysis, "_BLOCK_CELLS", rows * n)
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
    # the rows every pass over the trace reads are those rows
    read = np.concatenate([states.copy() for _, states, _ in got.row_blocks()])
    assert read.tobytes() == want.states.tobytes()
    # the series the recorder hands over is the one an independent pass
    # computes
    fresh = block_disagreements(got.states, got.graph)
    assert fresh.tobytes() == got.disagreements.tobytes()
    assert got.message_counts == want.message_counts
    # repr tells -0.0 from 0.0 and a float payload from an int one; no
    # diff of two long logs is shown, which would take minutes to build
    same_log = repr(got.messages) == repr(want.messages)
    assert same_log, "message logs differ"
    assert (got.cycle_ticks, got.tolerance) == (want.cycle_ticks, want.tolerance)
    assert got.converged == want.converged


class TestAgainstListRecorder:
    @pytest.mark.parametrize("name", sorted(CLI_RUNS))
    def test_cli_runs(self, name):
        cfgd = CLI_RUNS[name]
        want = with_list_recorder(lambda: cli.execute_run(cfgd))
        for rows in (None, 3):
            got = with_block_rows(rows, cfgd["graph.n"], lambda: cli.execute_run(cfgd))
            assert_same_trace(got, want)

    @pytest.mark.parametrize("name", MESSAGE_RUNS)
    def test_cli_runs_with_messages(self, name):
        cfgd = CLI_RUNS[name]
        want = with_list_recorder(lambda: cli.execute_run(cfgd, collect_messages=True))
        assert want.messages
        for rows in (None, 2):
            got = with_block_rows(rows, cfgd["graph.n"],
                                  lambda: cli.execute_run(cfgd, collect_messages=True))
            assert_same_trace(got, want)

    @pytest.mark.parametrize("collect", [False, True])
    @pytest.mark.parametrize("name", sorted(SMALL_RUNS))
    def test_chunks_of_a_few_rows_and_of_the_trace(self, name, collect):
        want = run_small(name, per_tick=True, collect_messages=collect)
        assert want.converged
        n, rows = want.graph.node_count, want.iterations
        # blocks of a few rows, cut where the run stops; blocks up to rows
        # rows, which the rows kept can fill exactly; and up to rows - 1
        # rows, the last row kept alone in the block after
        for c in sorted({*range(1, 9), rows - 1, rows, rows + 1}):
            got = with_block_rows(c, n, lambda: run_small(name, collect_messages=collect))
            assert_same_trace(got, want)

    # star8's one-tick cycles end on their spanning row, so it drops none
    @pytest.mark.parametrize("name", sorted(set(SMALL_RUNS) - {"star8"}))
    def test_converged_runs_drop_recorded_rows(self, name, monkeypatch):
        # the premise of the block sweep above: each run stops with rows
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
            got = with_block_rows(rows, cfgd["graph.n"],
                                  lambda: cli.execute_run(cfgd, collect_messages=True))
            assert_same_trace(got, want)


def traced_blocks(monkeypatch):
    """The heights of the blocks the engine's recorder records, x0 first."""
    heights = []

    class Spy(engine._Recorder):
        def record(self, values, src, acts):
            heights.append(len(src))
            super().record(values, src, acts)

    monkeypatch.setattr(engine, "_Recorder", Spy)
    return heights


def pairwise_graph(kind, n):
    if kind == "random_geometric":
        return build_topology(kind, n, radius=0.6, seed=n)
    return build_topology(kind, n)


def pairwise_runs(g, alpha):
    """A converging run of the baseline on g and one cut by its budget.

    The tolerance is the largest disagreement over a window of n rows
    that ends three quarters into a 40 n exchange run, so the converging
    run stops by then, unless the run reaches exact consensus, which any
    tolerance accepts; the cut run's budget ends one row before the row
    the converging run stops on."""
    n = g.node_count
    cfg = RunConfig(graph=g, rule=UpdateRule.parse("pairwise_baseline", alpha), seed=n,
                    max_iterations=40 * n, tolerance=1e-300)
    probe = run_pairwise_per_exchange(cfg)
    converging = cfg
    if not probe.converged:
        series = probe.disagreements[29 * n + 1:30 * n + 1]
        converging = replace(cfg, tolerance=float(np.nextafter(series.max(), np.inf)))
    stop = run_pairwise_per_exchange(converging).iterations - 1
    return converging, replace(converging, max_iterations=stop - 1)


PAIRWISE_GRAPHS = [(kind, n) for kind in ("chain", "star", "circular", "random_geometric",
                                          "complete")
                   for n in (2, 3, 5, 20, 50) if not (kind == "circular" and n < 3)]


class TestAgainstScalarExchanges:
    @pytest.mark.parametrize("alpha", [0.5, 0.3])
    @pytest.mark.parametrize("kind, n", PAIRWISE_GRAPHS)
    def test_converging_and_cut_runs(self, kind, n, alpha):
        converging, cut = pairwise_runs(pairwise_graph(kind, n), alpha)
        for cfg, converged in ((converging, True), (cut, False)):
            want = run_pairwise_per_exchange(cfg, collect_messages=True)
            assert want.converged == converged
            assert_same_trace(run_pairwise_baseline(cfg, collect_messages=True), want)

    @pytest.mark.parametrize("cells", [None, 1, 7, 64])
    @pytest.mark.parametrize("kind, n", [("chain", 3), ("star", 5), ("random_geometric", 20)])
    def test_blocks_of_any_budget(self, kind, n, cells, monkeypatch):
        converging, cut = pairwise_runs(pairwise_graph(kind, n), 0.5)
        want = [run_pairwise_per_exchange(cfg, collect_messages=True)
                for cfg in (converging, cut)]
        if cells is not None:
            monkeypatch.setattr(analysis, "_BLOCK_CELLS", cells)
        heights = traced_blocks(monkeypatch)
        got = run_pairwise_baseline(converging, collect_messages=True)
        assert_same_trace(got, want[0])
        if cells is None:  # the converging run stops inside its last block
            assert sum(heights) > got.iterations
        assert_same_trace(run_pairwise_baseline(cut, collect_messages=True), want[1])

    def test_a_long_run(self):
        cfg = RunConfig(graph=build_topology("chain", 20), rule=PAIRWISE, seed=3,
                        max_iterations=20000, tolerance=1e-300)
        want = run_pairwise_per_exchange(cfg, collect_messages=True)
        assert_same_trace(run_pairwise_baseline(cfg, collect_messages=True), want)


def scalar_words(seed, count):
    """The first count 32-bit words of a fresh default_rng(seed)."""
    return np.random.default_rng(seed).integers(0, 1 << 32, size=count,
                                                dtype=np.uint64).tolist()


class TestBoundedDraw:
    @pytest.mark.parametrize("bounds", [
        [1, 1, 1, 2, 1, 3],
        list(range(1, 60)),
        [3 << 30] * 40,  # a quarter of the words are rejected
        [5, 3 << 30, 1, 1, 2, 3 << 30, 50, (1 << 32) - 1, 7] * 5,
    ], ids=["ones", "small", "rejections", "mixed"])
    def test_draws_equal_scalar_integers(self, bounds):
        for seed in range(4):
            scalar = np.random.default_rng(seed)
            want = [int(scalar.integers(b)) for b in bounds]
            rng = np.random.default_rng(seed)
            # a word for each draw, as the baseline holds them
            words = rng.integers(0, 1 << 32, size=len(bounds), dtype=np.uint64).tolist()
            p, got = 0, []
            for b in bounds:
                v, p = engine._bounded(rng, words, p, b)
                got.append(v)
            assert got == want
            # the words left, and those appended for rejected ones, are
            # the words the scalar draws leave
            left = words[p:] + rng.integers(0, 1 << 32, size=8, dtype=np.uint64).tolist()
            assert left[:8] == scalar.integers(0, 1 << 32, size=8, dtype=np.uint64).tolist()

    def test_rejections_append_words(self):
        rng = np.random.default_rng(0)
        words = rng.integers(0, 1 << 32, size=40, dtype=np.uint64).tolist()
        p = 0
        for _ in range(40):
            _, p = engine._bounded(rng, words, p, 3 << 30)
        # each draw took one word net: one, plus one for each appended
        assert p == len(words) > 40
        assert words == scalar_words(0, len(words))

    def test_a_bound_of_one_uses_no_word(self):
        rng = np.random.default_rng(0)
        state = rng.bit_generator.state
        assert engine._bounded(rng, [], 0, 1) == (0, 0)
        # the numpy behaviour this follows
        assert int(rng.integers(1)) == 0
        assert rng.bit_generator.state == state


class ZeroWords:
    """A stand-in for a run's rng whose every zero_every-th 32-bit word is
    0, which every bound but a power of two rejects; the other words are
    default_rng(seed)'s. Its scalar integers(bound) draws the way numpy's
    Generator does, and its bulk integers(0, 2**32, size, uint64) hands
    out the next words. rejected lists the bound of each scalar draw
    whose word it rejected."""

    def __init__(self, seed, zero_every):
        self.rng, self.zero_every = np.random.default_rng(seed), zero_every
        self.words, self.rejected = 0, []

    def word(self):
        self.words += 1
        if self.zero_every and self.words % self.zero_every == 0:
            return 0
        return int(self.rng.integers(0, 1 << 32, dtype=np.uint64))

    def integers(self, low, high=None, size=None, dtype=None):
        if high is None:  # integers(bound): Lemire's draw
            if low == 1:
                return 0
            while True:
                m = self.word() * low
                if m & 0xFFFFFFFF >= (1 << 32) % low:
                    return m >> 32
                self.rejected.append(low)
        assert (low, high, dtype) == (0, 1 << 32, np.uint64)
        return np.array([self.word() for _ in range(size)], dtype=np.uint64)


class TestRejectedWords:
    def test_the_stand_in_draws_as_numpy(self):
        bounds = [1, 2, 3, 5, 20, 1, 7, 3 << 30] * 20
        scalar, stand_in = np.random.default_rng(5), ZeroWords(5, 0)
        assert ([int(scalar.integers(b)) for b in bounds]
                == [stand_in.integers(b) for b in bounds])
        assert stand_in.rejected

    @staticmethod
    def rejected_run(kind, n, zero_every, monkeypatch):
        """The bounds of the rejected draws of a baseline run whose rng
        zeroes every zero_every-th word, once its trace is checked against
        the per-exchange runner's."""
        cfg = RunConfig(graph=pairwise_graph(kind, n), rule=PAIRWISE, seed=2,
                        max_iterations=40 * n, tolerance=1e-300)
        x0, _ = engine.initial_states(cfg)
        rngs = []

        def initial_states(cfg):
            rngs.append(ZeroWords(cfg.seed, zero_every))
            return x0.copy(), rngs[-1]

        monkeypatch.setattr(pairwise_exchanges, "initial_states", initial_states)
        monkeypatch.setattr(engine, "initial_states", initial_states)
        want = run_pairwise_per_exchange(cfg, collect_messages=True)
        assert_same_trace(run_pairwise_baseline(cfg, collect_messages=True), want)
        return rngs[0].rejected

    @pytest.mark.parametrize("kind, n", [("circular", 5), ("complete", 6),
                                         ("random_geometric", 20)])
    def test_runs_whose_draws_are_rejected(self, kind, n, monkeypatch):
        # real runs reject a word about once in 2**32 / n draws; here one
        # word in seven is rejected, inside blocks and across them. Each
        # rejection shifts the stream by one word, so while every exchange
        # takes two words, every seventh word stays on a node draw.
        assert self.rejected_run(kind, n, 7, monkeypatch)

    # an even zero_every keeps the zero words on partner draws, bounded by
    # n - 1 in the complete graph; in the star, whose leaves take no
    # partner word, they fall on the hub's partner draws, bounded by n - 1,
    # as well as on node draws
    @pytest.mark.parametrize("kind, n, zero_every", [("complete", 6, 8), ("star", 6, 7)])
    def test_runs_whose_partner_draws_are_rejected(self, kind, n, zero_every, monkeypatch):
        assert n - 1 in self.rejected_run(kind, n, zero_every, monkeypatch)


#: small cycles the engine compiles as span copies, run in blocks of 1,
#: 2, 4, ... span cycles: (graph, rule, tolerance, max_iterations,
#: _SPAN_CELLS or None for the default); a _SPAN_CELLS of 200 gives the
#: one-layer star spans of ten cycles
SPAN_RUNS = {
    # 11 layers, spans of 31 cycles; stops in cycle 70
    "chain12": (build_topology("chain", 12), UpdateRule(), 1e-6, 2000, None),
    # cut after 66 cycles: blocks of 1 to 16 cycles, 31, then 4
    "chain12_cut": (build_topology("chain", 12), UpdateRule(), 1e-6, 66, None),
    # 10 layers, spans of 20 cycles; stops in cycle 88
    "circle20": (build_topology("circular", 20), UpdateRule("pure_neighbor"), 1e-3, 2000,
                 None),
    # stops in cycle 20, inside the block of cycles 16 to 31, short of a span
    "circle20_early": (build_topology("circular", 20), UpdateRule(), 1e-2, 2000, None),
    # cut after 50 cycles, in a block of 19
    "circle20_cut": (build_topology("circular", 20), UpdateRule("pure_neighbor"), 1e-3, 50,
                     None),
    # one layer, spans of ten cycles; stops in cycle 54
    "star20": (build_topology("star", 20), UpdateRule("self_additive"), 1e-6, 2000, 200),
    # never converges: spans of 204 cycles, cut after 445, in a block of 190
    "star20_cut": (build_topology("star", 20), UpdateRule("pure_neighbor"), 1e-6, 445, None),
}
#: the span runs whose stop cycle a patched fold fails in or after
STOP_RUNS = ["chain12", "circle20", "circle20_early", "star20"]


def span_run(name, monkeypatch):
    """The config of the span run name, with its _SPAN_CELLS set."""
    g, rule, tol, cycles, cells = SPAN_RUNS[name]
    if cells is not None:
        monkeypatch.setattr(engine, "_SPAN_CELLS", cells)
    return RunConfig(graph=g, rule=rule, seed=1, max_iterations=cycles, tolerance=tol)


class TestHeights:
    @pytest.mark.parametrize("total", [1, 2, 3, 10, 66, 445, 1000])
    @pytest.mark.parametrize("first, most", [(1, 1), (1, 31), (1, 204), (3, 2), (7, 7),
                                             (20, 13107), (50, 5242)])
    def test_doubling_up_to_most(self, first, most, total):
        heights = list(engine._heights(first, most, total))
        assert sum(heights) == total
        assert heights[0] == min(first, most, total)
        assert all(0 < h <= most for h in heights)
        # each height is twice the one before, up to most, the last cut
        for a, b in zip(heights, heights[1:-1]):
            assert b == min(2 * a, most)
        if len(heights) > 1:
            assert heights[-1] <= min(2 * heights[-2], most)


class TestSpans:
    @pytest.mark.parametrize("name", sorted(SPAN_RUNS))
    def test_against_the_per_tick_kernel(self, name, monkeypatch):
        cfg = span_run(name, monkeypatch)
        want = run_agent_per_tick(cfg, collect_messages=True)
        assert want.converged == (not name.endswith("_cut"))
        heights = traced_blocks(monkeypatch)
        got = run_agent_sim(cfg, collect_messages=True)
        assert_same_trace(got, want)
        # after x0, blocks of c cycles, c = 1, 2, 4, ... up to span, the
        # last cut by the budget
        ticks = got.cycle_ticks
        span = min(engine._SPAN_CELLS, analysis._BLOCK_CELLS) // (ticks * got.graph.node_count)
        assert span > 1 and heights[0] == 1
        assert all(h % ticks == 0 for h in heights[1:])
        cycles = [h // ticks for h in heights[1:]]
        assert cycles[:-1] == [min(2 ** k, span) for k in range(len(cycles) - 1)]
        assert 0 < cycles[-1] <= min(2 ** (len(cycles) - 1), span)
        if got.converged:  # stopped inside its last block
            assert sum(heights) - heights[-1] < got.iterations < sum(heights)
        else:
            assert sum(cycles) == cfg.max_iterations
            assert sum(heights) == got.iterations

    @pytest.mark.parametrize("exc", [OverflowError, ValueError, SimulationError])
    @pytest.mark.parametrize("name", STOP_RUNS)
    def test_a_fold_failing_after_the_stop(self, name, exc, monkeypatch):
        # the cycles after the stop would never have run, so a fold that
        # fails in one of them changes nothing
        cfg = span_run(name, monkeypatch)
        want = run_agent_sim(cfg, collect_messages=True)
        failed = fail_fold(monkeypatch, cfg.rule, stop_cycle(want) * folds_per_cycle(want) + 1,
                           exc)
        assert_same_trace(run_agent_sim(cfg, collect_messages=True), want)
        assert failed

    @pytest.mark.parametrize("last", [False, True], ids=["first", "last"])
    @pytest.mark.parametrize("name", STOP_RUNS)
    def test_a_fold_failing_in_the_stop_cycle(self, name, last, monkeypatch):
        # the run would have failed in the cycle it stops in, before
        # judging it
        cfg = span_run(name, monkeypatch)
        want = run_agent_sim(cfg)
        c, folds = stop_cycle(want), folds_per_cycle(want)
        failed = fail_fold(monkeypatch, cfg.rule, c * folds if last else (c - 1) * folds + 1,
                           OverflowError)
        with pytest.raises(OverflowError, match="patched"):
            run_agent_sim(cfg)
        assert failed

    def test_a_fold_failing_in_a_later_part_of_the_stop_cycle(self, monkeypatch):
        # one cycle a block, its rows gathered three at a time: as when
        # run tick by tick, they are judged once the cycle is complete, so
        # a fold failing after the stop row, in a later chunk of its
        # cycle, fails the run
        cfg = span_run("chain12", monkeypatch)
        monkeypatch.setattr(engine, "_SPAN_CELLS", 200)
        monkeypatch.setattr(analysis, "_BLOCK_CELLS", 3 * cfg.graph.node_count)
        want = run_agent_sim(cfg)
        assert engine._beacon_cycle(cfg.graph, cfg.rule).passes == 1
        assert (want.iterations - 2) % want.cycle_ticks < 9  # before the last chunk
        failed = fail_fold(monkeypatch, cfg.rule, stop_cycle(want) * folds_per_cycle(want),
                           OverflowError)
        with pytest.raises(OverflowError, match="patched"):
            run_agent_sim(cfg)
        assert failed

    @pytest.mark.parametrize("name", ["chain12", "circle20", "star20"])
    def test_a_fold_failing_in_a_later_pass_of_a_block(self, name, monkeypatch):
        # the stop cycle runs as pass p > 0 of a block of passes: a fold
        # failing in pass p + 1 leaves the passes before it recorded and
        # judged, and the trace as it was; one failing in pass p fails
        # the run
        cfg = span_run(name, monkeypatch)
        want = run_agent_sim(cfg, collect_messages=True)
        c, folds, ticks = stop_cycle(want), folds_per_cycle(want), want.cycle_ticks
        span = min(engine._SPAN_CELLS, analysis._BLOCK_CELLS) // (ticks * cfg.graph.node_count)
        first = 1  # the first cycle of the stop cycle's block
        for height in engine._heights(1, span, cfg.max_iterations):
            if c < first + height:
                break
            first += height
        assert 0 < c - first < height - 1
        heights = traced_blocks(monkeypatch)
        failed = fail_fold(monkeypatch, cfg.rule, c * folds + 1, OverflowError)
        assert_same_trace(run_agent_sim(cfg, collect_messages=True), want)
        assert failed and heights[-1] == (c + 1 - first) * ticks
        failed = fail_fold(monkeypatch, cfg.rule, (c - 1) * folds + 1, OverflowError)
        with pytest.raises(OverflowError, match="patched"):
            run_agent_sim(cfg)
        assert failed

    @pytest.mark.parametrize("name", STOP_RUNS)
    def test_a_stop_inside_a_multi_pass_block_against_the_list_recorder(self, name,
                                                                         monkeypatch):
        # the trace keeps the stop's block cut to the rows kept: its
        # values and its maps cut inside a pass of several
        cfg = span_run(name, monkeypatch)
        want = with_list_recorder(lambda: run_agent_sim(cfg, collect_messages=True))
        heights = traced_blocks(monkeypatch)
        got = run_agent_sim(cfg, collect_messages=True)
        assert_same_trace(got, want)
        assert heights[-1] > got.cycle_ticks
        assert sum(heights) - heights[-1] < got.iterations < sum(heights)
        assert len(got.blocks[-1][1]) == got.iterations - (sum(heights) - heights[-1])

    @pytest.mark.parametrize("name", ["chain12", "circle20", "star20"])
    def test_a_fold_failing_in_a_later_pass_against_the_list_recorder(self, name,
                                                                       monkeypatch):
        # the complete passes before the failing fold are recorded as the
        # block's values and the first rows of its maps
        cfg = span_run(name, monkeypatch)
        clean = run_agent_sim(cfg)
        call = stop_cycle(clean) * folds_per_cycle(clean) + 1
        with pytest.MonkeyPatch.context() as mp:
            failed = fail_fold(mp, cfg.rule, call, OverflowError)
            want = with_list_recorder(lambda: run_agent_sim(cfg, collect_messages=True))
            assert failed
        for rows in (None, 2):  # and with the block judged two rows at a time
            with pytest.MonkeyPatch.context() as mp:
                failed = fail_fold(mp, cfg.rule, call, OverflowError)
                got = with_block_rows(rows, cfg.graph.node_count,
                                      lambda: run_agent_sim(cfg, collect_messages=True))
                assert failed
            assert_same_trace(got, want)
            cycle = engine._beacon_cycle(cfg.graph, cfg.rule)
            values, src, _ = got.blocks[-1]
            assert len(values) % cycle.width == 0 and len(values) // cycle.width > 1
            assert len(src) <= len(values) // cycle.width * cycle.height

    def test_the_runs_of_a_later_pass_cover_every_poll_rule(self):
        names = ["chain12", "circle20", "star20"]
        assert {SPAN_RUNS[name][1].variant for name in names} == set(FOLDS)

    @pytest.mark.parametrize("collect", [False, True])
    @pytest.mark.parametrize("variant", sorted(FOLDS))
    def test_a_node_without_in_neighbors(self, variant, collect, monkeypatch):
        # node 2 hears nobody and is woken in layer 2, after nodes 0 and
        # 1: the run fails at its fold, the third, as the per-tick kernel
        # does
        g = Graph(node_count=4, anchor_id=0, directed=True,
                  arcs=([0, 1, 1, 2, 3], [1, 0, 3, 1, 1]))
        cfg = RunConfig(graph=g, rule=UpdateRule(variant), max_iterations=5)
        errors = []
        for run in (run_agent_per_tick, run_agent_sim):
            calls = count_folds(monkeypatch, variant)
            with pytest.raises(SimulationError) as exc:
                run(cfg, collect_messages=collect)
            errors.append((str(exc.value), len(calls)))
        assert errors == [("node 2 has nobody to poll", 2)] * 2

    def test_pure_neighbor_reads_of_one_in_neighbor(self, monkeypatch):
        # on the directed ring every node polls one in-neighbor: each
        # reads tuple is (polled, own)
        g = build_topology("circular_directed", 9)
        cfg = RunConfig(graph=g, rule=UpdateRule("pure_neighbor"), seed=2,
                        max_iterations=300, tolerance=1e-3)
        want = run_agent_per_tick(cfg, collect_messages=True)
        calls = count_folds(monkeypatch, RuleVariant.PURE_NEIGHBOR)
        assert_same_trace(run_agent_sim(cfg, collect_messages=True), want)
        assert calls and {len(reads) for reads in calls} == {2}


class TestCompiledOnce:
    """A graph keeps the cycles compiled for it, one per rule and span
    budget; a run on it must give the trace of a run on a graph that has
    compiled nothing, whatever ran on it before."""

    @staticmethod
    def check(g, rule):
        cfg = RunConfig(graph=g, rule=rule, seed=3, max_iterations=300, tolerance=1e-3)
        fresh = Graph(node_count=g.node_count, anchor_id=g.anchor_id, arcs=g.arcs,
                      directed=g.directed)
        want = run_agent_sim(replace(cfg, graph=fresh), collect_messages=True)
        assert_same_trace(run_agent_sim(cfg, collect_messages=True), want)

    @pytest.mark.parametrize("cells", [None, 1])
    def test_passes_are_the_first_pass_shifted(self, cells, monkeypatch):
        # compiled in place: pass p's map is the first's plus p * width and
        # its flags are the first's; a map of more cells than the gather
        # budget is int32, a smaller one intp, and both run the same trace
        if cells is not None:
            monkeypatch.setattr(analysis, "_BLOCK_CELLS", cells)
        monkeypatch.setattr(engine, "_SPAN_CELLS", 12 * 11 * 4)
        g = build_topology("chain", 12)
        g = Graph(node_count=12, anchor_id=0, arcs=g.arcs)  # nothing compiled
        cycle = engine._beacon_cycle(g, UpdateRule())
        h = cycle.height
        assert (cycle.passes, h) == (4, 11) and cycle.src.shape == (44, 12)
        assert cycle.src.dtype == (np.intp if cells is None else np.int32)
        first = cycle.src[:h].astype(np.intp)
        assert first.min() >= 0 and first.max() < cycle.width
        for p in range(4):
            assert np.array_equal(cycle.src[p * h:(p + 1) * h], first + p * cycle.width)
            assert np.array_equal(cycle.acts[p * h:(p + 1) * h], cycle.acts[:h])
        cfg = RunConfig(graph=g, seed=3, max_iterations=30, tolerance=1e-3)
        assert_same_trace(run_agent_sim(cfg, collect_messages=True),
                          run_agent_per_tick(cfg, collect_messages=True))

    @pytest.mark.parametrize("kind", ["chain", "circular_directed"])
    def test_runs_after_runs(self, kind, monkeypatch):
        g = build_topology(kind, 12)
        rules = [UpdateRule(v) for v in FOLDS]
        for rule in rules * 2:  # the second time from the cycles compiled
            self.check(g, rule)
        compiled = [engine._beacon_cycle(g, rule) for rule in rules]
        assert len({id(cycle) for cycle in compiled}) == len(rules)
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(engine, "_SPAN_CELLS", 200)  # blocks of fewer passes
            for rule in rules:
                self.check(g, rule)
            spans = [engine._beacon_cycle(g, rule) for rule in rules]
            assert all(s.passes < c.passes for s, c in zip(spans, compiled))
            mp.setattr(analysis, "_BLOCK_CELLS", 3 * g.node_count)  # gathers of three rows
            for rule, cycle in zip(rules, spans):
                self.check(g, rule)
                # the gather budget is no compile input
                assert engine._beacon_cycle(g, rule) is cycle
        # every compile input is in the key: the first cycles are kept
        assert all(engine._beacon_cycle(g, rule) is cycle for rule, cycle in zip(rules, compiled))
        for rule in rules:
            cfg = RunConfig(graph=g, rule=rule, seed=3, max_iterations=300)
            with pytest.MonkeyPatch.context() as mp:
                failed = fail_fold(mp, rule, 2 * len(g.arcs[0]), OverflowError)
                with pytest.raises(OverflowError, match="patched"):
                    run_agent_sim(cfg, collect_messages=True)
                assert failed
            self.check(g, rule)


def stop_cycle(trace):
    """The beacon cycle of a converged trace's last row."""
    return -(-(trace.iterations - 1) // trace.cycle_ticks)


def folds_per_cycle(trace):
    return int(trace.activations[1:trace.cycle_ticks + 1].sum())


def fail_fold(monkeypatch, rule, call, exc):
    """Make the kernel's fold of rule raise exc on its call-th call from
    now on, and only then; returns a list that holds True once it has."""
    fold, calls, failed = FOLDS[rule.variant], [0], []

    def patched(reads):
        calls[0] += 1
        if calls[0] == call:
            failed.append(True)
            raise exc("patched")
        return fold(reads)

    monkeypatch.setitem(FOLDS, rule.variant, patched)
    return failed


def count_folds(monkeypatch, variant):
    """Record every reads tuple the fold of variant is called on from
    now on; returns the list of them."""
    fold, calls = FOLDS[variant], []

    def counted(reads):
        calls.append(reads)
        return fold(reads)

    monkeypatch.setitem(FOLDS, variant, counted)
    return calls


class TestChunks:
    """The chunks a trace's passes read its rows in, Trace.row_blocks,
    and the blocks the trace keeps."""

    @staticmethod
    def chunks(tr):
        """(k, states, acts) of each chunk row_blocks yields, copied."""
        return [(k, s.copy(), a.copy()) for k, s, a in tr.row_blocks()]

    def test_chunks_hold_about_block_cells(self):
        # chain-50 blocks of one cycle each, read in chunks of
        # _BLOCK_CELLS // 50 rows across the block boundaries
        g = build_topology("chain", 50)
        tr = run_agent_sim(RunConfig(graph=g, seed=1, max_iterations=300))
        height = analysis._BLOCK_CELLS // 50
        assert len(tr.blocks) > 2 and tr.iterations > 2 * height
        chunks = self.chunks(tr)
        assert [k for k, _, _ in chunks] == list(range(0, tr.iterations, height))
        assert all(len(s) == height for _, s, _ in chunks[:-1])
        assert np.concatenate([s for _, s, _ in chunks]).tobytes() == tr.states.tobytes()
        assert (np.concatenate([a for _, _, a in chunks]).tobytes()
                == tr.activations.tobytes())
        # the first and last rows, read from the first and last blocks
        states = tr.states
        assert tr.final_state.tobytes() == states[-1].tobytes()
        assert tr.x_avg == math.fsum(states[0]) / 50

    def test_only_a_chunk_across_blocks_copies_its_flags(self, monkeypatch):
        # a chunk whose rows all come from one block hands over a view of
        # that block's flags; a chunk across blocks, a copy. Chunks of 10
        # rows over blocks of one 49-tick cycle each
        g = build_topology("chain", 50)
        tr = run_agent_sim(RunConfig(graph=g, seed=1, max_iterations=30))
        monkeypatch.setattr(analysis, "_BLOCK_CELLS", 10 * 50)
        ends = np.cumsum([len(src) for _, src, _ in tr.blocks])
        activations, seen = tr.activations, set()
        for k, states, acts in tr.row_blocks():
            b = int(np.searchsorted(ends, k, "right"))  # the block of row k
            inside = k + len(states) <= ends[b]
            assert np.shares_memory(acts, tr.blocks[b][2]) == inside
            assert acts.tobytes() == activations[k:k + len(states)].tobytes()
            seen.add(inside)
        assert seen == {True, False}

    def test_a_chunk_holds_at_least_one_row(self, monkeypatch):
        monkeypatch.setattr(analysis, "_BLOCK_CELLS", 49)
        g = build_topology("chain", 50)
        tr = run_agent_sim(RunConfig(graph=g, seed=1, max_iterations=3))
        chunks = self.chunks(tr)
        assert [k for k, _, _ in chunks] == list(range(tr.iterations))
        assert np.concatenate([s for _, s, _ in chunks]).tobytes() == tr.states.tobytes()

    @pytest.mark.parametrize("cells", [1, 20, 64, 1000])
    def test_pairwise_blocks_keep_the_budget(self, cells, monkeypatch):
        # blocks start at a cycle of n = 8 exchanges and double, each at
        # most as many as the budget holds; the last is cut by the run's
        monkeypatch.setattr(analysis, "_BLOCK_CELLS", cells)
        heights = traced_blocks(monkeypatch)
        tr = run_small("pairwise_ring8_cut")
        blocks = heights[1:]  # after x0
        assert sum(blocks) >= tr.iterations - 1
        most = max(1, cells // 8)
        want = [min(min(8, most) << k, most) for k in range(len(blocks))]
        assert blocks[:-1] == want[:-1]
        assert blocks[-1] <= want[-1]
        assert all(h * 8 <= max(cells, 8) for h in blocks)

    def test_trace_keeps_no_chunk(self, monkeypatch):
        # the recorder gathers each block's rows to judge them and keeps
        # none of them: an agent trace keeps its values and views of the
        # compiled cycle's maps, no chunk outlives its turn, and the
        # trace's passes read the rows again from the blocks
        gathered = []

        def spy(states, graph):
            gathered.append(weakref.ref(states))
            return analysis.disagreement_rows(states, graph)

        monkeypatch.setattr(engine, "disagreement_rows", spy)
        monkeypatch.setattr(engine, "_SPAN_CELLS", 6 * 5 * 4)  # blocks of up to 4 cycles
        tr = run_small("chain6")
        assert len(gathered) == len(tr.blocks) > 3
        assert all(ref() is None for ref in gathered)
        cycle = engine._beacon_cycle(tr.graph, UpdateRule())
        assert cycle.passes == 4
        # each block holds its passes' values; the last is cut to the
        # rows kept, short of its passes' rows
        passes = [len(values) // cycle.width for values, _, _ in tr.blocks[1:]]
        assert passes[:3] == [1, 2, 4]
        for p, (values, src, acts) in zip(passes, tr.blocks[1:]):
            assert len(values) == p * cycle.width
            assert np.shares_memory(src, cycle.src) and np.shares_memory(acts, cycle.acts)
        assert [len(src) for _, src, _ in tr.blocks[1:-1]] == [p * cycle.height
                                                             for p in passes[:-1]]
        assert len(tr.blocks[-1][1]) < passes[-1] * cycle.height
        assert tr.iterations == sum(len(src) for _, src, _ in tr.blocks)
        chunks = [weakref.ref(s) for _, s, _ in tr.row_blocks()]
        assert all(ref() is None for ref in chunks)

    @pytest.mark.parametrize("rows", [1, 3])
    @pytest.mark.parametrize("name", ["chain12", "circle20"])
    def test_a_cycle_above_the_budget_is_judged_in_chunks(self, name, rows, monkeypatch):
        # a gather budget of fewer rows than a cycle has ticks: the cycle
        # is still one schedule, its blocks of passes are kept whole, n +
        # folds values a pass, and only the recorder's gathers are cut
        cfg = span_run(name, monkeypatch)
        want = run_agent_per_tick(cfg, collect_messages=True)
        n = cfg.graph.node_count
        assert want.cycle_ticks > rows
        gathered = []

        def spy(states, graph):
            gathered.append(len(states))
            return analysis.disagreement_rows(states, graph)

        monkeypatch.setattr(engine, "disagreement_rows", spy)
        monkeypatch.setattr(analysis, "_BLOCK_CELLS", rows * n)
        heights = traced_blocks(monkeypatch)
        got = run_agent_sim(cfg, collect_messages=True)
        assert_same_trace(got, want)
        assert max(gathered) == rows and sum(gathered) == sum(heights)
        cycle = engine._beacon_cycle(cfg.graph, cfg.rule)
        assert cycle.passes > 1 and cycle.height * n > analysis._BLOCK_CELLS
        # each block kept holds the values of the passes it ran, the last
        # cut to the rows kept
        for h, (values, src, _) in zip(heights[1:], got.blocks[1:]):
            assert len(values) == h // cycle.height * cycle.width
            assert len(src) <= h
