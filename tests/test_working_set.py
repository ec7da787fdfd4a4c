"""Working set of each stage of a wide run and of a long, narrow one.

A random geometric run at n = 10^4 (radius 0.022, three beacon cycles)
goes through every stage the CLI runs, and each stage's tracemalloc peak
above what it keeps must stay under a bound: the value measured when the
bounds were set, plus about a quarter and half a MiB. A stage that
starts to hold a second copy of a map, a whole trace's rows or a list of
every arc regrows its transient past its bound, however much memory the
machine has. The chain preset (50 nodes, about 47k rows) goes through
the stages after its run the same way: there an array or a text of the
whole series outgrows its bound (metrics.csv as one string takes 2.4
MiB, the window rule's five int64 arrays over the series 1.2 MiB).

Measured (numpy 2.4, Python 3.11) in MiB: at n = 10^4, build 3.8,
compile 0.5, judge 1.2, drifts 2.0, trace.csv 3.6, metrics.csv 0.02; on
the chain preset, drifts 1.68, trace.csv 0.96, metrics.csv 0.25,
summarize 0.14.
"""

import tracemalloc

import pytest

from gossipsim import RunConfig, analysis, build_topology, cli, engine
from gossipsim.rules import UpdateRule

#: MiB above its kept state that each stage may peak at
BOUNDS_MIB = {"build": 5.25, "compile": 1.2, "judge": 2.3, "drifts": 2.9,
              "trace_csv": 5.0, "metrics_csv": 0.5}
CHAIN_BOUNDS_MIB = {"drifts": 2.6, "trace_csv": 1.7, "metrics_csv": 0.8, "summarize": 0.7}


class _Sink:
    """A text file that keeps nothing."""

    def write(self, text):
        return len(text)


def _write_metrics(trace):
    """metrics.csv as the CLI writes it, to a sink."""
    sink = _Sink()
    for text in analysis.metrics_csv_blocks(trace):
        sink.write(text)


def _transient(peaks, name, fn, *args):
    """fn(*args), recording in peaks[name] the most its tracemalloc peak
    rose above both the memory traced before it and after it."""
    start = tracemalloc.get_traced_memory()[0]
    tracemalloc.reset_peak()
    out = fn(*args)
    now, peak = tracemalloc.get_traced_memory()
    peaks[name] = max(peaks.get(name, 0), peak - max(start, now))
    return out


@pytest.fixture(scope="module")
def peaks():
    """Each stage's transient in bytes, the judge's the most over its calls."""
    out = {}
    record = engine._Recorder.record

    def judged(rec, *args):
        return _transient(out, "judge", record, rec, *args)

    tracemalloc.start()
    try:
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(engine._Recorder, "record", judged)
            g = _transient(out, "build", lambda: build_topology(
                "random_geometric", 10_000, radius=0.022, seed=0))
            _transient(out, "compile", engine._beacon_cycle, g, UpdateRule())
            trace = engine.run_agent_sim(RunConfig(graph=g, max_iterations=3))
        assert trace.iterations > 3 * 50 and not trace.converged
        _transient(out, "drifts", lambda: trace.drifts)
        _transient(out, "trace_csv", analysis.write_trace_csv, trace, _Sink())
        _transient(out, "metrics_csv", _write_metrics, trace)
    finally:
        tracemalloc.stop()
    return out


@pytest.mark.parametrize("stage", sorted(BOUNDS_MIB))
def test_stage_stays_within_its_bound(peaks, stage):
    assert peaks[stage] / 2 ** 20 <= BOUNDS_MIB[stage]


@pytest.fixture(scope="module")
def chain_peaks():
    """The transient of each stage after the chain preset's run, in bytes,
    in the CLI's order, the drifts taken apart before metrics.csv."""
    out = {}
    cfgd = cli.resolve_config(cli.build_parser().parse_args(["run", "--preset", "chain"]))
    trace = cli.execute_run(cfgd)
    tracemalloc.start()
    try:
        _transient(out, "trace_csv", analysis.write_trace_csv, trace, _Sink())
        _transient(out, "drifts", lambda: trace.drifts)
        _transient(out, "metrics_csv", _write_metrics, trace)
        _transient(out, "summarize", cli.summarize, trace)
    finally:
        tracemalloc.stop()
    assert trace.iterations > 40_000 and trace.converged
    return out


@pytest.mark.parametrize("stage", sorted(CHAIN_BOUNDS_MIB))
def test_chain_stage_stays_within_its_bound(chain_peaks, stage):
    assert chain_peaks[stage] / 2 ** 20 <= CHAIN_BOUNDS_MIB[stage]
