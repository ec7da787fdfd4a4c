"""Working set of each stage of a wide run.

A random geometric run at n = 10^4 (radius 0.022, three beacon cycles)
goes through every stage the CLI runs, and each stage's tracemalloc peak
above what it keeps must stay under a bound: the value measured when the
bounds were set, plus about a quarter and half a MiB. A stage that
starts to hold a second copy of a map, a whole trace's rows or a list of
every arc regrows its transient past its bound, however much memory the
machine has.

Measured (numpy 2.4, Python 3.11) in MiB: build 3.8, compile 0.5, judge
1.5, drifts 1.9, trace.csv 3.6, metrics.csv 0.02.
"""

import tracemalloc

import pytest

from gossipsim import RunConfig, analysis, build_topology, engine
from gossipsim.rules import UpdateRule

#: MiB above its kept state that each stage may peak at
BOUNDS_MIB = {"build": 5.25, "compile": 1.2, "judge": 2.3, "drifts": 2.9,
              "trace_csv": 5.0, "metrics_csv": 0.5}


class _Sink:
    """A text file that keeps nothing."""

    def write(self, text):
        return len(text)


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
        _transient(out, "metrics_csv", analysis.metrics_csv_text, trace)
    finally:
        tracemalloc.stop()
    return out


@pytest.mark.parametrize("stage", sorted(BOUNDS_MIB))
def test_stage_stays_within_its_bound(peaks, stage):
    assert peaks[stage] / 2 ** 20 <= BOUNDS_MIB[stage]
