"""One traced pass of a workload: the real gossipsim CLI in a fresh
interpreter, with spans around the calls it makes into each module.

Before calling cli.main, the pass replaces the functions the CLI and the
engine call by module-global name (build_topology, assign_layers, the
engine runners, summarize, the CSV text builders, _write_text, the
spectral functions, the sweep worker) with wrappers that record a span:
name, start, end, parent span and workload id, plus the counts seen at
that boundary. The CLI then runs its own path in its own order. Spans
stay in memory and go to the --spans file when the pass ends. Run the
sweep with --jobs 1, so that its tasks run serially in this process.

With --setup-only the pass stops when set-up ends: at the return of the
engine's first assign_layers call, or at the first call into the engine
or analysis that comes before one. Run as a fresh process, its wall
time is the workload's set-up time.

    PYTHONPATH=src python3 perfbench/traced.py --workload chain-50 \\
        --spans spans.json -- run --preset chain --run.seed 0 --out OUT

The pass exits with the CLI's exit code, or 0 after --setup-only.
"""

from __future__ import annotations

import time

T_START = time.perf_counter()

import argparse  # noqa: E402
import functools  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import sys  # noqa: E402
from contextlib import contextmanager  # noqa: E402

#: disagreement_of calls timed on the pass's graph: at least the first, at
#: most the second, and no more once the time below has been spent
PROBE_MIN_CALLS, PROBE_MAX_CALLS, PROBE_SECONDS = 3, 200, 0.05


class SetupDone(BaseException):
    """Raised through the CLI when a --setup-only pass reaches its end;
    a BaseException, so that no handler in the CLI catches it."""


class Tracer:
    def __init__(self, workload: str, counting: bool = True):
        self.workload = workload
        self.counting = counting
        self.spans: list[dict] = []
        self._stack: list[int] = []

    @contextmanager
    def span(self, name: str, start: float | None = None):
        rec = {"id": len(self.spans), "name": name,
               "parent": self._stack[-1] if self._stack else None,
               "workload": self.workload,
               "start": time.perf_counter() if start is None else start,
               "end": None, "counts": {}}
        self.spans.append(rec)
        self._stack.append(rec["id"])
        try:
            yield rec["counts"]
        finally:
            rec["end"] = time.perf_counter()
            self._stack.pop()

    def wrap(self, module, attr: str, name: str, count=None, before=None, after=None) -> None:
        """Replace module.attr by a wrapper that records a span around each
        call. count(counts, result) fills the span's counts after it has
        closed, so that counting is not timed, and only if counting is on;
        before(args) and after() run before and after the span."""
        fn = getattr(module, attr)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if before is not None:
                before(args)
            with self.span(name) as counts:
                result = fn(*args, **kwargs)
            if count is not None and self.counting:
                count(counts, result)
            if after is not None:
                after()
            return result

        setattr(module, attr, traced)


def instrument(tr: Tracer, setup_only: bool) -> dict:
    """Wrap the functions the CLI path calls; returns what the wrappers
    saw last, for the disagreement_of probe."""
    from gossipsim import analysis, cli, engine

    seen: dict = {}

    def stop(*_args) -> None:
        if setup_only:
            raise SetupDone

    def topology(c: dict, g) -> None:
        seen["graph"] = g
        arcs = int(g.adjacency.sum())
        c["edges"] = arcs if g.directed else arcs // 2

    def layers(c: dict, lay) -> None:
        c["layers"] = lay.layer_count

    def simulated(c: dict, trace) -> None:
        seen["state"] = (trace.graph, trace.final_state)
        c["messages"] = trace.total_messages()
        c["node_updates"] = int(trace.activations.sum())
        c["trace_rows"] = trace.iterations
        c["trace_state_bytes"] = trace.states.nbytes + trace.activations.nbytes

    def text(c: dict, s: str) -> None:
        c["bytes"] = len(s)

    tr.wrap(cli, "resolve_config", "cli.resolve_config")
    tr.wrap(cli, "build_topology", "graph.build_topology", topology)
    # the engine's own calls: set-up ends when the first one returns
    tr.wrap(engine, "assign_layers", "graph.assign_layers", layers, after=stop)
    tr.wrap(cli, "run_agent_sim", "engine.run_agent_sim", simulated)
    tr.wrap(cli, "run_pairwise_baseline", "engine.run_pairwise_baseline", simulated, before=stop)
    tr.wrap(cli, "summarize", "cli.summarize")
    tr.wrap(cli, "_write_text", "cli.write_outputs")
    tr.wrap(cli, "_sweep_worker", "cli.sweep_task")
    tr.wrap(analysis, "trace_csv_text", "analysis.trace_csv_text", text)
    tr.wrap(analysis, "metrics_csv_text", "analysis.metrics_csv_text", text)
    tr.wrap(analysis, "expected_weight_matrix", "analysis.expected_weight_matrix", before=stop)
    tr.wrap(analysis, "check_consensus_conditions", "analysis.check_consensus_conditions")
    return seen


def probe_disagreement(tr: Tracer, seen: dict) -> None:
    """Per-call cost of analysis.disagreement_of on the pass's last graph:
    the engine's recorder pays it once per trace row."""
    import numpy as np
    from gossipsim.analysis import disagreement_of
    g = seen.get("graph")
    if g is None:
        return
    state_graph, x = seen.get("state", (None, None))
    if state_graph is not g:  # spectra: no run, so states drawn as a run draws them
        x = np.random.default_rng(0).uniform(0.0, 100.0, g.node_count)
    with tr.span("analysis.disagreement_of") as c:
        t0 = time.perf_counter()
        calls = 0
        while calls < PROBE_MIN_CALLS or (
                calls < PROBE_MAX_CALLS and time.perf_counter() - t0 < PROBE_SECONDS):
            disagreement_of(x, g)
            calls += 1
        c["calls"] = calls


def environment() -> dict:
    import platform

    import numpy as np
    blas = np.__config__.CONFIG.get("Build Dependencies", {}).get("blas", {})
    return {"python": platform.python_version(), "numpy": np.__version__,
            "blas": f"{blas.get('name', '?')} {blas.get('version', '?')}",
            "gossipsim": os.path.dirname(sys.modules["gossipsim"].__file__)}


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--spans", help="write spans and environment here")
    ap.add_argument("--setup-only", action="store_true")
    ap.add_argument("argv", nargs=argparse.REMAINDER, help="-- then the gossipsim CLI arguments")
    opts = ap.parse_args()
    argv = opts.argv[1:] if opts.argv[:1] == ["--"] else opts.argv
    tr = Tracer(opts.workload, counting=not opts.setup_only)
    rc = 0
    with tr.span("pass", start=T_START):
        with tr.span("cli.import"):
            from gossipsim import cli
        seen = instrument(tr, opts.setup_only)
        try:
            rc = cli.main(argv)
        except SetupDone:
            pass
        if not opts.setup_only:
            probe_disagreement(tr, seen)
    if opts.spans:
        with open(opts.spans, "w", encoding="utf-8") as fh:
            json.dump({"spans": tr.spans, "env": environment()}, fh)
    return rc


if __name__ == "__main__":
    sys.exit(main())
