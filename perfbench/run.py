"""gossipsim benchmark: runs the real CLI on a named workload and reports
end-to-end metrics (--trace 0) or per-layer metrics from a traced pass
(--trace 1).

    python3 perfbench/run.py --workload chain-50 --seed 0 --seconds 20 --trace 0
    python3 perfbench/run.py --workload all      # every workload in turn
    python3 perfbench/run.py --smoke             # tiny workloads, asserts the output

Every invocation is a fresh process, one at a time (a closed loop with a
single client), with BLAS pinned to one thread. Outputs are checked
after every invocation. The last line of standard output is one JSON
object with the keys correct, attempted, failed and metrics; details
(samples, environment, errors) go to --results. Run it from a checkout
of the repository: it runs the sources under src/.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import shutil
import signal
import statistics
import subprocess
import sys
import threading
import time
from collections import defaultdict
from dataclasses import dataclass
from pathlib import Path

import checks
from workloads import SMOKE_WORKLOADS, WORKLOADS, Workload

ROOT = Path(__file__).resolve().parent.parent
BENCH = ROOT / "perfbench"
OUT = ROOT / ".perfbench_out"

#: one-thread BLAS: with more threads the first eigvals call can stall for
#: a second, which is noise, not work
CHILD_ENV = {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1"}

SETUP_REPS = 15     # set-up passes per run, setup_s is their median ...
SETUP_BUDGET_S = 6  # ... unless the top-up passes would take longer than this
MIN_REPS = 2        # invocations per run, so two runs of one seed can be compared
RUN_LIMIT_S = 165   # a whole run must end within 180 s


def nproc() -> int:
    return len(os.sched_getaffinity(0))


def child_env() -> dict[str, str]:
    env = dict(os.environ, **CHILD_ENV)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(ROOT / "src"), env.get("PYTHONPATH")]))
    return env


@dataclass
class Proc:
    wall_s: float
    rss_mb: float  # peak of the process and every child it waited for
    rc: int
    log: Path


def spawn(cmd: list[str], log: Path, deadline: float) -> Proc:
    """Run cmd to completion in its own process group and time it.

    The whole group is killed at the deadline or if this process is
    interrupted, and always waited for.
    """
    with open(log, "wb") as fh:
        t0 = time.perf_counter()
        p = subprocess.Popen(cmd, cwd=ROOT, env=child_env(), stdout=subprocess.DEVNULL,
                             stderr=fh, start_new_session=True)

        def kill() -> None:
            try:
                os.killpg(p.pid, signal.SIGKILL)
            except ProcessLookupError:
                pass

        timer = threading.Timer(max(1.0, deadline - time.monotonic()), kill)
        timer.start()
        try:
            _, status, ru = os.wait4(p.pid, 0)
        except BaseException:
            kill()
            p.wait()
            raise
        finally:
            timer.cancel()
        wall = time.perf_counter() - t0
        p.returncode = os.waitstatus_to_exitcode(status)
        kill()  # nothing of the group may outlive it
    return Proc(wall, ru.ru_maxrss / 1024.0, p.returncode, log)


def log_tail(proc: Proc) -> str:
    text = proc.log.read_text(encoding="utf-8", errors="replace").strip().splitlines()
    return " | ".join(text[-3:])


def median(xs: list[float]) -> float:
    return statistics.median(xs) if xs else 0.0


class Runner:
    """One benchmark run: a workload, a seed, a mode."""

    def __init__(self, wl: Workload, seed: int, jobs: int, pins: dict | None):
        self.wl = wl
        self.seed = seed
        self.argv = wl.argv(seed, jobs)
        self.jobs = jobs
        self.pins = pins
        self.deadline = time.monotonic() + RUN_LIMIT_S
        self.work = OUT / "work" / f"{wl.name}-s{seed}-{os.getpid()}"
        shutil.rmtree(self.work, ignore_errors=True)
        self.work.mkdir(parents=True)
        self.attempted = 0
        self.failed = 0
        self.errors: list[str] = []
        self._n = 0

    def _dir(self, kind: str) -> Path:
        self._n += 1
        return self.work / f"{kind}{self._n}"

    def record(self, attempted: int, failed: int, errors: list[str]) -> None:
        self.attempted += attempted
        self.failed += failed
        self.errors.extend(f"{self.wl.name} seed {self.seed}: {e}" for e in errors)

    def traced(self, setup_only: bool, keep_spans: bool = True) -> tuple[Proc, dict | None, Path]:
        """A pass of traced.py over the real CLI, with the sweep's tasks run
        serially; returns its process, what it wrote to its spans file
        (None if it failed or was not asked to write one) and its output
        directory."""
        out = self._dir("setup" if setup_only else "traced")
        spans = out.with_suffix(".json")
        cmd = [sys.executable, str(BENCH / "traced.py"), "--workload", self.wl.name]
        if keep_spans:
            cmd += ["--spans", str(spans)]
        if setup_only:
            cmd.append("--setup-only")
        argv = self.wl.argv(self.seed, jobs=1) + ["--out", str(out)]
        proc = spawn(cmd + ["--", *argv], out.with_suffix(".log"), self.deadline)
        data = None
        if proc.rc == (0 if setup_only else self.wl.expected_exit) and keep_spans:
            data = json.loads(spans.read_text(encoding="utf-8"))
        return proc, data, out

    def invoke(self, reference: checks.Outcome | None) -> tuple[Proc, checks.Outcome]:
        """One untraced CLI invocation, checked, its outputs then deleted."""
        out = self._dir("cli")
        proc = spawn([sys.executable, "-m", "gossipsim.cli", *self.argv, "--out", str(out)],
                     out.with_suffix(".log"), self.deadline)
        res = checks.check_invocation(self.wl, proc.rc, str(out), self.pins)
        if proc.rc != self.wl.expected_exit:
            res.errors.append(f"stderr: {log_tail(proc)}")
        if reference is not None and res.failed == 0 and res.digests != reference.digests:
            differing = sum(a != b for a, b in zip(res.rows, reference.rows)) or 1
            res.fail("outputs differ from the first invocation of the same seed", differing)
        self.record(res.attempted, res.failed, res.errors)
        shutil.rmtree(out, ignore_errors=True)
        return proc, res

    def time_left(self, estimate: float) -> bool:
        return time.monotonic() + 1.2 * estimate < self.deadline

    def warm_up(self) -> dict:
        """A discarded set-up pass: compiles bytecode, fills the page cache,
        and reports the environment."""
        proc, data, _ = self.traced(setup_only=True)
        if data is None:
            raise SystemExit(f"set-up pass failed (exit {proc.rc}): {log_tail(proc)}")
        if Path(data["env"]["gossipsim"]).resolve() != (ROOT / "src" / "gossipsim").resolve():
            raise SystemExit(f"imported gossipsim from {data['env']['gossipsim']}, not this checkout")
        return data["env"]

    def time_setup(self, samples: list[float]) -> None:
        proc, _, _ = self.traced(setup_only=True, keep_spans=False)
        if proc.rc != 0:
            self.record(0, 0, [f"set-up pass failed (exit {proc.rc}): {log_tail(proc)}"])
        else:
            samples.append(proc.wall_s)

    def untraced_metrics(self, seconds: float) -> tuple[dict, dict]:
        # set-up passes go between the invocations, so that they sample the
        # machine over the whole run rather than in one burst
        setup, walls, rss, rates = [], [], [], []
        first = None
        t0 = time.monotonic()
        while len(walls) < MIN_REPS or time.monotonic() - t0 < seconds:
            if walls and not self.time_left(max(walls)):
                break
            self.time_setup(setup)
            proc, res = self.invoke(first)
            first = first or res
            walls.append(proc.wall_s)
            rss.append(proc.rss_mb)
            rates.append(res.completed / proc.wall_s)
        t1 = time.monotonic()
        while len(setup) < SETUP_REPS and time.monotonic() - t1 < SETUP_BUDGET_S:
            self.time_setup(setup)
        if len(walls) < MIN_REPS:
            self.record(0, 0, [f"time for {len(walls)} invocations only; "
                                "no second run of the seed to compare"])
        metrics = {"wall_s": median(walls), "setup_s": median(setup),
                   "peak_rss_mb": median(rss), "runs_per_s": median(rates)}
        samples = {"wall_s": walls, "setup_s": setup, "peak_rss_mb": rss, "runs_per_s": rates}
        return metrics, samples

    def traced_metrics(self, seconds: float, spans_path: Path) -> tuple[dict, dict]:
        t0 = time.monotonic()
        proc, ref = self.invoke(None)
        passes, all_spans, traced_walls = [], [], []
        while not traced_walls or time.monotonic() - t0 < seconds:
            if not self.time_left(traced_walls[-1] if traced_walls else proc.wall_s):
                break
            tproc, data, tdir = self.traced(setup_only=False)
            traced_walls.append(tproc.wall_s)
            ops = ref.attempted
            if data is None:
                self.record(ops, ops, [f"traced pass failed (exit {tproc.rc}): {log_tail(tproc)}"])
                continue
            errors = checks.compare_traced(ref, str(tdir))
            self.record(ops, min(ops, len(errors)), errors)
            shutil.rmtree(tdir, ignore_errors=True)
            for s in data["spans"]:
                s["pass"] = len(passes)
            all_spans.extend(data["spans"])
            m = layer_metrics(data["spans"], proc.wall_s, ref.output_bytes, self.jobs)
            m["trace_overhead_frac"] = tproc.wall_s / proc.wall_s - 1.0
            passes.append(m)
        spans_path.parent.mkdir(parents=True, exist_ok=True)
        spans_path.write_text(json.dumps(all_spans), encoding="utf-8")
        metrics = {k: median([p[k] for p in passes]) for k in (passes[0] if passes else {})}
        samples = {k: [p[k] for p in passes] for k in metrics}
        return metrics, samples

    def close(self) -> None:
        shutil.rmtree(self.work, ignore_errors=True)


def layer_metrics(spans: list[dict], untraced_wall: float, output_bytes: int, jobs: int) -> dict:
    """Per-layer metrics of one traced pass.

    A layer's time is the self time of its spans (duration less the
    part covered by child spans), summed over the pass. Sizes (trace
    state bytes, graph edges and layers) are those of the largest run
    or graph in the pass.
    """
    dur = {s["id"]: s["end"] - s["start"] for s in spans}
    covered = defaultdict(float)
    for s in spans:
        if s["parent"] is not None:
            covered[s["parent"]] += dur[s["id"]]
    self_s = defaultdict(float)
    total_s = defaultdict(float)
    count = defaultdict(int)
    largest = defaultdict(int)
    for s in spans:
        self_s[s["name"]] += dur[s["id"]] - covered[s["id"]]
        total_s[s["name"]] += dur[s["id"]]
        for k, v in s["counts"].items():
            count[f"{s['name']}.{k}"] += v
            largest[k] = max(largest[k], v)
    engines = ("engine.run_agent_sim", "engine.run_pairwise_baseline")
    engine_s = sum(self_s[e] for e in engines)
    messages = sum(count[f"{e}.messages"] for e in engines)
    updates = sum(count[f"{e}.node_updates"] for e in engines)
    calls = count["analysis.disagreement_of.calls"]
    tasks = sorted(dur[s["id"]] for s in spans if s["name"] == "cli.sweep_task")
    efficiency = 0.0
    if tasks:
        # the untraced sweep's pool time: its wall less what it does before the pool
        outside_pool = total_s["cli.import"] + total_s["cli.resolve_config"]
        efficiency = sum(tasks) / (jobs * max(untraced_wall - outside_pool, 1e-9))
    return {
        "engine.run_agent_sim_s": self_s["engine.run_agent_sim"],
        "engine.run_pairwise_baseline_s": self_s["engine.run_pairwise_baseline"],
        "engine.us_per_message": 1e6 * engine_s / messages if messages else 0.0,
        "engine.us_per_update": 1e6 * engine_s / updates if updates else 0.0,
        "engine.messages": messages,
        "engine.node_updates": updates,
        "engine.trace_rows": sum(count[f"{e}.trace_rows"] for e in engines),
        "engine.trace_state_bytes": largest["trace_state_bytes"],
        "analysis.disagreement_of_us": 1e6 * self_s["analysis.disagreement_of"] / calls if calls else 0.0,
        "analysis.trace_csv_s": self_s["analysis.trace_csv_text"],
        "analysis.trace_csv_bytes": count["analysis.trace_csv_text.bytes"],
        "analysis.metrics_csv_s": self_s["analysis.metrics_csv_text"],
        "analysis.expected_weight_matrix_s": self_s["analysis.expected_weight_matrix"],
        "analysis.check_consensus_conditions_s": self_s["analysis.check_consensus_conditions"],
        "cli.import_s": self_s["cli.import"],
        "cli.resolve_config_s": self_s["cli.resolve_config"],
        "cli.summarize_s": self_s["cli.summarize"],
        "cli.write_outputs_s": self_s["cli.write_outputs"],
        "cli.output_bytes": output_bytes,
        "cli.sweep_task_s_p50": statistics.median(tasks) if tasks else 0.0,
        "cli.sweep_task_s_p90": statistics.quantiles(tasks, n=10)[8] if len(tasks) > 1 else 0.0,
        "cli.sweep_parallel_efficiency": efficiency,
        "graph.build_topology_s": self_s["graph.build_topology"],
        "graph.assign_layers_s": self_s["graph.assign_layers"],
        "graph.edges": largest["edges"],
        "graph.layers": largest["layers"],
    }


def load_benchmark() -> dict:
    with open(ROOT / "BENCHMARK.json", encoding="utf-8") as fh:
        return json.load(fh)


def git_commit() -> str:
    if not (ROOT / ".git").exists():
        return "unknown"
    r = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True)
    return r.stdout.strip() or "unknown"


def run_once(wl: Workload, seed: int, seconds: float, trace: bool, jobs: int,
             pins: dict | None, bench: dict, results: Path) -> dict:
    """One benchmark run; returns the result object and writes its details."""
    runner = Runner(wl, seed, jobs, pins)
    try:
        env = runner.warm_up()
        if trace:
            spans_path = OUT / "spans" / f"{wl.name}-seed{seed}.json"
            values, samples = runner.traced_metrics(seconds, spans_path)
            specs = bench["per_layer"]
        else:
            values, samples = runner.untraced_metrics(seconds)
            specs = bench["end_to_end"]
    finally:
        runner.close()
    names = [m["name"] for m in specs]
    if values and sorted(values) != sorted(names):
        raise SystemExit(f"metrics {sorted(values)} do not match BENCHMARK.json {sorted(names)}")
    if not values:  # no traced pass fitted in the time left
        runner.record(0, 0, ["no traced pass completed"])
    metrics = {m["name"]: {"value": values.get(m["name"], 0.0), "unit": m["unit"]} for m in specs}
    result = {"correct": runner.failed == 0 and not runner.errors and bool(values),
              "attempted": max(runner.attempted, 1), "failed": runner.failed,
              "metrics": metrics}
    detail = {"workload": wl.name, "seed": seed, "trace": int(trace), "seconds": seconds,
              "argv": wl.argv(seed, jobs), "pinned": pins is not None,
              "env": {**env, "nproc": nproc(), "jobs": jobs, "commit": git_commit(),
                      **CHILD_ENV},
              "samples": samples, "errors": runner.errors, "result": result}
    if trace:
        detail["spans"] = str(spans_path.relative_to(ROOT))
    results.mkdir(parents=True, exist_ok=True)
    (results / f"{wl.name}-seed{seed}-trace{int(trace)}.json").write_text(
        json.dumps(detail, indent=1), encoding="utf-8")
    return detail


def describe(detail: dict) -> list[str]:
    e = detail["env"]
    lines = [f"# {detail['workload']} seed {detail['seed']} trace {detail['trace']}: "
             f"python {e['python']}, numpy {e['numpy']}, {e['blas']}, nproc {e['nproc']}, "
             f"jobs {e['jobs']}, commit {e['commit']}"]
    for name, m in detail["result"]["metrics"].items():
        xs = detail["samples"].get(name, [])
        lines.append(f"#   {name} = {m['value']:.6g} {m['unit']} "
                     f"(median of {len(xs)}, max {max(xs) if xs else 0:.6g})")
    lines.extend(f"#   error: {err}" for err in detail["errors"][:20])
    return lines


def smoke(bench: dict, jobs: int, results: Path) -> int:
    """Tiny versions of every workload, both modes: every named metric is
    emitted with its unit, end-to-end ones are positive, and checks pass."""
    problems = []
    for wl in SMOKE_WORKLOADS.values():
        for trace in (False, True):
            d = run_once(wl, 0, 0.0, trace, jobs, None, bench, results)
            r = d["result"]
            specs = bench["per_layer" if trace else "end_to_end"]
            tag = f"{wl.name} trace {int(trace)}"
            if not r["correct"] or r["failed"]:
                problems.append(f"{tag}: checks failed: {d['errors']}")
            for m in specs:
                got = r["metrics"].get(m["name"])
                if got is None or got["unit"] != m["unit"] or not math.isfinite(got["value"]):
                    problems.append(f"{tag}: {m['name']} missing or malformed: {got}")
                elif not trace and got["value"] <= 0:
                    problems.append(f"{tag}: {m['name']} is not positive")
            print(f"smoke {tag}: correct={r['correct']} attempted={r['attempted']} "
                  f"failed={r['failed']}", flush=True)
    for p in problems:
        print(f"FAIL {p}", file=sys.stderr)
    print("smoke: ok" if not problems else f"smoke: {len(problems)} problems")
    return 1 if problems else 0


def main(argv: list[str] | None = None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", choices=[*sorted(WORKLOADS), "all"],
                    help="one workload, or all of them in turn")
    ap.add_argument("--seed", type=int, default=0, help="workload seed (default 0, the pinned one)")
    ap.add_argument("--seconds", type=float, default=None,
                    help="measuring time per run (default: run_seconds in BENCHMARK.json)")
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--jobs", type=int, default=nproc(),
                    help="sweep worker processes (default and maximum: nproc)")
    ap.add_argument("--results", type=Path, default=OUT / "results",
                    help="directory for the per-run detail files")
    ap.add_argument("--smoke", action="store_true", help="run the benchmark's own smoke test")
    args = ap.parse_args(argv)
    if not (ROOT / "src" / "gossipsim" / "cli.py").is_file():
        print(f"error: no gossipsim sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    if not 1 <= args.jobs <= nproc():
        ap.error(f"--jobs must lie in 1..{nproc()} (nproc)")
    if args.seed < 0:
        ap.error("--seed must be >= 0")
    bench = load_benchmark()
    if args.smoke:
        return smoke(bench, args.jobs, args.results)
    if args.workload is None:
        ap.error("--workload is required")
    seconds = bench["run_seconds"] if args.seconds is None else args.seconds
    names = sorted(WORKLOADS) if args.workload == "all" else [args.workload]
    results = {}
    for name in names:
        pins = checks.load_pins(name) if args.seed == 0 else None
        detail = run_once(WORKLOADS[name], args.seed, seconds, bool(args.trace), args.jobs,
                          pins, bench, args.results)
        for line in describe(detail):
            print(line, flush=True)
        results[name] = detail["result"]
    print(json.dumps(results[names[0]] if len(names) == 1 else results), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
