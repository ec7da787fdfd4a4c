"""The benchmark's workloads: which CLI invocation each one is, and why.

Each workload is one `gossipsim` subcommand with fixed flags. The
workload seed is the only input that varies: `run` and `spectra` get it
as `--run.seed` (the graph seed defaults to it), and the sweep turns it
into a block of `seeds_per_run` consecutive sweep seeds.
"""

from __future__ import annotations

from dataclasses import dataclass

EXIT_OK = 0
EXIT_NO_CONVERGENCE = 3

#: update rules whose dynamics keep the sum of the states exactly
SUM_CONSERVING_RULES = ("neighborhood_set", "pairwise_baseline")

#: a sum-conserving run may drift from the initial mean by no more than this
MAX_DRIFT = 1e-12


@dataclass(frozen=True)
class Workload:
    name: str
    command: str            # gossipsim subcommand: run, sweep or spectra
    flags: tuple[str, ...]  # everything but the seed, --out and --jobs
    expected_exit: int = EXIT_OK
    seeds_per_run: int = 0  # sweep only: sweep seeds per workload seed
    sweep_rows: int = 0     # sweep only: rows one invocation must write

    def argv(self, seed: int, jobs: int) -> list[str]:
        """CLI arguments for one invocation, without --out."""
        if self.command == "sweep":
            lo = seed * self.seeds_per_run
            return [self.command, *self.flags,
                    "--sweep.seeds", f"{lo}:{lo + self.seeds_per_run}",
                    "--jobs", str(jobs)]
        return [self.command, *self.flags, "--run.seed", str(seed)]


def _sweep(name: str, n: int, seeds: int) -> Workload:
    topologies = ("chain", "star", "circular", "random_geometric")
    rules = ("neighborhood_set", "pairwise_baseline")
    return Workload(
        name=name, command="sweep", seeds_per_run=seeds,
        sweep_rows=len(topologies) * len(rules) * seeds,
        flags=("--graph.n", str(n), "--sweep.topologies", ",".join(topologies),
               "--sweep.rules", ",".join(rules)))


# Why each workload is here is recorded in BENCHMARK.json and README.md.
WORKLOADS = {w.name: w for w in (
    Workload(name="chain-50", command="run", flags=("--preset", "chain")),
    # The graph seed is fixed: about one graph seed in five needs a second
    # connectivity attempt, which lifts peak memory from 403 to 541 MB and
    # moves the layer count, so the workload seed varies the initial states only.
    Workload(name="rgg-4000", command="run", expected_exit=EXIT_NO_CONVERGENCE,
             flags=("--graph.kind", "random_geometric", "--graph.n", "4000",
                    "--graph.radius", "0.035", "--graph.seed", "0",
                    "--run.max_iterations", "3")),
    _sweep("sweep-160", 20, 20),
    Workload(name="spectra-1000", command="spectra",
             flags=("--graph.kind", "random_geometric", "--graph.n", "1000",
                    "--graph.radius", "0.08")),
)}

#: tiny versions of each workload for the benchmark's own smoke test
SMOKE_WORKLOADS = {w.name: w for w in (
    Workload(name="smoke-chain", command="run",
             flags=("--preset", "chain", "--graph.n", "8")),
    Workload(name="smoke-rgg", command="run",
             expected_exit=EXIT_NO_CONVERGENCE,
             flags=("--graph.kind", "random_geometric", "--graph.n", "80",
                    "--graph.radius", "0.2", "--run.max_iterations", "2")),
    _sweep("smoke-sweep", 6, 2),
    Workload(name="smoke-spectra", command="spectra",
             flags=("--graph.kind", "random_geometric", "--graph.n", "40",
                    "--graph.radius", "0.4")),
)}
