"""Check that two source trees of gossipsim write the same outputs.

    python tools/same_outputs.py BASE_SRC HEAD_SRC

BASE_SRC and HEAD_SRC are the `src` directories of two checkouts. Each
tree runs the fixed list of CLI invocations below, in one fresh Python
process that imports gossipsim from that tree. The check compares every
file each invocation writes, byte for byte, and its exit code, stdout
and stderr, with the --out path replaced by a placeholder. It prints one
line per difference and exits 1 if there is any, 0 otherwise.

A change to the design should leave every output as it was; a change to
the benchmark's outputs shows up here on purpose.
"""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import os
import subprocess
import sys
import tempfile
from pathlib import Path

PRESETS = ("chain", "star", "circular", "circular_directed", "random_geometric")

RUN_VARIANTS = (
    ("--run.backend", "agent"),
    ("--run.backend", "matrix"),
    ("--rule.variant", "pairwise_baseline"),
    ("--rule.variant", "pure_neighbor"),
    ("--rule.variant", "self_additive"),
    ("--run.tolerance", "1e-3"),
)

#: CLI arguments of every invocation, without --out
INVOCATIONS = [
    ["run", "--preset", preset, *variant, "--dump-messages"]
    for preset in PRESETS for variant in RUN_VARIANTS
    # the pairwise baseline runs on undirected graphs only
    if not (preset == "circular_directed" and variant[1] == "pairwise_baseline")
] + [["compare", "--preset", preset] for preset in PRESETS] + [
    ["run", "--preset", "star", "--run.initial_states", ",".join(["3.25"] * 50)],
    # x0 within tolerance but not at consensus, spread over about 1e-9: a
    # one-row trace, whose disagreement sums terms that round
    ["run", "--preset", "star", "--run.initial_states",
     ",".join(repr(1e-9 * (k * 0.6180339887498949 % 1)) for k in range(50))],
    # random scripts: below p = q = 1 a scripted step wakes some of the
    # nodes, and a step can wake none
    *(["run", "--preset", preset, "--run.backend", "matrix", "--duty.p", "0.3",
       "--duty.q", "0.5", "--dump-messages"] for preset in ("chain", "random_geometric")),
    # the benchmark's sweep-160 and rgg-4000 workloads at seed 0
    ["sweep", "--graph.n", "20", "--sweep.topologies", "chain,star,circular,random_geometric",
     "--sweep.rules", "neighborhood_set,pairwise_baseline", "--sweep.seeds", "0:20",
     "--jobs", "2"],
    ["run", "--graph.kind", "random_geometric", "--graph.n", "4000", "--graph.radius", "0.035",
     "--graph.seed", "0", "--run.max_iterations", "3", "--run.seed", "0"],
    # rows gathered 3 at a time, fewer than _SHORT_ROWS, so that the
    # recorder judges every chunk a row at a time
    ["run", "--graph.kind", "random_geometric", "--graph.n", "20000", "--graph.radius", "0.016",
     "--run.max_iterations", "1"],
    # with error rows: a diverging rule, and the baseline on a directed ring
    ["sweep", "--graph.n", "12", "--run.max_iterations", "100",
     "--sweep.topologies", "chain,star,circular_directed,random_geometric",
     "--sweep.rules", "neighborhood_set,self_additive,pairwise_baseline",
     "--sweep.seeds", "0:6", "--jobs", "1"],
    # every poll rule on every kind drawn from no seed: each worker builds
    # a graph and compiles its cycle once and reuses them across tasks
    ["sweep", "--graph.n", "12", "--sweep.topologies", "chain,star,circular,circular_directed",
     "--sweep.rules", "neighborhood_set,pure_neighbor,self_additive", "--sweep.seeds", "0:4",
     "--jobs", "2"],
    # the Erdos-Renyi sampler over more than one block of rows, and a
    # geometric graph rooted away from node 0; both graph seeds draw two
    # samples before one is connected
    ["run", "--graph.kind", "random_geometric", "--graph.n", "100", "--graph.erdos_p", "0.05",
     "--graph.seed", "1", "--run.max_iterations", "100"],
    ["run", "--graph.kind", "random_geometric", "--graph.n", "40", "--graph.radius", "0.25",
     "--graph.anchor", "7", "--graph.seed", "8", "--run.max_iterations", "100"],
    # an odd node count, which the row sums of drift pair unevenly, and a
    # chain whose trace spans many blocks of rows
    ["run", "--preset", "circular", "--graph.n", "49", "--dump-messages"],
    ["run", "--graph.kind", "chain", "--graph.n", "301", "--run.max_iterations", "20"],
    ["spectra", "--preset", "chain"],
    ["spectra", "--graph.kind", "random_geometric", "--graph.n", "200", "--graph.radius", "0.15"],
    # a converging baseline run over many blocks of exchanges, and a chain
    # small enough that its beacon cycles run several at a time
    ["run", "--graph.kind", "star", "--graph.n", "6", "--rule.variant", "pairwise_baseline",
     "--run.max_iterations", "20000", "--dump-messages"],
    ["run", "--graph.kind", "chain", "--graph.n", "12", "--dump-messages"],
    # self-additive states that reach +inf and -inf, which a fold then meets
    ["run", "--graph.kind", "circular", "--graph.n", "5", "--rule.variant", "self_additive",
     "--run.initial_states", "1e308,1e308,-1e308,-1e308,0", "--run.max_iterations", "50"],
    # duty flags where no wake/sleep chain is drawn, a config error, and on
    # compare, whose pairwise side runs without them
    ["run", "--preset", "circular", "--rule.variant", "pairwise_baseline", "--run.backend",
     "matrix", "--duty.p", "0.3", "--duty.q", "0.5"],
    ["spectra", "--preset", "circular", "--run.backend", "matrix", "--duty.p", "0.3"],
    ["compare", "--preset", "circular", "--run.backend", "matrix", "--duty.p", "0.3",
     "--duty.q", "0.5"],
]


def _worker(out_root: Path) -> None:
    """Run every invocation in this process, each into out_root/<index>,
    and write their exit codes and streams to out_root/results.json."""
    import gossipsim
    from gossipsim import cli

    runs = []
    for k, argv in enumerate(INVOCATIONS):
        out = str(out_root / str(k))
        stdout, stderr = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(stderr):
            try:
                rc = cli.main([*argv, "--out", out])
            except Exception as exc:  # a traceback, and exit code 1, from the CLI
                print(f"{type(exc).__name__}: {exc}", file=sys.stderr)
                rc = 1
        runs.append({"exit": rc, "stdout": stdout.getvalue().replace(out, "$OUT"),
                     "stderr": stderr.getvalue().replace(out, "$OUT")})
    results = {"gossipsim": gossipsim.__file__, "runs": runs}
    (out_root / "results.json").write_text(json.dumps(results), encoding="utf-8")


def _run_tree(src: Path, out_root: Path) -> list[dict]:
    out_root.mkdir()
    src = src.resolve()
    env = dict(os.environ, PYTHONPATH=str(src))
    proc = subprocess.run([sys.executable, str(Path(__file__).resolve()), "--worker",
                           str(out_root)],
                          env=env, cwd=out_root, capture_output=True, text=True)
    if proc.returncode != 0:
        raise SystemExit(f"{src}: the invocations did not finish:\n{proc.stderr}")
    results = json.loads((out_root / "results.json").read_text(encoding="utf-8"))
    imported = Path(results["gossipsim"]).resolve().parent.parent
    if imported != src:
        raise SystemExit(f"imported gossipsim from {imported}, not from {src}")
    return results["runs"]


def _files(d: Path) -> dict[str, bytes]:
    if not d.is_dir():
        return {}
    return {str(p.relative_to(d)): p.read_bytes() for p in sorted(d.rglob("*")) if p.is_file()}


def compare(base_src: Path, head_src: Path) -> tuple[list[str], int]:
    """One line per difference between the trees' outputs, and the number
    of files the base tree wrote."""
    diffs, files = [], 0
    with tempfile.TemporaryDirectory() as tmp:
        base_root, head_root = Path(tmp, "base"), Path(tmp, "head")
        base_runs = _run_tree(base_src, base_root)
        head_runs = _run_tree(head_src, head_root)
        for k, argv in enumerate(INVOCATIONS):
            name = f"[{k}] gossipsim {' '.join(argv)}"[:120]
            for key in ("exit", "stdout", "stderr"):
                if base_runs[k][key] != head_runs[k][key]:
                    diffs.append(f"{name}: {key} differs: {base_runs[k][key]!r:.100} "
                                 f"against {head_runs[k][key]!r:.100}")
            base, head = _files(base_root / str(k)), _files(head_root / str(k))
            files += len(base)
            for f in sorted(base.keys() | head.keys()):
                if f not in head or f not in base:
                    diffs.append(f"{name}: {f} written by {'base' if f in base else 'head'} only")
                elif base[f] != head[f]:
                    diffs.append(f"{name}: {f} differs")
    return diffs, files


def main(argv: list[str] | None = None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("base_src", type=Path, help="src directory of the base checkout")
    ap.add_argument("head_src", type=Path, help="src directory of the checkout under test")
    args = ap.parse_args(argv)
    diffs, files = compare(args.base_src, args.head_src)
    for d in diffs:
        print(d)
    print(f"{len(INVOCATIONS)} invocations, {files} files: {len(diffs)} differences")
    return 1 if diffs else 0


if __name__ == "__main__":
    if sys.argv[1:2] == ["--worker"]:
        _worker(Path(sys.argv[2]))
    else:
        sys.exit(main())
