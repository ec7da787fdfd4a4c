"""Command-line front end.

Subcommands:

* run: one simulation; writes trace.csv, metrics.csv, summary.txt.
* sweep: cross product of topologies x rules x seeds; writes sweep.csv.
* compare: configured protocol vs the pairwise baseline on the same
  graph and initial states; writes compare.csv.
* spectra: certification report for the expected averaging matrices;
  writes spectra.txt and spectra.csv.

Configuration is flat key=value text (one pair per line, # comments).
Every key can be overridden on the command line with a flag of the same
name, e.g. --graph.kind star --run.seed 7. All files land under the
directory given by --out.

Exit codes: 0 success, 1 configuration error, 2 runtime error, 3 run
finished without converging.
"""

from __future__ import annotations

import argparse
import csv
import io
import os
import sys
from collections.abc import Iterable

import numpy as np

from . import analysis
from .duty_cycle import DutyCycleParams, activation_sequence
from .engine import (RunConfig, run_agent_sim, run_matrix_sim,
                     run_pairwise_baseline)
from .errors import ConfigError, GossipSimError, TopologyError
from .graph import TOPOLOGY_KINDS, build_topology
from .rules import RuleVariant, UpdateRule

EXIT_OK = 0
EXIT_CONFIG = 1
EXIT_RUNTIME = 2
EXIT_NO_CONVERGENCE = 3


def _parse_opt_float(s: str):
    return None if s.strip() == "" else float(s)


def _parse_opt_int(s: str):
    return None if s.strip() == "" else int(s)


def _parse_states(s: str):
    v = s.strip().lower()
    if v in ("", "uniform"):
        return None
    return [float(tok) for tok in s.split(",")]


def _parse_backend(s: str) -> str:
    if s not in ("agent", "matrix"):
        raise ConfigError("expected agent or matrix; rule.variant=pairwise_baseline "
                          "selects the pairwise baseline")
    return s


def _parse_seeds(spec: str) -> list[int]:
    spec = spec.strip()
    if ":" in spec:
        lo, hi = spec.split(":", 1)
        return list(range(int(lo), int(hi)))
    return [int(tok) for tok in spec.split(",") if tok.strip()]


# key -> (parser, default). The single source of truth for run configs.
CONFIG_SPEC = {
    "graph.kind": (str, "chain"),
    "graph.n": (int, 50),
    "graph.anchor": (int, 0),
    "graph.radius": (float, 0.3),
    "graph.erdos_p": (_parse_opt_float, None),
    "graph.seed": (_parse_opt_int, None),  # defaults to run.seed
    "duty.p": (float, 1.0),
    "duty.q": (float, 1.0),
    "rule.variant": (str, "neighborhood_set"),
    "rule.alpha": (float, 0.5),
    "run.backend": (_parse_backend, "agent"),
    "run.seed": (int, 0),
    "run.max_iterations": (int, 400),
    "run.tolerance": (float, 1e-6),
    "run.initial_states": (_parse_states, None),
}

SWEEP_SPEC = {
    "sweep.topologies": (str, "chain,star,circular,random_geometric"),
    "sweep.rules": (str, "neighborhood_set"),
    "sweep.seeds": (_parse_seeds, list(range(10))),
}

# canned 50-node runs matching the standard evaluation topologies
PRESETS = {
    "chain": {"graph.kind": "chain", "graph.n": "50", "run.max_iterations": "1200"},
    "star": {"graph.kind": "star", "graph.n": "50", "run.max_iterations": "100"},
    "circular": {"graph.kind": "circular", "graph.n": "50", "run.max_iterations": "600"},
    "circular_directed": {"graph.kind": "circular_directed", "graph.n": "50",
                          "run.max_iterations": "1200"},
    "random_geometric": {"graph.kind": "random_geometric", "graph.n": "50",
                         "graph.radius": "0.3", "run.max_iterations": "300"},
}


def load_config_file(path: str, allowed: dict) -> dict[str, str]:
    raw: dict[str, str] = {}
    try:
        with open(path, encoding="utf-8") as fh:
            for lineno, line in enumerate(fh, start=1):
                body = line.split("#", 1)[0].strip()
                if not body:
                    continue
                if "=" not in body:
                    raise ConfigError(f"{path}:{lineno}: expected key=value, got {body!r}")
                key, val = (part.strip() for part in body.split("=", 1))
                if key not in allowed:
                    raise ConfigError(f"{path}:{lineno}: unknown key {key!r}")
                raw[key] = val
    except (OSError, UnicodeDecodeError) as exc:
        raise ConfigError(f"cannot read config file {path}: {exc}")
    return raw


def resolve_config(args: argparse.Namespace, extra_spec: dict | None = None) -> dict:
    """Merge defaults, preset, config file, and CLI flags (in that order)."""
    spec = dict(CONFIG_SPEC)
    if extra_spec:
        spec.update(extra_spec)
    raw: dict[str, str] = {}
    preset = getattr(args, "preset", None)
    if preset is not None:
        if preset not in PRESETS:
            raise ConfigError(f"unknown preset {preset!r}; expected one of {sorted(PRESETS)}")
        raw.update(PRESETS[preset])
    if getattr(args, "config", None):
        raw.update(load_config_file(args.config, spec))
    for key in spec:
        flag_val = getattr(args, key.replace(".", "_"), None)
        if flag_val is not None:
            raw[key] = flag_val
    out = {}
    for key, (parse, default) in spec.items():
        if key in raw:
            try:
                out[key] = parse(raw[key])
            except (ValueError, ConfigError) as exc:
                raise ConfigError(f"bad value for {key}: {raw[key]!r} ({exc})")
        else:
            out[key] = default
    return out


def build_run_config(cfgd: dict, chain: bool = False) -> RunConfig:
    """The run of the key map cfgd. chain says whether the caller draws the
    wake/sleep chain, the one reader of duty.p and duty.q; any other
    caller refuses them."""
    if not chain and (cfgd["duty.p"], cfgd["duty.q"]) != (1.0, 1.0):
        raise ConfigError("duty.p and duty.q drive the matrix backend's wake/sleep chain; "
                          "the agent backend, the pairwise baseline and spectra draw "
                          "none (leave them at 1)")
    gseed = cfgd["graph.seed"]
    if gseed is None:
        gseed = cfgd["run.seed"]
    for key in ("run.seed", "graph.seed"):  # numpy's generators take none below 0
        if (cfgd[key] or 0) < 0:
            raise ConfigError(f"{key} must be >= 0, got {cfgd[key]}")
    graph = build_topology(cfgd["graph.kind"], cfgd["graph.n"], anchor=cfgd["graph.anchor"],
                           radius=cfgd["graph.radius"], erdos_p=cfgd["graph.erdos_p"],
                           seed=gseed)
    rule = UpdateRule.parse(cfgd["rule.variant"], cfgd["rule.alpha"])
    init = cfgd["run.initial_states"]
    return RunConfig(
        graph=graph, rule=rule,
        seed=cfgd["run.seed"],
        max_iterations=cfgd["run.max_iterations"],
        tolerance=cfgd["run.tolerance"],
        initial_states=None if init is None else np.asarray(init, dtype=float),
    )


def execute_run(cfgd: dict, collect_messages: bool = False) -> analysis.Trace:
    # the pairwise baseline has one runner, whichever backend is named,
    # and only the matrix backend's poll rules run on a wake/sleep chain
    chain = (cfgd["run.backend"] == "matrix"
             and cfgd["rule.variant"] != RuleVariant.PAIRWISE_BASELINE.value)
    cfg = build_run_config(cfgd, chain)
    if cfg.rule.variant is RuleVariant.PAIRWISE_BASELINE:
        return run_pairwise_baseline(cfg, collect_messages=collect_messages)
    if chain:
        # the chain's activations drive the scripted steps; seed offset
        # decorrelates it from the initial-state draw
        duty = DutyCycleParams(p=cfgd["duty.p"], q=cfgd["duty.q"])
        seq = activation_sequence(duty, cfg.graph.node_count,
                                  cfg.max_iterations, seed=cfg.seed + 1)
        return run_matrix_sim(cfg, seq, collect_messages=collect_messages)
    return run_agent_sim(cfg, collect_messages=collect_messages)


def _write_text(path: str, texts: Iterable[str]) -> None:
    """The one writer of every output file: the texts, in turn, to the
    file at path. The file is opened once the first text is made, so a
    first text that cannot be made (the drifts of a run whose states
    diverged) leaves no file; a file that cannot be opened is a
    configuration error, like an unusable --out. The texts are joined
    into writes of at least analysis._WRITE_CHARS characters: a batch is
    written once it holds that many, before the next text joins it, and
    the last batch holds what is left."""
    texts = iter(texts)
    first = next(texts, "")
    try:
        fh = open(path, "w", encoding="utf-8", newline="")
    except OSError as exc:
        raise ConfigError(f"cannot open output file {path}: {exc}")
    with fh:
        batch, size, limit = [first], len(first), analysis._WRITE_CHARS
        for text in texts:
            if size >= limit:
                fh.write("".join(batch))
                batch, size = [], 0
            batch.append(text)
            size += len(text)
        fh.write("".join(batch))


def _write_csv(path: str, fields, rows: list[dict]) -> None:
    """A CSV file of the given columns, one line per row dict; a column a
    row lacks is left empty."""
    buf = io.StringIO()
    w = csv.DictWriter(buf, fieldnames=fields, lineterminator="\n", restval="")
    w.writeheader()
    w.writerows(rows)
    _write_text(path, [buf.getvalue()])


def _make_out_dir(path: str) -> None:
    try:
        os.makedirs(path, exist_ok=True)
    except OSError as exc:
        raise ConfigError(f"cannot create output directory {path}: {exc}")


#: the columns of a run's summary, in summary.txt, sweep.csv and compare.csv
SUMMARY_FIELDS = ("converged", "rows", "rounds_to_tolerance", "max_drift",
                  "final_drift", "final_disagreement", "messages_total")


def summarize(trace: analysis.Trace) -> dict[str, str]:
    """The summary fields of a run, each formatted as its output cell."""
    rounds = trace.rounds_to_tolerance
    d = trace.drifts
    values = (trace.converged, trace.iterations, "" if rounds is None else rounds,
              float(d.max()), float(d[-1]),
              analysis.disagreement_of(trace.final_state, trace.graph),
              trace.total_messages())
    return {k: analysis.format_value(v) for k, v in zip(SUMMARY_FIELDS, values, strict=True)}


def cmd_run(args: argparse.Namespace) -> int:
    cfgd = resolve_config(args)
    _make_out_dir(args.out)
    trace = execute_run(cfgd, collect_messages=args.dump_messages)
    # streamed, so that no copy of a whole file is held as text
    _write_text(os.path.join(args.out, "trace.csv"), analysis.trace_csv_texts(trace))
    _write_text(os.path.join(args.out, "metrics.csv"), analysis.metrics_csv_blocks(trace))
    if args.dump_messages:
        _write_text(os.path.join(args.out, "messages.csv"), analysis.messages_csv_texts(trace))
    lines = [f"{k}={v}\n" for k, v in summarize(trace).items()]
    _write_text(os.path.join(args.out, "summary.txt"), lines)
    print("".join(lines), end="")
    return EXIT_OK if trace.converged else EXIT_NO_CONVERGENCE


def _sweep_worker(cfgd: dict) -> dict:
    row = {"topology": cfgd["graph.kind"], "rule": cfgd["rule.variant"],
           "seed": cfgd["run.seed"], "status": "ok", "error": ""}
    try:
        row.update(summarize(execute_run(cfgd)))
    except (GossipSimError, MemoryError, OverflowError) as exc:
        row["status"] = "error"
        row["error"] = f"{type(exc).__name__}: {exc}"
    return row


SWEEP_FIELDS = ("topology", "rule", "seed", "status", *SUMMARY_FIELDS, "error")


def cmd_sweep(args: argparse.Namespace) -> int:
    if args.jobs < 1:
        raise ConfigError(f"--jobs must be >= 1, got {args.jobs}")
    cfgd = resolve_config(args, SWEEP_SPEC)
    topologies = [t.strip() for t in cfgd["sweep.topologies"].split(",") if t.strip()]
    rules = [r.strip() for r in cfgd["sweep.rules"].split(",") if r.strip()]
    seeds = cfgd["sweep.seeds"]
    for t in topologies:
        if t not in TOPOLOGY_KINDS:
            raise ConfigError(f"unknown sweep topology {t!r}")
    for r in rules:
        UpdateRule.parse(r)
    base = {k: v for k, v in cfgd.items() if not k.startswith("sweep.")}
    # each task is its run's own key map
    tasks = [{**base, "graph.kind": t, "rule.variant": r, "run.seed": s}
             for t in topologies for r in rules for s in seeds]
    if not tasks:
        raise ConfigError("empty sweep grid: sweep.topologies, sweep.rules and "
                          "sweep.seeds must each select at least one value")
    _make_out_dir(args.out)
    # a process pool starts all its workers at once, so start no more than
    # there are tasks
    jobs = min(args.jobs, len(tasks))
    if jobs > 1:
        # imported here: run and spectra never start a pool
        from concurrent.futures import ProcessPoolExecutor
        with ProcessPoolExecutor(max_workers=jobs) as pool:
            rows = list(pool.map(_sweep_worker, tasks))
    else:
        rows = [_sweep_worker(t) for t in tasks]
    path = os.path.join(args.out, "sweep.csv")
    _write_csv(path, SWEEP_FIELDS, rows)
    print(f"wrote {len(rows)} rows to {path}")
    return EXIT_OK


def cmd_compare(args: argparse.Namespace) -> int:
    cfgd = resolve_config(args)
    _make_out_dir(args.out)
    rows = []
    for method in ("protocol", "pairwise"):
        mc = dict(cfgd)
        if method == "pairwise":
            mc["rule.variant"] = RuleVariant.PAIRWISE_BASELINE.value
            # the baseline draws no wake/sleep chain
            mc["duty.p"] = mc["duty.q"] = 1.0
            # a pairwise iteration touches one pair; give it the same
            # per-node update budget as the protocol run
            mc["run.max_iterations"] = cfgd["run.max_iterations"] * cfgd["graph.n"]
        trace = execute_run(mc)
        row = {"method": method, "rule": mc["rule.variant"]}
        row.update(summarize(trace))
        rows.append(row)
    fields = ("method", "rule", *SUMMARY_FIELDS)
    _write_csv(os.path.join(args.out, "compare.csv"), fields, rows)
    widths = {f: max(len(f), *(len(str(r.get(f, ""))) for r in rows)) for f in fields}
    print("  ".join(f.ljust(widths[f]) for f in fields))
    for row in rows:
        print("  ".join(str(row.get(f, "")).ljust(widths[f]) for f in fields))
    return EXIT_OK


def cmd_spectra(args: argparse.Namespace) -> int:
    cfgd = resolve_config(args)
    _make_out_dir(args.out)
    cfg = build_run_config(cfgd)
    reports = []
    main_rule = cfg.rule
    labels = [(f"expected_{main_rule.variant.value}", main_rule)]
    if main_rule.variant is not RuleVariant.PAIRWISE_BASELINE and not cfg.graph.directed:
        labels.append(("expected_pairwise_baseline",
                       UpdateRule(RuleVariant.PAIRWISE_BASELINE, main_rule.alpha)))
    for label, rule in labels:
        w = analysis.expected_weight_matrix(cfg.graph, rule)
        reports.append(analysis.check_consensus_conditions(w, label=label))
    text = "\n".join(r.to_text() for r in reports)
    _write_text(os.path.join(args.out, "spectra.txt"), [text])
    _write_csv(os.path.join(args.out, "spectra.csv"), analysis.SpectralReport.CSV_FIELDS,
               [r.to_csv_row() for r in reports])
    print(text, end="")
    return EXIT_OK


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="gossipsim",
                                     description=__doc__.split("\n\n")[0])
    sub = parser.add_subparsers(dest="command", required=True)

    def add_common(p: argparse.ArgumentParser, extra: dict | None = None) -> None:
        p.add_argument("--config", help="key=value config file")
        p.add_argument("--preset", help=f"canned 50-node setup: {', '.join(sorted(PRESETS))}")
        p.add_argument("--out", default="runs", help="output directory (default: runs)")
        spec = dict(CONFIG_SPEC)
        if extra:
            spec.update(extra)
        for key in spec:
            p.add_argument(f"--{key}", dest=key.replace(".", "_"),
                           metavar="V", help=argparse.SUPPRESS)

    p_run = sub.add_parser("run", help="simulate one configuration")
    add_common(p_run)
    p_run.add_argument("--dump-messages", action="store_true",
                       help="also write messages.csv")
    p_run.set_defaults(func=cmd_run)

    p_sweep = sub.add_parser("sweep", help="grid of topologies x rules x seeds")
    add_common(p_sweep, SWEEP_SPEC)
    p_sweep.add_argument("--jobs", type=int, default=os.cpu_count() or 1,
                         help="parallel worker processes")
    p_sweep.set_defaults(func=cmd_sweep)

    p_cmp = sub.add_parser("compare", help="protocol vs pairwise baseline")
    add_common(p_cmp)
    p_cmp.set_defaults(func=cmd_compare)

    p_spec = sub.add_parser("spectra", help="certify expected averaging matrices")
    add_common(p_spec)
    p_spec.set_defaults(func=cmd_spectra)
    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (ConfigError, TopologyError) as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except MemoryError as exc:  # an input too large to hold, e.g. a huge complete graph
        print("config error: out of memory" + (f" ({exc})" if str(exc) else ""),
              file=sys.stderr)
        return EXIT_CONFIG
    except GossipSimError as exc:
        print(f"runtime error: {exc}", file=sys.stderr)
        return EXIT_RUNTIME
    except OverflowError as exc:  # a diverging rule (self_additive) left float range
        print(f"runtime error: the states diverged ({exc})", file=sys.stderr)
        return EXIT_RUNTIME


if __name__ == "__main__":
    sys.exit(main())
