"""Command line interface: subcommands, config layering, exit codes."""

import csv
import io
import os
import subprocess
import sys
from collections import Counter

import pytest

from gossipsim import analysis, cli, engine
from gossipsim.cli import PRESETS, _parse_seeds, main


def read_kv(path):
    with open(path, encoding="utf-8") as fh:
        return dict(line.strip().split("=", 1) for line in fh if line.strip())


def read_csv(path):
    with open(path, encoding="utf-8", newline="") as fh:
        return list(csv.DictReader(fh))


def run_cli(*argv):
    return main(list(argv))


FAST = ("--graph.kind", "star", "--graph.n", "8", "--run.max_iterations", "20")
DUTY_ERROR = "duty.p and duty.q drive the matrix backend's wake/sleep chain"
# a self-additive run whose states reach +inf and -inf
INFINITIES = ("--graph.kind", "circular", "--graph.n", "5", "--rule.variant", "self_additive",
              "--run.initial_states", "1e308,1e308,-1e308,-1e308,0",
              "--run.max_iterations", "50")


class TestRunCommand:
    def test_writes_expected_files_and_nothing_else(self, tmp_path, monkeypatch):
        monkeypatch.chdir(tmp_path)
        out = tmp_path / "out"
        assert run_cli("run", *FAST, "--out", str(out)) == 0
        assert sorted(os.listdir(out)) == ["metrics.csv", "summary.txt", "trace.csv"]
        assert os.listdir(tmp_path) == ["out"]

    def test_summary_contents(self, tmp_path):
        out = tmp_path / "o"
        assert run_cli("run", *FAST, "--out", str(out)) == 0
        kv = read_kv(out / "summary.txt")
        assert kv["converged"] == "true"
        assert int(kv["rows"]) >= 2
        assert int(kv["rounds_to_tolerance"]) >= 1
        assert float(kv["max_drift"]) <= 1e-12
        assert int(kv["messages_total"]) > 0

    def test_rerun_is_byte_identical(self, tmp_path):
        args = ("run", "--graph.kind", "random_geometric", "--graph.n", "16",
                "--run.seed", "4", "--run.max_iterations", "40")
        a, b = tmp_path / "a", tmp_path / "b"
        assert run_cli(*args, "--out", str(a)) == 0
        assert run_cli(*args, "--out", str(b)) == 0
        for name in ("trace.csv", "metrics.csv", "summary.txt"):
            assert (a / name).read_bytes() == (b / name).read_bytes()

    @pytest.mark.parametrize("cells", [None, 7])
    @pytest.mark.parametrize("argv", [
        ("--preset", "random_geometric"),
        ("--preset", "circular_directed", "--run.max_iterations", "40"),
    ], ids=["random_geometric", "circular_directed"])
    def test_trace_csv_is_streamed_as_its_text(self, tmp_path, monkeypatch, argv, cells):
        # the run writes trace.csv row by row and never builds its text
        if cells is not None:  # blocks of one row each
            monkeypatch.setattr(analysis, "_BLOCK_CELLS", cells)
        text = analysis.trace_csv_text

        def unused(trace):
            raise AssertionError("trace_csv_text called on the run path")

        monkeypatch.setattr(analysis, "trace_csv_text", unused)
        out = tmp_path / "o"
        assert run_cli("run", *argv, "--dump-messages", "--out", str(out)) in (0, 3)
        cfgd = cli.resolve_config(cli.build_parser().parse_args(["run", *argv]))
        want = text(cli.execute_run(cfgd)).encode("utf-8")
        assert (out / "trace.csv").read_bytes() == want

    @pytest.mark.parametrize("step", [None, 7])
    @pytest.mark.parametrize("argv", [
        ("--preset", "random_geometric"),
        ("--preset", "circular_directed", "--run.max_iterations", "40"),
        ("--preset", "star", "--rule.variant", "pairwise_baseline",
         "--run.max_iterations", "2000"),
    ], ids=["random_geometric", "circular_directed", "pairwise"])
    def test_metrics_csv_is_written_a_block_at_a_time(self, tmp_path, monkeypatch, argv, step):
        # the run writes metrics.csv with one call of metrics_csv_text per
        # block of _WRITE_CHARS // 64 rows, and never builds the whole text
        if step is not None:  # blocks of 7 rows
            monkeypatch.setattr(analysis, "_WRITE_CHARS", 64 * step)
        step = analysis._WRITE_CHARS // 64
        text, calls = analysis.metrics_csv_text, []

        def block(trace, start=0, stop=None):
            if (start, stop) == (0, None):
                raise AssertionError("metrics_csv_text called for the whole trace")
            calls.append((start, stop))
            return text(trace, start, stop)

        monkeypatch.setattr(analysis, "metrics_csv_text", block)
        out = tmp_path / "o"
        assert run_cli("run", *argv, "--out", str(out)) in (0, 3)
        rows = int(read_kv(out / "summary.txt")["rows"])
        assert calls == [(a, a + step) for a in range(0, rows, step)]
        cfgd = cli.resolve_config(cli.build_parser().parse_args(["run", *argv]))
        want = text(cli.execute_run(cfgd)).encode("utf-8")
        assert (out / "metrics.csv").read_bytes() == want

    @pytest.mark.parametrize("dump", [False, True], ids=["plain", "messages"])
    @pytest.mark.parametrize("argv", [
        ("--preset", "random_geometric"),
        ("--preset", "circular", "--run.backend", "matrix", "--run.max_iterations", "60"),
        ("--preset", "star", "--rule.variant", "pairwise_baseline",
         "--run.max_iterations", "2000"),
    ], ids=["agent", "matrix", "pairwise"])
    def test_run_never_materializes_the_trace(self, tmp_path, monkeypatch, argv, dump):
        # the run reads its trace's rows a block at a time and never
        # builds the whole states or activations array
        flags = ("--dump-messages",) if dump else ()
        want = tmp_path / "want"
        assert run_cli("run", *argv, *flags, "--out", str(want)) in (0, 3)

        def whole(trace):
            raise AssertionError("a whole trace array built on the run path")

        monkeypatch.setattr(analysis.Trace, "states", property(whole))
        monkeypatch.setattr(analysis.Trace, "activations", property(whole))
        out = tmp_path / "o"
        assert run_cli("run", *argv, *flags, "--out", str(out)) in (0, 3)
        names = sorted(os.listdir(want))
        assert ("messages.csv" in names) == dump
        assert sorted(os.listdir(out)) == names
        for name in names:
            assert (out / name).read_bytes() == (want / name).read_bytes(), name

    @pytest.mark.parametrize("argv", [
        ("--preset", "random_geometric"),
        ("--preset", "circular", "--run.backend", "matrix", "--duty.p", "0.3",
         "--duty.q", "0.5"),
        ("--preset", "random_geometric", "--rule.variant", "pairwise_baseline"),
    ], ids=["agent", "matrix", "pairwise"])
    def test_one_budget_sets_every_chunk(self, tmp_path, monkeypatch, argv):
        # a budget of three rows of the presets' 50 nodes, set in analysis
        # alone: the recorder's judge, the drift sums and the trace writer
        # each take chunks of at most three rows, and no output changes
        want = tmp_path / "want"
        assert run_cli("run", *argv, "--out", str(want)) in (0, 3)
        heights = {"judge": [], "fsums": [], "trace_csv": []}
        judge, fsums = engine.disagreement_rows, analysis._row_fsums
        texts, row_blocks, writing = analysis.trace_csv_texts, analysis.Trace.row_blocks, []

        def judged(states, graph):
            heights["judge"].append(len(states))
            return judge(states, graph)

        def summed(chunks):
            return fsums(heights["fsums"].append(len(s)) or s for s in chunks)

        def read(trace):
            for k, states, acts in row_blocks(trace):
                if writing:
                    heights["trace_csv"].append(len(states))
                yield k, states, acts

        def written(trace):
            writing.append(True)
            yield from texts(trace)
            writing.clear()

        monkeypatch.setattr(analysis, "_BLOCK_CELLS", 3 * 50)
        monkeypatch.setattr(engine, "disagreement_rows", judged)
        monkeypatch.setattr(analysis, "_row_fsums", summed)
        monkeypatch.setattr(analysis.Trace, "row_blocks", read)
        monkeypatch.setattr(analysis, "trace_csv_texts", written)
        out = tmp_path / "o"
        assert run_cli("run", *argv, "--out", str(out)) in (0, 3)
        rows = int(read_kv(out / "summary.txt")["rows"])
        for stage, seen in heights.items():
            assert max(seen) == 3 and sum(seen) >= rows, stage
        for name in ("trace.csv", "metrics.csv", "summary.txt"):
            assert (out / name).read_bytes() == (want / name).read_bytes(), name

    def test_dump_messages(self, tmp_path):
        out = tmp_path / "o"
        assert run_cli("run", *FAST, "--dump-messages", "--out", str(out)) == 0
        rows = read_csv(out / "messages.csv")
        assert rows, "messages.csv came out empty"
        assert set(rows[0]) == {"time", "kind", "src", "dst", "payload"}
        assert {r["kind"] for r in rows} <= {"beacon", "wake_up",
                                             "state_request", "state_ack"}

    def test_non_convergence_exits_three(self, tmp_path):
        rc = run_cli("run", "--graph.kind", "chain", "--graph.n", "20",
                     "--run.max_iterations", "3", "--out", str(tmp_path / "o"))
        assert rc == 3

    def test_pairwise_rule_routes_to_its_runner(self, tmp_path):
        out = tmp_path / "o"
        rc = run_cli("run", "--graph.kind", "star", "--graph.n", "6",
                     "--rule.variant", "pairwise_baseline",
                     "--run.max_iterations", "400", "--out", str(out))
        assert rc == 0
        kv = read_kv(out / "summary.txt")
        assert kv["converged"] == "true"

    @pytest.mark.parametrize("preset", ["chain", "circular_directed"])
    def test_diverging_run_exits_two(self, tmp_path, capsys, preset):
        # chain overflows inside the run, circular_directed in metrics.csv,
        # which it leaves unwritten
        out = tmp_path / "o"
        rc = run_cli("run", "--preset", preset, "--rule.variant", "self_additive",
                     "--out", str(out))
        assert rc == 2
        assert sorted(os.listdir(out)) == ([] if preset == "chain" else ["trace.csv"])
        err = capsys.readouterr().err
        assert err.startswith("runtime error: ")
        assert err.count("\n") == 1

    @pytest.mark.parametrize("command, flags", [
        ("run", ()), ("run", ("--run.backend", "matrix")), ("compare", ()),
    ], ids=["agent", "matrix", "compare"])
    def test_states_at_both_infinities_exit_two(self, tmp_path, capsys, command, flags):
        # the states overflow to +inf and -inf, and a fold then meets both
        rc = run_cli(command, *INFINITIES, *flags, "--out", str(tmp_path / "o"))
        assert rc == 2
        err = capsys.readouterr().err
        assert err == "runtime error: the states diverged (-inf + inf in fsum)\n"

    def test_matrix_backend(self, tmp_path):
        out = tmp_path / "o"
        rc = run_cli("run", "--graph.kind", "complete", "--graph.n", "6",
                     "--run.backend", "matrix", "--run.max_iterations", "30",
                     "--out", str(out))
        assert rc == 0
        kv = read_kv(out / "summary.txt")
        assert kv["converged"] == "true"

    def test_matrix_backend_dumps_its_messages(self, tmp_path):
        argv = ["run", "--graph.kind", "chain", "--graph.n", "6", "--run.backend", "matrix",
                "--run.max_iterations", "30", "--out", str(tmp_path / "o")]
        assert run_cli(*argv, "--dump-messages") == 3
        kinds = Counter(row["kind"] for row in read_csv(tmp_path / "o" / "messages.csv"))
        trace = cli.execute_run(cli.resolve_config(cli.build_parser().parse_args(argv)))
        assert kinds == {k: v for k, v in trace.message_counts.items() if v}
        total = int(read_kv(tmp_path / "o" / "summary.txt")["messages_total"])
        assert total == sum(kinds.values()) > 0


class TestOneWriter:
    @pytest.mark.parametrize("argv", [
        ("run", *FAST, "--dump-messages"),
        ("sweep", *FAST, "--sweep.topologies", "star,chain", "--sweep.seeds", "0:2",
         "--jobs", "1"),
        ("compare", *FAST),
        ("spectra", *FAST),
    ], ids=["run", "sweep", "compare", "spectra"])
    def test_every_output_file_goes_through_write_text(self, tmp_path, monkeypatch, argv):
        # cli._write_text is the one writer: each file a command leaves in
        # --out was written by exactly one call of it
        write, paths = cli._write_text, []

        def recorded(path, texts):
            paths.append(os.fspath(path))
            write(path, texts)

        monkeypatch.setattr(cli, "_write_text", recorded)
        out = tmp_path / "o"
        assert run_cli(*argv, "--out", str(out)) == 0
        names = sorted(os.listdir(out))
        assert names
        assert sorted(paths) == [os.path.join(out, name) for name in names]

    @pytest.mark.parametrize("chars", [1, 5, 64])
    @pytest.mark.parametrize("lengths", [
        [], [0], [3], [1, 2, 3, 4, 5, 6, 7], [70, 0, 1, 200, 63, 64, 65, 2], [9] * 40,
    ], ids=str)
    def test_write_text_batches(self, tmp_path, monkeypatch, chars, lengths):
        # every write but the last holds at least _WRITE_CHARS characters
        # and fewer than that plus the longest text; the file is the texts
        # joined, UTF-8 encoded
        monkeypatch.setattr(analysis, "_WRITE_CHARS", chars)
        texts = ["".join("aé\n"[(k + i) % 3] for i in range(m))
                 for k, m in enumerate(lengths)]
        writes = []

        class Recording(io.TextIOWrapper):
            def write(self, text):
                writes.append(text)
                return super().write(text)

        def opened(path, *args, **kwargs):
            return Recording(io.FileIO(path, "w"), encoding=kwargs["encoding"],
                             newline=kwargs["newline"])

        monkeypatch.setattr(cli, "open", opened, raising=False)
        path = tmp_path / "out.txt"
        cli._write_text(path, iter(texts))
        assert path.read_bytes() == "".join(texts).encode("utf-8")
        assert "".join(writes) == "".join(texts)
        longest = max(map(len, texts), default=0)
        for text in writes[:-1]:
            assert chars <= len(text) < chars + longest

    def test_write_text_leaves_no_file_for_a_first_text_that_raises(self, tmp_path):
        def texts():
            raise OverflowError("no first text")
            yield ""

        path = tmp_path / "out.txt"
        with pytest.raises(OverflowError):
            cli._write_text(path, texts())
        assert not path.exists()


class TestConfigHandling:
    def test_file_then_flag_precedence(self, tmp_path):
        cfg = tmp_path / "sim.cfg"
        cfg.write_text("# comment line\ngraph.kind = star\ngraph.n = 6\n")
        out = tmp_path / "o"
        rc = run_cli("run", "--config", str(cfg), "--graph.n", "7",
                     "--run.max_iterations", "10", "--out", str(out))
        assert rc == 0
        ids = {row["node_id"] for row in read_csv(out / "trace.csv")}
        assert ids == {str(i) for i in range(7)}

    @pytest.mark.parametrize("key", ["graph.sides", "graph.directed", "graph.side",
                                     "graph.attempts", "duty.d_mean", "duty.t_c",
                                     "duty.mode", "duty.d_var"])
    def test_unknown_key_exits_one(self, tmp_path, capsys, key):
        cfg = tmp_path / "sim.cfg"
        cfg.write_text(f"{key} = 3\n")
        assert run_cli("run", "--config", str(cfg), "--out", str(tmp_path / "o")) == 1
        assert f"unknown key {key!r}" in capsys.readouterr().err

    def test_bad_value_exits_one(self, tmp_path):
        rc = run_cli("run", "--graph.kind", "star", "--graph.n", "about_fifty",
                     "--out", str(tmp_path / "o"))
        assert rc == 1

    def test_invalid_run_params_exit_one(self, tmp_path):
        rc = run_cli("run", *FAST, "--run.max_iterations", "0",
                     "--out", str(tmp_path / "o"))
        assert rc == 1

    def test_unknown_topology_exits_one(self, tmp_path):
        rc = run_cli("run", "--graph.kind", "torus", "--out", str(tmp_path / "o"))
        assert rc == 1

    def test_presets_resolve(self, tmp_path):
        assert set(PRESETS) == {"chain", "star", "circular", "circular_directed",
                                "random_geometric"}
        out = tmp_path / "o"
        assert run_cli("run", "--preset", "star", "--out", str(out)) == 0
        ids = {row["node_id"] for row in read_csv(out / "trace.csv")}
        assert len(ids) == 50

    @pytest.mark.parametrize("flag,value", [("run.tolerance", "nan"), ("run.tolerance", "inf")])
    def test_non_finite_timing_or_tolerance_exits_one(self, tmp_path, capsys, flag, value):
        rc = run_cli("run", *FAST, f"--{flag}", value, "--out", str(tmp_path / "o"))
        assert rc == 1
        err = capsys.readouterr().err
        assert err.startswith("config error: ")
        assert err.count("\n") == 1

    def test_removed_flag_is_unknown(self, tmp_path, capsys):
        with pytest.raises(SystemExit) as exc:
            run_cli("run", *FAST, "--duty.d_var", "0", "--out", str(tmp_path / "o"))
        assert exc.value.code == 2
        assert "unrecognized arguments: --duty.d_var" in capsys.readouterr().err

    # numpy's message for an array too large to allocate, and a bare MemoryError
    @pytest.mark.parametrize("exc, tail", [
        (MemoryError("Unable to allocate 74.5 GiB for an array with shape (10000000000,) "
                     "and data type int64"),
         " (Unable to allocate 74.5 GiB for an array with shape (10000000000,) "
         "and data type int64)"),
        (MemoryError(), "")], ids=["numpy", "bare"])
    def test_out_of_memory_exits_one(self, tmp_path, capsys, monkeypatch, exc, tail):
        def exhausted(*args, **kwargs):
            raise exc

        monkeypatch.setattr(cli, "build_topology", exhausted)
        assert run_cli("run", *FAST, "--out", str(tmp_path / "o")) == 1
        assert capsys.readouterr().err == f"config error: out of memory{tail}\n"

    @pytest.mark.parametrize("backend", ["pairwise", "bogus"])
    def test_backend_is_agent_or_matrix(self, tmp_path, capsys, backend):
        # the pairwise baseline is a rule, not a backend
        for rule in ("neighborhood_set", "pairwise_baseline"):
            rc = run_cli("run", *FAST, "--run.backend", backend, "--rule.variant", rule,
                         "--out", str(tmp_path / "o"))
            assert rc == 1
            err = capsys.readouterr().err
            assert err.startswith("config error: bad value for run.backend")
            assert err.count("\n") == 1

    @pytest.mark.parametrize("command", ["run", "compare", "spectra"])
    @pytest.mark.parametrize("flags", [("--duty.p", "0.3"), ("--duty.q", "0.5"),
                                       ("--duty.p", "0.3", "--duty.q", "0.5")])
    def test_duty_flags_on_the_agent_backend_exit_one(self, tmp_path, capsys, command, flags):
        # the agent backend runs no wake/sleep chain, so they would do nothing
        rc = run_cli(command, *FAST, *flags, "--out", str(tmp_path / "o"))
        assert rc == 1
        err = capsys.readouterr().err
        assert err.startswith("config error: duty.p and duty.q drive the matrix backend's ")
        assert err.count("\n") == 1

    # an input each check refuses, and the duty flags on a run and a
    # command that draw no wake/sleep chain
    @pytest.mark.parametrize("argv, err", [
        (("run", "--config", "{cfg}"), "{cfg}:2: expected key=value, got 'graph.n 8'"),
        (("sweep", "--sweep.topologies", "star,torus", "--jobs", "1"),
         "unknown sweep topology 'torus'"),
        (("sweep", "--sweep.topologies", "star", "--jobs", "0"), "--jobs must be >= 1, got 0"),
        (("sweep", "--sweep.topologies", "star", "--jobs", "-2"), "--jobs must be >= 1, got -2"),
        (("run", "--graph.kind", "random_geometric", "--graph.radius", "0"),
         "random_geometric needs a positive radius"),
        (("run", "--graph.kind", "random_geometric", "--graph.erdos_p", "1.5"),
         "erdos_p must lie in (0, 1], got 1.5"),
        (("run", *FAST, "--rule.variant", "bogus"), "unknown rule variant 'bogus'; "),
        (("run", "--preset", "circular", "--rule.variant", "pairwise_baseline",
          "--run.backend", "matrix", "--duty.p", "0.3", "--duty.q", "0.5"), DUTY_ERROR),
        (("spectra", "--preset", "circular", "--run.backend", "matrix", "--duty.p", "0.3"),
         DUTY_ERROR),
        (("run", "--preset", "chain", "--run.seed", "-1"), "run.seed must be >= 0, got -1"),
        (("run", "--preset", "chain", "--graph.seed", "-3"), "graph.seed must be >= 0, got -3"),
        (("run", "--graph.kind", "random_geometric", "--run.seed", "-2"),
         "run.seed must be >= 0, got -2"),
    ], ids=["config_line_without_equals", "sweep_topology", "sweep_jobs_zero",
            "sweep_jobs_negative", "radius_zero", "erdos_p_above_one",
            "rule_variant", "duty_on_the_matrix_baseline", "duty_on_matrix_spectra",
            "run_seed_negative", "graph_seed_negative", "graph_seed_from_negative_run_seed"])
    def test_bad_input_exits_one_with_one_line(self, tmp_path, capsys, argv, err):
        cfg = tmp_path / "sim.cfg"
        cfg.write_text("graph.kind = star\ngraph.n 8\n")
        argv = [a.format(cfg=cfg) for a in argv]
        assert run_cli(*argv, "--out", str(tmp_path / "o")) == 1
        stderr = capsys.readouterr().err
        assert stderr.startswith("config error: " + err.format(cfg=cfg))
        assert stderr.count("\n") == 1

    @pytest.mark.parametrize("flags, key, value", [
        (("--graph.kind", "random_geometric", "--graph.erdos_p", "0.3"), "graph.erdos_p", 0.3),
        (("--run.initial_states", "uniform"), "run.initial_states", None),
    ])
    def test_parsed_flags_run(self, tmp_path, flags, key, value):
        argv = ["run", "--graph.n", "12", "--run.max_iterations", "20", *flags]
        assert cli.resolve_config(cli.build_parser().parse_args(argv))[key] == value
        assert run_cli(*argv, "--out", str(tmp_path / "o")) in (0, 3)

    def test_duty_flags_at_one_or_on_the_matrix_backend_run(self, tmp_path):
        for flags in (("--duty.p", "1", "--duty.q", "1"),
                      ("--run.backend", "matrix", "--duty.p", "0.3", "--duty.q", "0.5")):
            assert run_cli("run", *FAST, *flags, "--out", str(tmp_path / "o")) in (0, 3)

    def test_non_utf8_config_exits_one(self, tmp_path, capsys):
        cfg = tmp_path / "sim.cfg"
        cfg.write_bytes(b"graph.n = 10\n# caf\xe9\n")
        assert run_cli("run", "--config", str(cfg), "--out", str(tmp_path / "o")) == 1
        err = capsys.readouterr().err
        assert err.startswith(f"config error: cannot read config file {cfg}: ")
        assert err.count("\n") == 1

    @pytest.mark.parametrize("command", ["run", "sweep", "compare", "spectra"])
    def test_unusable_out_exits_one(self, tmp_path, capsys, command):
        blocker = tmp_path / "f"
        blocker.write_text("kept\n")
        grid = ("--sweep.topologies", "star", "--sweep.seeds", "0", "--jobs", "1")
        for out in (blocker, blocker / "sub"):
            rc = run_cli(command, *FAST, *(grid if command == "sweep" else ()),
                         "--out", str(out))
            assert rc == 1
            err = capsys.readouterr().err
            assert err.startswith(f"config error: cannot create output directory {out}: ")
            assert err.count("\n") == 1
        assert blocker.read_text() == "kept\n"

    @pytest.mark.parametrize("command, name", [
        ("run", "trace.csv"), ("run", "metrics.csv"), ("run", "messages.csv"),
        ("run", "summary.txt"), ("sweep", "sweep.csv"), ("compare", "compare.csv"),
        ("spectra", "spectra.txt"), ("spectra", "spectra.csv")])
    def test_unopenable_output_file_exits_one(self, tmp_path, capsys, command, name):
        out = tmp_path / "o"
        (out / name).mkdir(parents=True)
        extra = {"run": ("--dump-messages",),
                 "sweep": ("--sweep.topologies", "star", "--sweep.seeds", "0", "--jobs", "1")}
        assert run_cli(command, *FAST, *extra.get(command, ()), "--out", str(out)) == 1
        err = capsys.readouterr().err
        assert err.startswith(f"config error: cannot open output file {out / name}: ")
        assert err.count("\n") == 1

    def test_unknown_preset_exits_one(self, tmp_path):
        assert run_cli("run", "--preset", "moebius", "--out", str(tmp_path / "o")) == 1

    def test_parse_seeds(self):
        assert _parse_seeds("0:4") == [0, 1, 2, 3]
        assert _parse_seeds("2, 5, 9") == [2, 5, 9]
        assert _parse_seeds("") == []


class TestSweepCommand:
    GRID = ("--graph.n", "8", "--run.max_iterations", "30",
            "--sweep.topologies", "star,complete",
            "--sweep.rules", "neighborhood_set,pure_neighbor",
            "--sweep.seeds", "0:3")

    def test_grid_cardinality_and_fields(self, tmp_path):
        out = tmp_path / "o"
        assert run_cli("sweep", *self.GRID, "--jobs", "1", "--out", str(out)) == 0
        rows = read_csv(out / "sweep.csv")
        assert len(rows) == 2 * 2 * 3
        combos = {(r["topology"], r["rule"], r["seed"]) for r in rows}
        assert len(combos) == 12
        assert all(r["status"] == "ok" for r in rows)

    def test_parallel_matches_serial(self, tmp_path):
        a, b = tmp_path / "a", tmp_path / "b"
        assert run_cli("sweep", *self.GRID, "--jobs", "1", "--out", str(a)) == 0
        assert run_cli("sweep", *self.GRID, "--jobs", "3", "--out", str(b)) == 0
        assert (a / "sweep.csv").read_bytes() == (b / "sweep.csv").read_bytes()

    def test_no_more_workers_than_tasks(self, tmp_path, serial_pool):
        grid = ("--graph.n", "6", "--sweep.topologies", "star", "--sweep.seeds", "0:3")
        a, b = tmp_path / "a", tmp_path / "b"
        assert run_cli("sweep", *grid, "--jobs", "50", "--out", str(a)) == 0
        assert serial_pool == [3]
        assert run_cli("sweep", *grid, "--jobs", "1", "--out", str(b)) == 0
        assert (a / "sweep.csv").read_bytes() == (b / "sweep.csv").read_bytes()

    def test_importing_the_cli_loads_no_process_pool(self):
        # run and spectra never start a pool, so they do not pay its import
        src = os.path.dirname(os.path.dirname(cli.__file__))
        code = "import sys, gossipsim.cli; print('concurrent.futures.process' in sys.modules)"
        done = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                              check=True, env={**os.environ, "PYTHONPATH": src})
        assert done.stdout == "False\n"

    def test_failed_cell_is_reported_not_fatal(self, tmp_path):
        out = tmp_path / "o"
        rc = run_cli("sweep", "--graph.n", "8", "--graph.radius", "0.01",
                     "--sweep.topologies", "star,random_geometric",
                     "--sweep.rules", "neighborhood_set",
                     "--sweep.seeds", "0", "--jobs", "1", "--out", str(out))
        assert rc == 0
        rows = read_csv(out / "sweep.csv")
        status = {r["topology"]: r["status"] for r in rows}
        assert status == {"star": "ok", "random_geometric": "error"}
        bad = next(r for r in rows if r["status"] == "error")
        assert bad["error"]

    # a duty.q other than 1 does nothing on the agent backend
    @pytest.mark.parametrize("flag,value", [("duty.p", "nan"), ("run.tolerance", "nan"),
                                            ("rule.alpha", "2"), ("duty.q", "0.5")])
    def test_invalid_run_value_gives_error_rows(self, tmp_path, flag, value):
        out = tmp_path / "o"
        rc = run_cli("sweep", "--graph.n", "6", "--sweep.topologies", "star,chain",
                     "--sweep.seeds", "0", f"--{flag}", value, "--jobs", "1",
                     "--out", str(out))
        assert rc == 0
        rows = read_csv(out / "sweep.csv")
        assert [r["status"] for r in rows] == ["error", "error"]
        assert all(r["error"].startswith("ConfigError") for r in rows)

    def test_negative_seeds_give_error_rows(self, tmp_path):
        # numpy's generators take no negative seed; the sweep still writes
        # a row for every cell
        out = tmp_path / "o"
        rc = run_cli("sweep", "--graph.n", "6", "--sweep.topologies", "star,random_geometric",
                     "--sweep.seeds=-2,-1,0", "--jobs", "1", "--out", str(out))
        assert rc == 0
        rows = read_csv(out / "sweep.csv")
        assert [(r["topology"], r["seed"], r["status"]) for r in rows] == [
            (t, s, "error" if s != "0" else "ok")
            for t in ("star", "random_geometric") for s in ("-2", "-1", "0")]
        for r in rows:
            if r["status"] == "error":
                assert r["error"] == f"ConfigError: run.seed must be >= 0, got {r['seed']}"

    def test_duty_flags_give_error_rows_for_the_cells_without_a_chain(self, tmp_path):
        out = tmp_path / "o"
        rc = run_cli("sweep", "--graph.n", "6", "--run.backend", "matrix", "--duty.p", "0.3",
                     "--sweep.topologies", "star,chain",
                     "--sweep.rules", "neighborhood_set,pairwise_baseline",
                     "--sweep.seeds", "0:2", "--jobs", "1", "--out", str(out))
        assert rc == 0
        rows = read_csv(out / "sweep.csv")
        assert len(rows) == 8
        for r in rows:
            if r["rule"] == "pairwise_baseline":
                assert r["status"] == "error"
                assert r["error"].startswith("ConfigError: " + DUTY_ERROR)
            else:
                assert (r["status"], r["error"]) == ("ok", "")

    def test_bad_seed_list_exits_one(self, tmp_path, capsys):
        rc = run_cli("sweep", "--sweep.topologies", "star", "--sweep.seeds", "x",
                     "--jobs", "1", "--out", str(tmp_path / "o"))
        assert rc == 1
        err = capsys.readouterr().err
        assert err.startswith("config error: bad value for sweep.seeds")
        assert err.count("\n") == 1

    def test_memory_error_is_an_error_row(self, tmp_path, monkeypatch):
        def exhausted(cfgd, collect_messages=False):
            if cfgd["run.seed"] == 1:
                raise MemoryError
            return real(cfgd, collect_messages)

        real = cli.execute_run
        monkeypatch.setattr(cli, "execute_run", exhausted)
        out = tmp_path / "o"
        rc = run_cli("sweep", "--graph.n", "6", "--sweep.topologies", "star",
                     "--sweep.seeds", "0:3", "--jobs", "1", "--out", str(out))
        assert rc == 0
        rows = read_csv(out / "sweep.csv")
        assert [r["status"] for r in rows] == ["ok", "error", "ok"]
        assert rows[1]["error"].startswith("MemoryError")

    def test_diverging_run_is_an_error_row(self, tmp_path):
        out = tmp_path / "o"
        rc = run_cli("sweep", "--sweep.rules", "self_additive,neighborhood_set",
                     "--sweep.topologies", "chain", "--graph.n", "50",
                     "--run.max_iterations", "1200", "--sweep.seeds", "0:1",
                     "--jobs", "1", "--out", str(out))
        assert rc == 0
        rows = read_csv(out / "sweep.csv")
        assert [r["status"] for r in rows] == ["error", "ok"]
        assert rows[0]["error"].startswith("OverflowError")

    def test_states_at_both_infinities_are_error_rows(self, tmp_path):
        out = tmp_path / "o"
        rc = run_cli("sweep", *INFINITIES, "--sweep.topologies", "circular",
                     "--sweep.rules", "self_additive", "--sweep.seeds", "0:2",
                     "--jobs", "1", "--out", str(out))
        assert rc == 0
        rows = read_csv(out / "sweep.csv")
        assert [r["error"] for r in rows] == ["OverflowError: -inf + inf in fsum"] * 2
        assert [r["status"] for r in rows] == ["error"] * 2

    @pytest.mark.parametrize("flag, value", [
        ("--sweep.seeds", ""), ("--sweep.seeds", "5:2"), ("--sweep.topologies", ","),
    ], ids=["empty_seed_list", "empty_seed_range", "empty_topology_list"])
    def test_empty_grid_exits_one(self, tmp_path, capsys, flag, value):
        out = tmp_path / "o"
        rc = run_cli("sweep", "--sweep.topologies", "star",
                     "--sweep.rules", "neighborhood_set", "--sweep.seeds", "0",
                     flag, value, "--jobs", "1", "--out", str(out))
        assert rc == 1
        assert capsys.readouterr().err.startswith("config error: empty sweep grid")
        assert not out.exists()

    def test_graph_seed_is_honoured(self, tmp_path):
        # every row runs on the graph of seed 5, whatever its run seed
        out = tmp_path / "o"
        common = ("--graph.n", "20", "--graph.seed", "5")
        assert run_cli("sweep", *common, "--sweep.topologies", "random_geometric",
                       "--sweep.seeds", "0:3", "--jobs", "1", "--out", str(out)) == 0
        rows = read_csv(out / "sweep.csv")
        assert [r["seed"] for r in rows] == ["0", "1", "2"]
        for row in rows:
            one = tmp_path / f"run{row['seed']}"
            assert run_cli("run", *common, "--graph.kind", "random_geometric",
                           "--run.seed", row["seed"], "--out", str(one)) in (0, 3)
            summary = read_kv(one / "summary.txt")
            assert summary == {k: row[k] for k in summary}

    def test_directed_ring_pseudo_topology(self, tmp_path):
        out = tmp_path / "o"
        rc = run_cli("sweep", "--graph.n", "6", "--run.max_iterations", "60",
                     "--sweep.topologies", "circular_directed",
                     "--sweep.rules", "neighborhood_set",
                     "--sweep.seeds", "0", "--jobs", "1", "--out", str(out))
        assert rc == 0
        rows = read_csv(out / "sweep.csv")
        assert rows[0]["topology"] == "circular_directed"
        assert rows[0]["status"] == "ok"


class TestCompareCommand:
    def test_two_methods_reported(self, tmp_path):
        out = tmp_path / "o"
        rc = run_cli("compare", "--graph.kind", "circular", "--graph.n", "10",
                     "--run.max_iterations", "80", "--out", str(out))
        assert rc == 0
        rows = read_csv(out / "compare.csv")
        assert [r["method"] for r in rows] == ["protocol", "pairwise"]
        assert rows[0]["rule"] == "neighborhood_set"
        assert rows[1]["rule"] == "pairwise_baseline"
        assert all(int(r["messages_total"]) > 0 for r in rows)

    def test_matrix_protocol_counts_its_messages(self, tmp_path):
        rc = run_cli("compare", "--graph.kind", "circular", "--graph.n", "10",
                     "--run.backend", "matrix", "--run.max_iterations", "30",
                     "--out", str(tmp_path / "o"))
        assert rc == 0
        protocol, _ = read_csv(tmp_path / "o" / "compare.csv")
        assert int(protocol["messages_total"]) > 0

    def test_duty_flags_drive_the_matrix_protocol_only(self, tmp_path):
        # the pairwise side draws no chain, so compare resets its flags
        common = ("--graph.kind", "circular", "--graph.n", "10", "--run.backend", "matrix",
                  "--run.max_iterations", "30")
        duty = ("--duty.p", "0.3", "--duty.q", "0.5")
        assert run_cli("compare", *common, *duty, "--out", str(tmp_path / "a")) == 0
        assert run_cli("compare", *common, "--out", str(tmp_path / "b")) == 0
        assert run_cli("run", *common, *duty, "--out", str(tmp_path / "r")) in (0, 3)
        protocol, pairwise = read_csv(tmp_path / "a" / "compare.csv")
        assert pairwise == read_csv(tmp_path / "b" / "compare.csv")[1]
        summary = read_kv(tmp_path / "r" / "summary.txt")
        assert {k: protocol[k] for k in summary} == summary


class TestSpectraCommand:
    def test_undirected_reports_rule_and_baseline(self, tmp_path):
        out = tmp_path / "o"
        rc = run_cli("spectra", "--graph.kind", "star", "--graph.n", "6",
                     "--out", str(out))
        assert rc == 0
        rows = read_csv(out / "spectra.csv")
        assert [r["label"] for r in rows] == ["expected_neighborhood_set",
                                              "expected_pairwise_baseline"]
        assert all(r["certified_average"] == "true" for r in rows)
        text = (out / "spectra.txt").read_text()
        assert "label=expected_neighborhood_set" in text
        assert "certified_average=true" in text

    def test_directed_ring_skips_pairwise(self, tmp_path):
        out = tmp_path / "o"
        rc = run_cli("spectra", "--graph.kind", "circular_directed", "--graph.n", "6",
                     "--out", str(out))
        assert rc == 0
        rows = read_csv(out / "spectra.csv")
        assert len(rows) == 1
        assert rows[0]["label"] == "expected_neighborhood_set"
        assert rows[0]["certified_consensus"] == "true"
