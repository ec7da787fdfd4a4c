"""Command line interface: subcommands, config layering, exit codes."""

import csv
import os
from collections import Counter

import pytest

from gossipsim import cli
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
        # chain overflows inside the run, circular_directed in metrics.csv
        rc = run_cli("run", "--preset", preset, "--rule.variant", "self_additive",
                     "--out", str(tmp_path / "o"))
        assert rc == 2
        err = capsys.readouterr().err
        assert err.startswith("runtime error: ")
        assert err.count("\n") == 1

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
                                     "duty.mode"])
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

    @pytest.mark.parametrize("flag,value", [("duty.d_var", "inf"), ("run.tolerance", "nan"),
                                            ("run.tolerance", "inf")])
    def test_non_finite_timing_or_tolerance_exits_one(self, tmp_path, capsys, flag, value):
        rc = run_cli("run", *FAST, f"--{flag}", value, "--out", str(tmp_path / "o"))
        assert rc == 1
        err = capsys.readouterr().err
        assert err.startswith("config error: ")
        assert err.count("\n") == 1

    # the first case fits one cycle in int64 but not max_iterations of them
    @pytest.mark.parametrize("flags", [("--duty.d_var", "1e17", "--run.max_iterations", "100"),
                                       ("--duty.d_var", "1e308"), ("--duty.d_var", "1e300")])
    def test_timing_overflow_exits_one(self, tmp_path, capsys, flags):
        rc = run_cli("run", "--graph.kind", "star", "--graph.n", "5",
                     "--run.max_iterations", "3", *flags, "--out", str(tmp_path / "o"))
        assert rc == 1
        err = capsys.readouterr().err
        assert err.startswith("config error: ")
        assert err.count("\n") == 1

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

    @pytest.mark.parametrize("flag,value", [("duty.d_var", "nan"), ("run.tolerance", "nan"),
                                            ("rule.alpha", "2")])
    def test_invalid_run_value_gives_error_rows(self, tmp_path, flag, value):
        out = tmp_path / "o"
        rc = run_cli("sweep", "--graph.n", "6", "--sweep.topologies", "star,chain",
                     "--sweep.seeds", "0", f"--{flag}", value, "--jobs", "1",
                     "--out", str(out))
        assert rc == 0
        rows = read_csv(out / "sweep.csv")
        assert [r["status"] for r in rows] == ["error", "error"]
        assert all(r["error"].startswith("ConfigError") for r in rows)

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
