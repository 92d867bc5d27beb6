"""Tests for the command-line interface."""

import pytest

from repro.cli import build_parser, main


class TestParser:
    def test_requires_command(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args([])

    def test_known_commands(self):
        parser = build_parser()
        for command in ("tables", "swaps", "codesign", "headline", "sensitivity", "chevron"):
            args = parser.parse_args([command])
            assert args.command == command

    def test_run_command_arguments(self):
        args = build_parser().parse_args(
            ["run", "GHZ", "10", "--topology", "Tree", "--basis", "siswap"]
        )
        assert args.workload == "GHZ" and args.size == 10
        assert args.topology == "Tree"

    def test_unknown_workload_rejected(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["run", "Shor", "10"])

    def test_layout_and_routing_choices_come_from_pass_registry(self):
        from repro.transpiler import available_passes

        parser = build_parser()
        run_parser = parser._subparsers._group_actions[0].choices["run"]
        by_dest = {action.dest: action for action in run_parser._actions}
        assert list(by_dest["layout"].choices) == available_passes("layout")
        assert list(by_dest["routing"].choices) == available_passes("routing")
        assert "noise_aware" in by_dest["routing"].choices

    def test_bad_routing_name_errors_listing_registered_options(self, capsys):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["run", "GHZ", "8", "--routing", "teleport"])
        message = capsys.readouterr().err
        assert "teleport" in message
        assert "sabre" in message and "noise_aware" in message

    def test_run_level_option(self, capsys):
        assert main(["run", "GHZ", "8", "--level", "2"]) == 0
        assert "total_swaps" in capsys.readouterr().out
        with pytest.raises(SystemExit):
            build_parser().parse_args(["run", "GHZ", "8", "--level", "9"])

    def test_level_choices_come_from_preset_table(self):
        from repro.transpiler import available_levels

        run_parser = build_parser()._subparsers._group_actions[0].choices["run"]
        by_dest = {action.dest: action for action in run_parser._actions}
        assert list(by_dest["level"].choices) == available_levels()

    def test_run_topology_name_normalised(self, capsys):
        assert main(["run", "GHZ", "8", "--topology", "corral-1-1"]) == 0
        assert "Corral1,1" in capsys.readouterr().out


class TestExecution:
    def test_tables_command(self, capsys):
        assert main(["tables"]) == 0
        output = capsys.readouterr().out
        assert "Table 1" in output and "Corral1,1" in output

    def test_run_command(self, capsys):
        assert main(["run", "GHZ", "8", "--topology", "Corral1,1", "--basis", "siswap"]) == 0
        output = capsys.readouterr().out
        assert "total_swaps" in output

    def test_swaps_command_with_custom_grid(self, capsys, tmp_path):
        csv_path = tmp_path / "swaps.csv"
        code = main(
            [
                "swaps",
                "--scale",
                "small",
                "--sizes",
                "6",
                "--workloads",
                "GHZ",
                "--csv",
                str(csv_path),
            ]
        )
        assert code == 0
        assert "GHZ" in capsys.readouterr().out
        assert csv_path.exists()
        assert "total_swaps" in csv_path.read_text().splitlines()[0]

    def test_codesign_command(self, capsys):
        assert main(["codesign", "--scale", "small", "--sizes", "6", "--workloads", "GHZ"]) == 0
        assert "Corral1,1-siswap" in capsys.readouterr().out

    def test_chevron_command(self, capsys):
        assert main(["chevron"]) == 0
        assert "exchange period" in capsys.readouterr().out


class TestUsageErrors:
    """Bad names, sizes and oversized workloads exit 2 before compiling."""

    @pytest.fixture(autouse=True)
    def _no_compile(self, monkeypatch):
        import repro.cli

        def refuse(*args, **kwargs):
            raise AssertionError("a usage error must be reported before compiling")

        for entry_point in (
            "run_point",
            "transpile",
            "swap_study",
            "codesign_study",
            "scheduling_study",
            "run_sweep_sharded",
            "headline_study",
            "reliability_ranking",
        ):
            monkeypatch.setattr(repro.cli, entry_point, refuse)

    def _usage_error(self, capsys, argv):
        with pytest.raises(SystemExit) as excinfo:
            main(argv)
        assert excinfo.value.code == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        lines = captured.err.splitlines()
        assert len(lines) == 1
        return lines[0]

    def _argparse_error(self, capsys, argv):
        """Exit 2 with argparse's usage block; returns its last (error) line."""
        with pytest.raises(SystemExit) as excinfo:
            main(argv)
        assert excinfo.value.code == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "Traceback" not in captured.err
        return captured.err.splitlines()[-1]

    @pytest.mark.parametrize(
        "argv",
        [
            ["run", "GHZ", "8", "--topology", "NoSuchTopo"],
            ["run", "GHZ", "8", "--topology", "Corral1,1", "--scale", "large"],
            ["qasm", "GHZ", "8", "--transpile-to", "NoSuchTopo"],
            ["sweep", "--checkpoint-dir", "CHECKPOINT", "--topologies", "Tree", "NoSuchTopo"],
        ],
    )
    def test_unknown_topology(self, capsys, tmp_path, argv):
        argv = [str(tmp_path / "ckpt") if arg == "CHECKPOINT" else arg for arg in argv]
        line = self._usage_error(capsys, argv)
        assert line.startswith(f"repro {argv[0]}: unknown topology ")
        assert "available:" in line
        assert not (tmp_path / "ckpt").exists()

    @pytest.mark.parametrize(
        "argv",
        [
            ["run", "QuantumVolume", "32", "--topology", "Corral1,1"],
            ["qasm", "GHZ", "32", "--transpile-to", "Corral1,1"],
        ],
    )
    def test_workload_larger_than_device(self, capsys, argv):
        line = self._usage_error(capsys, argv)
        assert line == (
            f"repro {argv[0]}: a 32-qubit workload does not fit topology 'Corral1,1', "
            "which has 16 qubits at scale 'small'"
        )

    @pytest.mark.parametrize(
        "argv, message",
        [
            (["run", "GHZ", "8", "--basis", "nosuch"], "unknown basis gate 'nosuch'"),
            (
                ["sweep", "--checkpoint-dir", "CHECKPOINT", "--topologies", "Tree",
                 "--basis", "nosuch"],
                "unknown basis gate 'nosuch'",
            ),
            # Without --topologies the design points fix the basis, so a
            # --basis of any name would be ignored.
            *[
                (
                    ["sweep", "--checkpoint-dir", "CHECKPOINT", "--basis", basis],
                    "--basis needs --topologies (each default design point has its own basis)",
                )
                for basis in ("nosuch", "cx")
            ],
        ],
    )
    def test_unknown_basis(self, capsys, tmp_path, argv, message):
        argv = [str(tmp_path / "ckpt") if arg == "CHECKPOINT" else arg for arg in argv]
        assert self._usage_error(capsys, argv) == f"repro {argv[0]}: {message}"
        assert not (tmp_path / "ckpt").exists()

    @pytest.mark.parametrize(
        "argv",
        [
            ["swaps", "--workloads", "NoSuch", "--sizes", "8"],
            ["codesign", "--workloads", "NoSuch", "--sizes", "8"],
            ["schedule", "--workloads", "GHZ", "NoSuch"],
            ["sweep", "--checkpoint-dir", "CHECKPOINT", "--workloads", "NoSuch"],
        ],
    )
    def test_unknown_workload_in_list(self, capsys, tmp_path, argv):
        argv = [str(tmp_path / "ckpt") if arg == "CHECKPOINT" else arg for arg in argv]
        with pytest.raises(SystemExit) as excinfo:
            main(argv)
        assert excinfo.value.code == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "Traceback" not in captured.err
        assert captured.err.splitlines()[-1].startswith(
            f"repro {argv[0]}: error: argument --workloads: invalid choice: 'NoSuch'"
        )
        assert not (tmp_path / "ckpt").exists()

    @pytest.mark.parametrize("sizes", [["500"], ["1"], ["16", "85"], []])
    def test_headline_size_out_of_range(self, capsys, sizes):
        line = self._usage_error(capsys, ["headline", "--sizes", *sizes])
        assert line.startswith(
            "repro headline: --sizes must be one or more of 2..84 "
            "(Quantum Volume on Heavy-Hex and Hypercube); got "
        )

    @pytest.mark.parametrize(
        "argv",
        [
            ["run", "QFT", "0"],
            ["run", "QFT", "-3"],
            ["qasm", "QFT", "0"],
            ["reliability", "QFT", "0"],
        ],
    )
    def test_width_below_one(self, capsys, argv):
        line = self._argparse_error(capsys, argv)
        assert line == f"repro {argv[0]}: error: argument size: must be a positive integer"

    @pytest.mark.parametrize(
        "argv",
        [
            ["swaps", "--sizes", "0"],
            ["schedule", "--sizes", "0"],
            ["sweep", "--checkpoint-dir", "CHECKPOINT", "--sizes", "0"],
        ],
    )
    def test_sizes_below_one(self, capsys, tmp_path, argv):
        argv = [str(tmp_path / "ckpt") if arg == "CHECKPOINT" else arg for arg in argv]
        line = self._argparse_error(capsys, argv)
        assert line == f"repro {argv[0]}: error: argument --sizes: must be a positive integer"
        assert not (tmp_path / "ckpt").exists()

    def test_negative_seed(self, capsys):
        line = self._argparse_error(capsys, ["run", "QFT", "8", "--seed", "-1"])
        assert line == "repro run: error: argument --seed: must be a non-negative integer"

    @pytest.mark.parametrize(
        "verb",
        [
            ["tables"],
            ["swaps"],
            ["codesign"],
            ["headline"],
            ["sensitivity"],
            ["chevron"],
            ["frequency"],
            ["schedule"],
            ["reliability", "QFT", "6"],
            ["sweep", "--checkpoint-dir", "CHECKPOINT"],
        ],
    )
    @pytest.mark.parametrize(
        "option, value, message",
        [
            ("--task-timeout", "0", "must be a positive number"),
            ("--task-timeout", "-1", "must be a positive number"),
            ("--task-timeout", "nan", "must be a positive number"),
            ("--max-retries", "-1", "must be a non-negative integer"),
        ],
    )
    def test_bad_runtime_option(self, capsys, tmp_path, verb, option, value, message):
        argv = [str(tmp_path / "ckpt") if arg == "CHECKPOINT" else arg for arg in verb]
        line = self._argparse_error(capsys, [*argv, option, value])
        assert line == f"repro {verb[0]}: error: argument {option}: {message}"
        assert not (tmp_path / "ckpt").exists()

    @pytest.mark.parametrize(
        "option, value, message",
        [
            ("--two-qubit-fidelity", "1.5", "gate fidelities must lie in (0, 1]"),
            ("--two-qubit-fidelity", "nan", "gate fidelities must lie in (0, 1]"),
            ("--t1-us", "0", "T1 and T2 must be positive"),
            ("--t1-us", "nan", "T1 and T2 must be positive"),
            ("--t2-us", "300", "physical relaxation requires T2 <= 2 * T1"),
        ],
    )
    def test_reliability_model_rejects_the_parameters(self, capsys, option, value, message):
        line = self._usage_error(capsys, ["reliability", "QFT", "6", option, value])
        assert line == f"repro reliability: {message}"

    @pytest.mark.parametrize(
        "option, value, message",
        [
            ("--max-bytes", "-1", "must be a non-negative integer"),
            ("--max-age-hours", "-1", "must be a non-negative number"),
            ("--max-age-hours", "nan", "must be a non-negative number"),
        ],
    )
    def test_negative_cache_gc_budget_keeps_every_record(
        self, capsys, tmp_path, option, value, message
    ):
        from repro.runtime import PersistentResultCache

        cache = PersistentResultCache(tmp_path)
        for key in ("a", "b"):
            cache.put(key, {"key": key})
        cache.close()
        line = self._argparse_error(
            capsys, ["cache", "gc", "--cache-dir", str(tmp_path), option, value]
        )
        assert line == f"repro cache gc: error: argument {option}: {message}"
        assert PersistentResultCache(tmp_path).disk_entries() == 2

    @pytest.mark.parametrize("verb", ["info", "gc", "verify"])
    def test_cache_without_a_directory(self, capsys, monkeypatch, verb):
        monkeypatch.delenv("REPRO_CACHE_DIR", raising=False)
        line = self._usage_error(capsys, ["cache", verb])
        assert line == "repro cache: no cache directory given (use --cache-dir or REPRO_CACHE_DIR)"

    @pytest.mark.parametrize("port", ["99999", "65536", "-1"])
    def test_serve_port_out_of_range(self, capsys, port):
        line = self._argparse_error(capsys, ["serve", "--port", port])
        assert line == "repro serve: error: argument --port: must be a TCP port in 0..65535"

    @pytest.mark.parametrize(
        "argv, message",
        [
            (["run", "Adder", "3"], "the smallest CDKM adder uses four qubits"),
            (["run", "QuantumVolume", "1"], "Quantum Volume circuits need at least two qubits"),
            (["qasm", "Adder", "2"], "the smallest CDKM adder uses four qubits"),
            (["reliability", "Adder", "3"], "the smallest CDKM adder uses four qubits"),
        ],
    )
    def test_width_the_workload_rejects(self, capsys, argv, message):
        assert self._usage_error(capsys, argv) == f"repro {argv[0]}: {message}"

    @pytest.mark.parametrize(
        "argv",
        [
            ["swaps", "--sizes", "500"],
            ["codesign", "--sizes", "500"],
            ["schedule", "--sizes", "500"],
            ["sweep", "--checkpoint-dir", "CHECKPOINT", "--sizes", "500"],
        ],
    )
    def test_no_size_fits_any_design_point(self, capsys, tmp_path, argv):
        argv = [str(tmp_path / "ckpt") if arg == "CHECKPOINT" else arg for arg in argv]
        line = self._usage_error(capsys, argv)
        assert line == (
            f"repro {argv[0]}: no size in --sizes [500] fits a selected design point "
            "(at most 20 qubits at scale 'small')"
        )
        assert not (tmp_path / "ckpt").exists()

    @pytest.mark.parametrize(
        "argv",
        [
            ["swaps", "--sizes", "2", "--workloads", "Adder"],
            ["codesign", "--sizes", "2", "--workloads", "Adder"],
            ["schedule", "--sizes", "2", "--workloads", "Adder"],
            ["sweep", "--checkpoint-dir", "CHECKPOINT", "--sizes", "2", "--workloads", "Adder"],
            ["swaps", "--sizes", "8", "3", "--workloads", "GHZ", "Adder"],
        ],
    )
    def test_grid_width_the_workload_rejects(self, capsys, tmp_path, argv):
        argv = [str(tmp_path / "ckpt") if arg == "CHECKPOINT" else arg for arg in argv]
        with pytest.raises(SystemExit) as excinfo:
            main(argv)
        assert excinfo.value.code == 2
        captured = capsys.readouterr()
        assert "Traceback" not in captured.err
        assert captured.out == ""
        assert captured.err.splitlines() == [
            f"repro {argv[0]}: the smallest CDKM adder uses four qubits"
        ]
        assert not (tmp_path / "ckpt").exists()

    @pytest.mark.parametrize(
        "command, study", [("swaps", "swap_study"), ("codesign", "codesign_study")]
    )
    def test_grid_check_and_study_share_one_grid(self, monkeypatch, command, study):
        """The default grid is decided once; the check builds one instance per workload."""
        import repro.cli
        from repro.experiments.swap_study import default_sizes
        from repro.workloads import PAPER_WORKLOADS

        built, studied = [], {}

        class Studied(Exception):
            pass

        def record_study(scale, *args, workloads, sizes, **kwargs):
            studied.update(workloads=workloads, sizes=sizes)
            raise Studied

        monkeypatch.setattr(
            repro.cli, "build_workload", lambda name, size, seed: built.append((name, size))
        )
        monkeypatch.setattr(repro.cli, study, record_study)
        with pytest.raises(Studied):
            main([command])
        sizes = list(default_sizes("small"))
        assert studied == {"workloads": list(PAPER_WORKLOADS), "sizes": sizes}
        assert built == [(workload, min(sizes)) for workload in PAPER_WORKLOADS]


class TestServeBindFailure:
    """A server that cannot listen exits 1 with one line; serving errors still raise."""

    def _exit(self, capsys, argv):
        with pytest.raises(SystemExit) as excinfo:
            main(argv)
        captured = capsys.readouterr()
        assert captured.out == ""
        return excinfo.value.code

    def test_port_in_use(self, capsys):
        import socket

        with socket.socket() as holder:
            holder.bind(("127.0.0.1", 0))
            holder.listen()
            port = holder.getsockname()[1]
            code = self._exit(
                capsys, ["serve", "--serial", "--no-cache", "--port", str(port)]
            )
        assert code.startswith(f"repro serve: cannot listen on 127.0.0.1:{port}: ")
        assert len(code.splitlines()) == 1

    def test_unresolvable_host(self, capsys, monkeypatch):
        import asyncio
        import socket

        async def unresolvable(*args, **kwargs):
            raise socket.gaierror(-2, "Name or service not known")

        monkeypatch.setattr(asyncio, "start_server", unresolvable)
        code = self._exit(
            capsys, ["serve", "--serial", "--no-cache", "--host", "no-such-host", "--port", "0"]
        )
        assert code == (
            "repro serve: cannot listen on no-such-host:0: [Errno -2] Name or service not known"
        )

    def test_error_while_serving_is_not_a_bind_failure(self, monkeypatch):
        from repro.server import ReproServer

        async def fail_while_serving(server):
            await server.shutdown()
            raise OSError("disk full")

        monkeypatch.setattr(ReproServer, "serve_forever", fail_while_serving)
        # --port 0 (an ephemeral port, as perfbench's serve-mixed uses) binds.
        with pytest.raises(OSError, match="^disk full$"):
            main(["serve", "--serial", "--no-cache", "--port", "0"])


class TestRunnerLifetime:
    """``main`` closes the runner it built and that runner's cache."""

    @pytest.fixture
    def built(self, monkeypatch):
        """Runners built by ``main``, and every cache whose ``close`` ran."""
        import repro.cli
        from repro.runtime import PersistentResultCache

        monkeypatch.delenv("REPRO_CACHE_MAX_BYTES", raising=False)
        runners, closed = [], []
        build_runner = repro.cli._runner_from_args
        close_cache = PersistentResultCache.close

        def spy_runner(args):
            runners.append(build_runner(args))
            return runners[-1]

        def spy_close(cache):
            closed.append(cache)
            close_cache(cache)

        monkeypatch.setattr(repro.cli, "_runner_from_args", spy_runner)
        monkeypatch.setattr(PersistentResultCache, "close", spy_close)
        return runners, closed

    def test_parallel_run_leaves_no_pool_and_no_open_segment(self, built, tmp_path):
        runners, closed = built
        argv = ["swaps", "--sizes", "4", "--workloads", "GHZ", "--cache-dir", str(tmp_path)]
        assert main(argv + ["--parallel", "--workers", "2"]) == 0
        (runner,) = runners
        assert not runner.pool_alive
        assert any(cache is runner.result_cache for cache in closed)

    def test_command_that_exits_still_closes_the_cache(self, built, tmp_path):
        runners, closed = built
        argv = ["sweep", "--checkpoint-dir", str(tmp_path / "ckpt"), "--workloads", "GHZ"]
        argv += ["--topologies", "Corral1,1", "--cache-dir", str(tmp_path / "cache")]
        assert main(argv + ["--sizes", "4"]) == 0
        with pytest.raises(SystemExit, match="repro sweep: "):
            main(argv + ["--sizes", "5"])  # another grid in the same checkpoint dir
        assert len(runners) == 2
        assert any(cache is runners[1].result_cache for cache in closed)
