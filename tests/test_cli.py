"""Tests for the command-line interface (python -m repro)."""

import csv
import threading
import time

import pytest

from repro.cli import main
from repro.datasets.io import load_instance
from repro.games import FGTSolver
from repro.games.base import equity_copy
from repro.parallel import solve_instance


class TestListExperiments:
    def test_lists_all_figures(self, capsys):
        assert main(["list-experiments"]) == 0
        out = capsys.readouterr().out
        for fig in range(2, 13):
            assert f"fig{fig}:" in out


class TestGenerate:
    def test_gm_generation(self, tmp_path, capsys):
        code = main(
            [
                "generate",
                str(tmp_path / "gm"),
                "--dataset",
                "gm",
                "--tasks",
                "50",
                "--workers",
                "6",
                "--delivery-points",
                "12",
                "--seed",
                "1",
            ]
        )
        assert code == 0
        assert (tmp_path / "gm" / "tasks.csv").exists()
        assert "|S|=50" in capsys.readouterr().out

    def test_syn_generation(self, tmp_path, capsys):
        code = main(
            [
                "generate",
                str(tmp_path / "syn"),
                "--dataset",
                "syn",
                "--centers",
                "2",
                "--tasks",
                "200",
                "--workers",
                "10",
                "--delivery-points",
                "30",
            ]
        )
        assert code == 0
        assert "|DC|=2" in capsys.readouterr().out


class TestSolve:
    @pytest.fixture
    def instance_dir(self, tmp_path):
        main(
            [
                "generate",
                str(tmp_path / "inst"),
                "--dataset",
                "gm",
                "--tasks",
                "60",
                "--workers",
                "8",
                "--delivery-points",
                "15",
                "--seed",
                "2",
            ]
        )
        return tmp_path / "inst"

    @pytest.mark.parametrize("algorithm", ["gta", "fgt", "iegt", "random"])
    def test_each_algorithm_runs(self, instance_dir, capsys, algorithm):
        code = main(
            ["solve", str(instance_dir), "--algorithm", algorithm, "--epsilon", "0.6"]
        )
        assert code == 0
        out = capsys.readouterr().out
        assert "payoff difference" in out
        assert "average payoff" in out

    def test_assignment_csv_written(self, instance_dir, tmp_path, capsys):
        target = tmp_path / "out" / "assignment.csv"
        code = main(
            [
                "solve",
                str(instance_dir),
                "--algorithm",
                "gta",
                "--epsilon",
                "0.6",
                "--output",
                str(target),
            ]
        )
        assert code == 0
        with target.open(newline="") as fh:
            rows = list(csv.DictReader(fh))
        assert len(rows) == 8
        assert set(rows[0]) == {"worker_id", "center_id", "route", "payoff"}

    def test_solve_deterministic(self, instance_dir, capsys):
        main(["solve", str(instance_dir), "--algorithm", "iegt", "--seed", "5"])
        first = capsys.readouterr().out
        main(["solve", str(instance_dir), "--algorithm", "iegt", "--seed", "5"])
        second = capsys.readouterr().out
        assert first == second

    def test_equity_mode_solves_the_equity_copy(self, instance_dir, tmp_path, capsys):
        # FGT writes the routes solve_instance finds with the equity copy
        # of the solver (zero baselines, the given amplification).
        target = tmp_path / "equity.csv"
        args = ["solve", str(instance_dir), "--algorithm", "fgt", "--epsilon", "0.6"]
        args += ["--seed", "3", "--equity-mode", "--equity-strength", "4.0"]
        assert main(args + ["--output", str(target)]) == 0
        solver = equity_copy(FGTSolver(epsilon=0.6), 4.0)
        assert solver.equity_mode and solver.equity_strength == 4.0

        def routes(solver):
            solution = solve_instance(
                load_instance(instance_dir), solver, epsilon=0.6, seed=3
            )
            return [
                [pair.worker.worker_id, cid, "|".join(pair.delivery_point_ids)]
                for cid in sorted(solution.assignments)
                for pair in solution.assignments[cid]
            ]

        with target.open(newline="") as fh:
            rows = [list(row.values())[:3] for row in csv.DictReader(fh)]
        assert rows == routes(solver)
        # The flag reaches the game: the plain solve routes differently.
        assert rows != routes(FGTSolver(epsilon=0.6))

    @pytest.mark.parametrize("algorithm", ["gta", "mpta", "random"])
    def test_equity_mode_refused_without_an_equity_game(
        self, instance_dir, capsys, algorithm
    ):
        args = ["solve", str(instance_dir), "--algorithm", algorithm, "--equity-mode"]
        assert main(args) == 2
        assert "not supported" in capsys.readouterr().err


class TestCompare:
    @pytest.fixture
    def instance_dir(self, tmp_path):
        main(
            [
                "generate",
                str(tmp_path / "inst"),
                "--dataset",
                "gm",
                "--tasks",
                "60",
                "--workers",
                "8",
                "--delivery-points",
                "15",
                "--seed",
                "2",
            ]
        )
        return tmp_path / "inst"

    def test_compare_output(self, instance_dir, capsys):
        code = main(
            [
                "compare",
                str(instance_dir),
                "--baseline",
                "gta",
                "--challenger",
                "iegt",
                "--epsilon",
                "0.6",
            ]
        )
        assert code == 0
        out = capsys.readouterr().out
        assert "GTA -> IEGT" in out
        assert "winners=" in out and "losers=" in out

    def test_compare_same_algorithm_no_changes(self, instance_dir, capsys):
        code = main(
            [
                "compare",
                str(instance_dir),
                "--baseline",
                "gta",
                "--challenger",
                "gta",
            ]
        )
        assert code == 0
        out = capsys.readouterr().out
        assert "winners=0 losers=0" in out


class TestExperiment:
    def test_sweep_experiment(self, capsys):
        code = main(["experiment", "fig4", "--scale", "smoke", "--seed", "0"])
        assert code == 0
        out = capsys.readouterr().out
        assert "Payoff Difference" in out
        assert "CPU Time" in out

    def test_convergence_experiment(self, capsys):
        code = main(["experiment", "fig12", "--scale", "smoke"])
        assert code == 0
        assert "payoff difference per iteration" in capsys.readouterr().out

    def test_unknown_experiment(self):
        with pytest.raises(KeyError):
            main(["experiment", "fig99"])

    def test_extension_experiment(self, capsys):
        code = main(["experiment", "ext-metric", "--scale", "smoke"])
        assert code == 0
        out = capsys.readouterr().out
        assert "manhattan" in out and "euclidean" in out


class TestTrace:
    def test_trace_prometheus_flag(self, tmp_path, capsys):
        code = main(
            [
                "trace",
                "--algo",
                "fgt",
                "--scale",
                "smoke",
                "--seed",
                "0",
                "--output",
                str(tmp_path / "trace.jsonl"),
                "--prometheus",
            ]
        )
        assert code == 0
        out = capsys.readouterr().out
        assert "# TYPE repro_" in out
        assert (tmp_path / "trace.jsonl").exists()


class TestTraceAnalyze:
    @staticmethod
    def _write_trace(path):
        from repro.obs.tracer import JsonlTracer, start_trace

        with JsonlTracer(path) as tracer:
            with start_trace("aa" * 8):
                with tracer.span("service.round", round=0):
                    with tracer.span(
                        "service.center_solve", center="A", round=0
                    ):
                        pass

    def test_analyze_prints_report(self, tmp_path, capsys):
        path = tmp_path / "t.jsonl"
        self._write_trace(path)
        code = main(["trace", "analyze", str(path)])
        assert code == 0
        out = capsys.readouterr().out
        assert "critical path" in out
        assert "center=A" in out

    def test_analyze_json_output(self, tmp_path, capsys):
        import json

        path = tmp_path / "t.jsonl"
        self._write_trace(path)
        code = main(["trace", "analyze", str(path), "--json"])
        assert code == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["orphans"] == 0
        assert payload["traces"] == 1
        assert payload["rounds"][0]["round_index"] == 0

    def test_analyze_fails_on_orphans(self, tmp_path, capsys):
        import json

        path = tmp_path / "t.jsonl"
        path.write_text(
            json.dumps(
                {
                    "kind": "service.rung", "seq": 0, "ts": 0.1, "dur": 0.01,
                    "trace": "bb" * 8, "span": "s1", "parent": "missing",
                }
            )
            + "\n"
        )
        code = main(["trace", "analyze", str(path)])
        assert code == 1
        assert "orphan" in capsys.readouterr().err

    def test_analyze_missing_file_fails(self, tmp_path, capsys):
        code = main(["trace", "analyze", str(tmp_path / "nope.jsonl")])
        assert code == 1

    def test_plain_trace_run_still_parses(self, tmp_path, capsys):
        # The nested subcommand must not break the legacy invocation.
        code = main(
            [
                "trace",
                "--algo",
                "fgt",
                "--scale",
                "smoke",
                "--output",
                str(tmp_path / "t.jsonl"),
            ]
        )
        assert code == 0
        # ... and the file it writes is analyzable.
        code = main(["trace", "analyze", str(tmp_path / "t.jsonl")])
        assert code == 0


class TestServe:
    def test_serve_round_trip(self, tmp_path, capsys):
        # Drive the real `serve` command from a helper thread: wait for the
        # port file, run one dispatch round, then ask for graceful shutdown.
        from repro.service import DispatchClient

        port_file = tmp_path / "port.txt"
        failures = []

        def drive():
            try:
                deadline = time.monotonic() + 15.0
                while time.monotonic() < deadline:
                    if port_file.exists() and port_file.read_text().strip():
                        break
                    time.sleep(0.05)
                port = int(port_file.read_text())
                client = DispatchClient(f"http://127.0.0.1:{port}", timeout=5.0)
                client.wait_healthy(timeout=10.0)
                result = client.dispatch()
                if result["assigned_tasks"] <= 0:
                    failures.append(f"no tasks assigned: {result}")
                client.shutdown()
            except Exception as exc:  # surfaced after main() returns
                failures.append(repr(exc))

        driver = threading.Thread(target=drive)
        driver.start()
        code = main(
            [
                "serve",
                "--port",
                "0",
                "--port-file",
                str(port_file),
                "--epsilon",
                "0.8",
                "--seed",
                "0",
                "--tasks",
                "30",
                "--workers",
                "6",
                "--delivery-points",
                "12",
            ]
        )
        driver.join(timeout=15.0)
        assert code == 0
        assert failures == []
        out = capsys.readouterr().out
        assert "dispatch service listening on" in out
        assert "served 1 dispatch rounds" in out
        assert "service.tasks.assigned" in out  # final metrics dump


class TestVerify:
    def test_verify_smoke_scale_exits_zero(self, capsys):
        code = main(
            ["verify", "--experiment", "fig2", "--scale", "smoke", "--seed", "0"]
        )
        assert code == 0
        out = capsys.readouterr().out
        assert "all invariant checks passed" in out
        assert "assignment.disjointness" in out
        assert "fgt.pure-nash" in out or "fgt.potential-monotone" in out

    def test_verify_syn_experiment(self, capsys):
        code = main(
            ["verify", "--experiment", "fig3", "--scale", "smoke", "--seed", "1"]
        )
        assert code == 0
        assert "iegt.iess" in capsys.readouterr().out

    def test_verify_single_algorithm_selection(self, capsys):
        code = main(
            [
                "verify",
                "--experiment",
                "fig2",
                "--scale",
                "smoke",
                "--algorithms",
                "gta",
            ]
        )
        assert code == 0
        out = capsys.readouterr().out
        assert "GTA" in out
        assert "fgt.switch-improving" not in out

    def test_verify_unknown_algorithm_rejected(self, capsys):
        code = main(
            ["verify", "--experiment", "fig2", "--algorithms", "nope"]
        )
        assert code == 2
        assert "unknown algorithm" in capsys.readouterr().err

    def test_verify_full_sweep_smoke(self, capsys):
        code = main(
            ["verify", "--experiment", "fig2", "--scale", "smoke", "--full"]
        )
        assert code == 0
        assert "all invariant checks passed" in capsys.readouterr().out
