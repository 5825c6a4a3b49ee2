"""Unit tests for the command-line interface."""

import json

import pytest

from repro.cli import main


@pytest.fixture
def instance_file(tmp_path):
    path = tmp_path / "inst.json"
    assert main(["generate", "--tasks", "12", "--seed", "3", "-o", str(path)]) == 0
    return path


@pytest.fixture
def schedule_file(tmp_path, instance_file):
    path = tmp_path / "sched.json"
    code = main(
        ["schedule", str(instance_file), "--algorithm", "pa", "-o", str(path)]
    )
    assert code == 0
    return path


class TestGenerate:
    def test_writes_valid_instance(self, instance_file):
        from repro.model import Instance

        data = json.loads(instance_file.read_text())
        instance = Instance.from_dict(data)
        assert len(instance.taskgraph) == 12

    def test_stdout_mode(self, capsys):
        assert main(["generate", "--tasks", "5", "--seed", "1"]) == 0
        out = capsys.readouterr().out
        assert json.loads(out)["taskgraph"]

    def test_graph_kinds(self, tmp_path):
        for kind in ("layered", "series-parallel", "random-order"):
            path = tmp_path / f"{kind}.json"
            assert main(
                ["generate", "--tasks", "8", "--graph", kind, "-o", str(path)]
            ) == 0


class TestSchedule:
    @pytest.mark.parametrize("algo", ["pa", "is-1", "is-2", "list"])
    def test_algorithms(self, instance_file, tmp_path, algo, capsys):
        out = tmp_path / "s.json"
        code = main(
            [
                "schedule", str(instance_file),
                "--algorithm", algo, "--no-floorplan", "-o", str(out),
            ]
        )
        assert code == 0
        assert "makespan" in capsys.readouterr().out
        assert out.exists()

    def test_pa_r(self, instance_file, capsys):
        code = main(
            [
                "schedule", str(instance_file), "--algorithm", "pa-r",
                "--budget", "0.2", "--no-floorplan",
            ]
        )
        assert code == 0
        assert "PA-R" in capsys.readouterr().out

    def test_unknown_algorithm(self, instance_file):
        assert main(
            ["schedule", str(instance_file), "--algorithm", "magic", "--no-floorplan"]
        ) == 2

    def test_exhaustive(self, tmp_path, capsys):
        small = tmp_path / "small.json"
        assert main(["generate", "--tasks", "6", "--seed", "2", "-o", str(small)]) == 0
        assert main(["schedule", str(small), "--algorithm", "exhaustive"]) == 0
        out = capsys.readouterr().out
        assert "EXHAUSTIVE" in out and "nodes=" in out

    def test_exhaustive_task_guard(self, tmp_path, capsys):
        big = tmp_path / "big.json"
        assert main(["generate", "--tasks", "16", "--seed", "2", "-o", str(big)]) == 0
        assert main(["schedule", str(big), "--algorithm", "exhaustive"]) == 2
        err = capsys.readouterr().err
        assert "task limit" in err and "--exhaustive-task-limit" in err


class TestBatch:
    @pytest.fixture
    def manifest_file(self, tmp_path, instance_file):
        path = tmp_path / "manifest.json"
        path.write_text(
            json.dumps(
                [
                    {
                        "instance": instance_file.name,
                        "algorithm": "pa",
                        "options": {"floorplan": False},
                    },
                    {"instance": instance_file.name, "algorithm": "list"},
                ]
            )
        )
        return path

    def test_cold_then_warm(self, manifest_file, tmp_path, capsys):
        store = tmp_path / "cache"
        assert main(["batch", str(manifest_file), "--store", str(store)]) == 0
        assert "2 executed (0% hit rate)" in capsys.readouterr().out
        report = tmp_path / "report.json"
        code = main(
            [
                "batch", str(manifest_file),
                "--store", str(store), "--report", str(report),
            ]
        )
        assert code == 0
        assert "2 store hits, 0 executed (100% hit rate)" in capsys.readouterr().out
        payload = json.loads(report.read_text())
        assert payload["hit_rate"] == 1.0
        assert [r["source"] for r in payload["records"]] == ["store", "store"]

    def test_no_store(self, manifest_file, capsys):
        assert main(["batch", str(manifest_file), "--no-store"]) == 0
        assert "0 store hits" in capsys.readouterr().out

    def test_missing_manifest(self, tmp_path, capsys):
        assert main(["batch", str(tmp_path / "nope.json")]) == 2
        assert "not found" in capsys.readouterr().err

    def test_bad_manifest(self, tmp_path, capsys):
        bad = tmp_path / "bad.json"
        bad.write_text("[]")
        assert main(["batch", str(bad)]) == 2
        assert "bad manifest" in capsys.readouterr().err

    def test_failed_items_exit_nonzero(
        self, manifest_file, tmp_path, capsys, monkeypatch
    ):
        # Regression: a pool failure used to crash the batch with a
        # TypeError; now it must finish, render the failure, and exit 1.
        import repro.analysis.parallel as parallel_mod
        from repro.analysis.parallel import ParallelItemFailure

        def _all_fail(worker, items, jobs=1, progress=None, timeout=None, retries=1):
            return [
                ParallelItemFailure(
                    index=i,
                    item=repr(item)[:200],
                    phase="serial-error",
                    error="timed out after 0.1s; serial fallback raised: boom",
                    attempts=2,
                )
                for i, item in enumerate(list(items))
            ]

        monkeypatch.setattr(parallel_mod, "parallel_map", _all_fail)
        code = main(
            [
                "batch", str(manifest_file),
                "--store", str(tmp_path / "cache"),
                "--jobs", "2", "--timeout", "0.1",
            ]
        )
        assert code == 1
        captured = capsys.readouterr()
        assert "2 FAILED" in captured.out
        assert "failed" in captured.err


class TestServe:
    def test_serve_and_remote_batch_roundtrip(self, tmp_path, instance_file):
        import socket
        import threading

        from repro.engine import ServiceClient

        with socket.socket() as probe:
            probe.bind(("127.0.0.1", 0))
            port = probe.getsockname()[1]
        exit_code = []
        server = threading.Thread(
            target=lambda: exit_code.append(
                main(
                    [
                        "serve",
                        "--port", str(port),
                        "--store", str(tmp_path / "cache"),
                        "--executor", "thread",
                        "--workers", "2",
                    ]
                )
            )
        )
        server.start()
        try:
            client = ServiceClient(f"http://127.0.0.1:{port}")
            assert client.wait_ready(deadline=30.0)

            manifest = tmp_path / "manifest.json"
            manifest.write_text(
                json.dumps(
                    [
                        {"instance": instance_file.name, "algorithm": "list"},
                        {"instance": instance_file.name, "algorithm": "is-1"},
                    ]
                )
            )
            code = main(
                ["batch", str(manifest), "--server", f"http://127.0.0.1:{port}"]
            )
            assert code == 0
            code = main(
                ["batch", str(manifest), "--server", f"http://127.0.0.1:{port}"]
            )
            assert code == 0
            metrics = client.metrics()
            assert metrics["computed"] == 2
            assert metrics["store_hits"] == 2
        finally:
            try:
                client.shutdown()
            except Exception:
                pass
            server.join(timeout=30.0)
        assert not server.is_alive()
        assert exit_code == [0]


class TestValidateGanttFloorplan:
    def test_validate_ok(self, instance_file, schedule_file, capsys):
        assert main(["validate", str(instance_file), str(schedule_file)]) == 0
        assert "OK" in capsys.readouterr().out

    def test_validate_catches_corruption(self, instance_file, schedule_file):
        data = json.loads(schedule_file.read_text())
        data["tasks"][0]["end"] += 1e6  # duration no longer matches impl
        schedule_file.write_text(json.dumps(data))
        assert main(["validate", str(instance_file), str(schedule_file)]) == 1

    def test_gantt(self, instance_file, schedule_file, capsys):
        assert main(["gantt", str(instance_file), str(schedule_file)]) == 0
        assert "makespan" in capsys.readouterr().out

    def test_stats(self, instance_file, schedule_file, capsys):
        assert main(["stats", str(instance_file), str(schedule_file)]) == 0
        out = capsys.readouterr().out
        assert "makespan" in out and "parallelism" in out

    def test_floorplan(self, instance_file, schedule_file, capsys):
        code = main(["floorplan", str(instance_file), str(schedule_file)])
        out = capsys.readouterr().out
        assert "feasible=" in out
        assert code in (0, 1)


class TestExplain:
    def test_full_trace(self, instance_file, capsys):
        assert main(["explain", str(instance_file)]) == 0
        out = capsys.readouterr().out
        assert "decision profile" in out
        assert "[selection]" in out

    def test_single_task(self, instance_file, capsys):
        assert main(["explain", str(instance_file), "--task", "t0"]) == 0
        out = capsys.readouterr().out
        assert "t0" in out

    def test_phase_filter(self, instance_file, capsys):
        assert main(["explain", str(instance_file), "--phase", "regions"]) == 0
        out = capsys.readouterr().out
        assert "[regions]" in out
        assert "[selection]" not in out.split("\n\n", 1)[-1]

    def test_explains_the_schedule_pa_serves(self, tmp_path, capsys):
        """On an instance where PA shrinks, explain follows the floorplan
        loop to the schedule ``repro schedule --algorithm pa`` returns."""
        from repro.benchgen import fleet_scenario
        from repro.fleet import device_subinstance

        instance, fleet = fleet_scenario(24, 9)
        on_d1 = {task_id: "d1" for task_id in instance.taskgraph.task_ids}
        sub = device_subinstance(instance, fleet, on_d1, "d1")
        path = tmp_path / "sub.json"
        sub.to_json(str(path))
        sched_path = tmp_path / "sched.json"
        assert main(
            ["schedule", str(path), "--algorithm", "pa", "-o", str(sched_path)]
        ) == 0
        served = json.loads(sched_path.read_text())
        capsys.readouterr()

        assert main(["explain", str(path), "--phase", "floorplan"]) == 0
        out = capsys.readouterr().out
        assert out.startswith(f"PA makespan {served['makespan']:.1f};")
        checks = [line for line in out.splitlines() if line.startswith("[floorplan]")]
        assert len(checks) == 3  # two shrinks, then a feasible region set
        assert f"regions={len(served['regions'])}, feasible=True" in checks[-1]


class TestSimulate:
    def test_plain_replay(self, instance_file, schedule_file, capsys):
        assert main(["simulate", str(instance_file), str(schedule_file)]) == 0
        out = capsys.readouterr().out
        assert "simulated makespan" in out
        assert "slippage" in out

    def test_jitter_run(self, instance_file, schedule_file, capsys):
        code = main(
            [
                "simulate", str(instance_file), str(schedule_file),
                "--jitter", "0.2", "--seed", "5",
            ]
        )
        assert code == 0
        assert "simulated makespan" in capsys.readouterr().out

    def test_transient_faults_print_metrics(
        self, instance_file, schedule_file, capsys
    ):
        code = main(
            [
                "simulate", str(instance_file), str(schedule_file),
                "--fault", "transient:0.1@2", "--retries", "8",
            ]
        )
        out = capsys.readouterr().out
        assert code == 0
        assert "recovery rate" in out

    def test_region_death_with_trace(
        self, instance_file, schedule_file, capsys
    ):
        data = json.loads(schedule_file.read_text())
        region = data["regions"][0]["id"]
        code = main(
            [
                "simulate", str(instance_file), str(schedule_file),
                "--fault", f"region-death:{region}@1.0", "--trace",
            ]
        )
        out = capsys.readouterr().out
        assert code == 0
        assert "region deaths: 1" in out
        assert "[region-death]" in out

    def test_malformed_fault_spec(
        self, instance_file, schedule_file, capsys
    ):
        code = main(
            [
                "simulate", str(instance_file), str(schedule_file),
                "--fault", "bogus",
            ]
        )
        assert code == 2
        assert "malformed fault spec" in capsys.readouterr().err

    def test_unknown_region_rejected(
        self, instance_file, schedule_file, capsys
    ):
        code = main(
            [
                "simulate", str(instance_file), str(schedule_file),
                "--fault", "region-death:RR99@5",
            ]
        )
        assert code == 2
        assert "unknown region" in capsys.readouterr().err

    def test_schedule_for_another_instance_rejected(
        self, tmp_path, schedule_file, capsys
    ):
        other = tmp_path / "other.json"
        assert main(["generate", "--tasks", "8", "--seed", "1", "-o", str(other)]) == 0
        capsys.readouterr()
        code = main(["simulate", str(other), str(schedule_file)])
        assert code == 2
        err = capsys.readouterr().err
        assert err.startswith("error: schedule was not made for this instance")
        assert "not in the instance" in err


def _trace_without_architecture_name() -> dict:
    from repro.online import feasible_trace

    data = feasible_trace(seed=0, jobs=2).to_dict()
    del data["architecture"]["name"]
    return data


class TestMalformedJSON:
    """Bad input files end in ``error:`` and exit code 2, never a traceback."""

    @pytest.mark.parametrize(
        "command, what, payload",
        [
            ("online", "trace", {"name": "x"}),
            ("online", "trace", [1, 2]),
            ("online", "trace", _trace_without_architecture_name()),
            ("simulate", "schedule", {}),
            ("simulate", "schedule", {"tasks": {}}),
        ],
        ids=[
            "trace-no-architecture",
            "trace-not-an-object",
            "trace-architecture-no-name",
            "schedule-empty",
            "schedule-no-regions",
        ],
    )
    def test_error_not_traceback(
        self, tmp_path, instance_file, capsys, command, what, payload
    ):
        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps(payload))
        argv = [command, str(bad)]
        if command == "simulate":
            argv = [command, str(instance_file), str(bad)]
        capsys.readouterr()
        assert main(argv) == 2
        assert capsys.readouterr().err.startswith(f"error: malformed {what} JSON: ")


class TestExperiments:
    def test_tiny_fig3(self, capsys, monkeypatch):
        monkeypatch.setenv("REPRO_SUITE", "tiny")
        assert main(["experiments", "fig3", "--profile", "tiny"]) == 0
        out = capsys.readouterr().out
        assert "Figure 3" in out
        assert "overall average improvement" in out

    def test_output_directory_artifacts(self, tmp_path, capsys, monkeypatch):
        monkeypatch.setenv("REPRO_SUITE", "tiny")
        outdir = tmp_path / "res"
        assert main(
            ["experiments", "fig2", "--profile", "tiny", "-o", str(outdir)]
        ) == 0
        assert (outdir / "quality.json").exists()
        assert (outdir / "report.html").exists()
        assert (outdir / "csv" / "fig3_pa_vs_is1.csv").exists()
        assert "<svg" in (outdir / "report.html").read_text()
