"""Tests for the command-line interface."""

import json

import pytest

from repro.cli import main


@pytest.fixture
def instance_file(tmp_path):
    path = tmp_path / "batch.json"
    code = main(
        [
            "generate",
            "--workers",
            "60",
            "--tasks",
            "12",
            "--radius-min",
            "0.2",
            "--radius-max",
            "0.4",
            "--speed-min",
            "0.05",
            "--speed-max",
            "0.2",
            "--seed",
            "3",
            "--out",
            str(path),
        ]
    )
    assert code == 0
    return path


class TestGenerate:
    def test_writes_instance(self, instance_file, capsys):
        assert instance_file.exists()
        payload = json.loads(instance_file.read_text())
        assert len(payload["workers"]) == 60
        assert len(payload["tasks"]) == 12


class TestSolve:
    @pytest.mark.parametrize("approach", ["RAND", "TPG", "GT+ALL"])
    def test_solve_approaches(self, instance_file, tmp_path, capsys, approach):
        out = tmp_path / "assignment.json"
        code = main(
            [
                "solve",
                str(instance_file),
                "--approach",
                approach,
                "--out",
                str(out),
            ]
        )
        assert code == 0
        printed = capsys.readouterr().out
        assert approach in printed
        assert "UPPER" in printed
        pairs = json.loads(out.read_text())["pairs"]
        assert all(len(pair) == 2 for pair in pairs)


class TestEvaluate:
    def test_round_trip_evaluation(self, instance_file, tmp_path, capsys):
        out = tmp_path / "assignment.json"
        main(["solve", str(instance_file), "--approach", "TPG", "--out", str(out)])
        code = main(["evaluate", str(instance_file), str(out)])
        assert code == 0
        assert "feasible: score=" in capsys.readouterr().out

    def test_infeasible_assignment_rejected(self, instance_file, tmp_path, capsys):
        bad = tmp_path / "bad.json"
        # Assign the same worker twice.
        bad.write_text(json.dumps({"pairs": [[0, 0], [0, 1]]}))
        code = main(["evaluate", str(instance_file), str(bad)])
        assert code == 1
        assert "INFEASIBLE" in capsys.readouterr().err


class TestSimulate:
    def test_simulate_with_exports(self, tmp_path, capsys):
        csv_path = tmp_path / "rounds.csv"
        jsonl_path = tmp_path / "rounds.jsonl"
        code = main(
            [
                "simulate",
                "--approach",
                "TPG",
                "--rounds",
                "2",
                "--workers",
                "60",
                "--tasks",
                "15",
                "--seed",
                "2",
                "--csv",
                str(csv_path),
                "--jsonl",
                str(jsonl_path),
            ]
        )
        assert code == 0
        printed = capsys.readouterr().out
        assert "total score" in printed
        assert csv_path.exists() and jsonl_path.exists()
        from repro.simulation.metrics import read_jsonl

        assert len(read_jsonl(jsonl_path).rounds) == 2

    def test_simulate_extension_approach(self, capsys):
        code = main(
            [
                "simulate",
                "--approach",
                "ONLINE",
                "--rounds",
                "2",
                "--workers",
                "50",
                "--tasks",
                "10",
            ]
        )
        assert code == 0
        assert "ONLINE" in capsys.readouterr().out


class TestProfile:
    def test_profile_generated_instance(self, tmp_path, capsys):
        out = tmp_path / "profile.json"
        code = main(
            [
                "profile",
                "--workers",
                "60",
                "--tasks",
                "12",
                "--approach",
                "GT",
                "--seed",
                "3",
                "--top",
                "3",
                "--out",
                str(out),
            ]
        )
        assert code == 0
        printed = capsys.readouterr().out
        assert "profile[GT]" in printed
        assert "validity:" in printed and "solve:" in printed
        payload = json.loads(out.read_text())
        assert [phase["phase"] for phase in payload["phases"]] == [
            "validity",
            "solve",
        ]
        for phase in payload["phases"]:
            assert phase["hotspots"], phase["phase"]
            assert len(phase["hotspots"]) <= 3
            # Sorted by self time — the documented reading order.
            tottimes = [spot["tottime"] for spot in phase["hotspots"]]
            assert tottimes == sorted(tottimes, reverse=True)

    def test_profile_instance_file_native_kernel(self, instance_file, capsys):
        code = main(
            ["profile", "--instance", str(instance_file), "--top", "2"]
        )
        assert code == 0
        printed = capsys.readouterr().out
        assert "solver stats:" in printed
        assert "kernels=" in printed  # the batched path ran

    @pytest.mark.parametrize("command", ["solve", "simulate", "profile"])
    def test_kernel_flag_is_gone(self, command, instance_file):
        argv = [command, "--kernel", "native"]
        if command == "solve":
            argv.insert(1, str(instance_file))
        with pytest.raises(SystemExit) as exit_info:
            main(argv)
        assert exit_info.value.code == 2


class TestErrorHandling:
    def test_missing_instance_file(self, capsys):
        code = main(["solve", "/nonexistent/batch.json"])
        assert code == 2
        assert "error:" in capsys.readouterr().err

    def test_corrupt_instance_file(self, tmp_path, capsys):
        bad = tmp_path / "bad.json"
        bad.write_text("{not json")
        code = main(["solve", str(bad)])
        assert code == 2
        assert "error:" in capsys.readouterr().err

    def test_wrong_format_version(self, tmp_path, capsys):
        bad = tmp_path / "v999.json"
        bad.write_text(json.dumps({"format_version": 999}))
        code = main(["solve", str(bad)])
        assert code == 2
