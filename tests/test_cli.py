import json

import pytest

from exploresim.cli import main
from exploresim.metrics import parse_dwell_csv
from exploresim.report import parse_runs_csv


def run_cli(*argv):
    return main(list(argv))


class TestRun:
    def test_writes_all_artifacts(self, tmp_path, capsys):
        out = tmp_path / "mission"
        code = run_cli("run", "--policy", "pseudo-random", "--speed", "0.5",
                       "--detector", "ssd-1.0", "--seed", "42", "--out", str(out))
        assert code == 0
        for name in ("trajectory.csv", "detections.csv", "heatmap.csv",
                     "heatmap.pgm", "summary.json"):
            assert (out / name).exists(), name
        summary = json.loads((out / "summary.json").read_text())
        assert summary["policy"] == "pseudo-random"
        assert summary["energy_j"]["total"] == 1443.6
        assert summary["aideck_share_pct"] == 1.67
        assert "coverage" in capsys.readouterr().out

    def test_unknown_policy_exits_2(self, tmp_path, capsys):
        with pytest.raises(SystemExit) as exc:
            run_cli("run", "--policy", "bogus", "--out", str(tmp_path))
        assert exc.value.code == 2
        assert "wall-following" in capsys.readouterr().err

    def test_unknown_config_key_exits_2(self, tmp_path, capsys):
        code = run_cli("run", "--set", "policy.bogus=1", "--out", str(tmp_path))
        assert code == 2
        assert "unknown config key" in capsys.readouterr().err

    def test_corrupt_config_exits_2(self, tmp_path):
        bad = tmp_path / "cfg.json"
        bad.write_text("{not json")
        code = run_cli("run", "--config", str(bad), "--out", str(tmp_path / "o"))
        assert code == 2

    def test_duration_override(self, tmp_path):
        out = tmp_path / "short"
        assert run_cli("run", "--duration", "5", "--seed", "1",
                       "--out", str(out)) == 0
        summary = json.loads((out / "summary.json").read_text())
        assert summary["duration"] == 5.0
        assert summary["energy_j"]["total"] == pytest.approx(8.02 * 5.0, abs=0.001)

    def test_detector_none_token(self, tmp_path):
        out = tmp_path / "plain"
        assert run_cli("run", "--detector", "none", "--duration", "5",
                       "--out", str(out)) == 0
        summary = json.loads((out / "summary.json").read_text())
        assert summary["detector"] is None
        assert summary["detection_rate"] is None

    def test_config_file_with_arena_path(self, tmp_path):
        arena = tmp_path / "arena.json"
        arena.write_text(json.dumps({"width": 4.0, "height": 4.0,
                                     "objects": [{"id": 1, "class": "bottle",
                                                  "pos": [1.0, 1.0]}]}))
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"arena": str(arena),
                                   "run": {"duration": 5.0, "seed": 3}}))
        out = tmp_path / "mission"
        assert run_cli("run", "--config", str(cfg), "--out", str(out)) == 0
        summary = json.loads((out / "summary.json").read_text())
        assert summary["arena"] == {"width": 4.0, "height": 4.0, "objects": 1}

    def test_start_pose_override(self, tmp_path):
        out = tmp_path / "posed"
        assert run_cli("run", "--duration", "5", "--out", str(out),
                       "--set", "run.start=[1.0,1.0,0.0]") == 0
        first_row = (out / "trajectory.csv").read_text().splitlines()[1]
        assert first_row.startswith("0.000000,1.000000,1.000000,0.000000")


    @pytest.mark.parametrize("argv, field", [
        (["--set", "run.drone_radius=NaN", "--set", "run.start=[0.01,2.75,0]"],
         "run.drone_radius"),
        (["--set", "run.duration=NaN"], "run.duration"),
        (["--set", "run.duration=Infinity"], "run.duration"),
        (["--set", "run.control_dt=0"], "run.control_dt"),
        (["--set", "run.start=[0.01,2.75,0]"], "run.start"),
        (["--set", "run.start=[1.0,1.0,NaN]"], "run.start"),
        (["--speed", "5"], "policy.cruise_speed"),
        (["--set", "policy.k_wall=NaN"], "k_wall"),
        (["--set", "tof.rate_hz=NaN"], "rate_hz"),
        (["--set", "camera.max_range=NaN"], "max_detect_range"),
        (["--set", "detector.fps=NaN", "--detector", "ssd-1.0"], "fps"),
    ])
    def test_bad_value_exits_2_naming_field(self, tmp_path, capsys, argv, field):
        assert run_cli("run", "--out", str(tmp_path / "o"), *argv) == 2
        err = capsys.readouterr().err
        assert err.startswith("config error: ") and field in err
        assert not (tmp_path / "o").exists()

SMALL_SWEEP = ["--set", 'sweep.policies=["pseudo-random","spiral"]',
               "--set", "sweep.speeds=[0.5]",
               "--set", "sweep.duration=10.0"]


class TestSweep:
    def test_small_sweep_artifacts(self, tmp_path):
        out = tmp_path / "sweep"
        code = run_cli("sweep", "--runs-per-config", "2", "--out", str(out),
                       *SMALL_SWEEP)
        assert code == 0
        rows = parse_runs_csv((out / "runs.csv").read_text())
        assert len(rows) == 4
        assert (out / "aggregate.csv").exists()
        assert (out / "heatmap_pseudo-random_0.5.csv").exists()
        assert (out / "heatmap_spiral_0.5.pgm").exists()

    def test_reruns_are_byte_identical(self, tmp_path):
        out1, out2 = tmp_path / "a", tmp_path / "b"
        for out in (out1, out2):
            assert run_cli("sweep", "--seed", "7", "--runs-per-config", "1",
                           "--out", str(out), *SMALL_SWEEP) == 0
        assert (out1 / "runs.csv").read_bytes() == (out2 / "runs.csv").read_bytes()
        assert (out1 / "aggregate.csv").read_bytes() == (out2 / "aggregate.csv").read_bytes()

    def test_single_run_default_grid_gives_12_rows(self, tmp_path):
        out = tmp_path / "grid"
        code = run_cli("sweep", "--runs-per-config", "1", "--out", str(out),
                       "--set", "sweep.duration=5.0")
        assert code == 0
        rows = parse_runs_csv((out / "runs.csv").read_text())
        assert len(rows) == 12  # 4 policies x 3 speeds

    def test_jobs_flag_matches_serial(self, tmp_path):
        serial, parallel = tmp_path / "serial", tmp_path / "parallel"
        run_cli("sweep", "--runs-per-config", "1", "--out", str(serial), *SMALL_SWEEP)
        run_cli("sweep", "--runs-per-config", "1", "--jobs", "2",
                "--out", str(parallel), *SMALL_SWEEP)
        assert (serial / "runs.csv").read_bytes() == (parallel / "runs.csv").read_bytes()

    def test_detection_report_emitted_with_detectors(self, tmp_path):
        out = tmp_path / "det"
        code = run_cli("sweep", "--runs-per-config", "1", "--out", str(out),
                       "--set", 'sweep.policies=["pseudo-random"]',
                       "--set", "sweep.speeds=[0.5]",
                       "--set", "sweep.duration=10.0",
                       "--set", 'sweep.detectors=["ssd-1.0","ssd-0.75"]')
        assert code == 0
        text = (out / "detection_rates.csv").read_text()
        assert text.splitlines()[0] == "detector,speed,pseudo-random"
        assert len(text.splitlines()) == 3


class TestReport:
    def test_run_report_series_and_markers(self, tmp_path):
        out = tmp_path / "mission"
        run_cli("run", "--policy", "spiral", "--speed", "0.5", "--seed", "3",
                "--detector", "ssd-1.0", "--out", str(out))
        assert run_cli("report", "--in", str(out)) == 0
        series = (out / "coverage_series.csv").read_text().splitlines()
        assert series[0] == "t,coverage"
        summary = json.loads((out / "summary.json").read_text())
        final = float(series[-1].split(",")[1])
        assert final == pytest.approx(summary["coverage"], abs=1e-6)
        markers = (out / "detection_markers.csv").read_text().splitlines()
        assert markers[0] == "object_id,class,t_first_seen"
        assert len(markers) - 1 == round(summary["detection_rate"] * 6)
        detections = (out / "detections.csv").read_text()
        assert (out / "detection_markers.csv").read_text() == detections

    def test_sweep_report_aggregates(self, tmp_path):
        out = tmp_path / "sweep"
        run_cli("sweep", "--runs-per-config", "2", "--out", str(out), *SMALL_SWEEP)
        report_dir = tmp_path / "rendered"
        assert run_cli("report", "--in", str(out), "--out", str(report_dir)) == 0
        header = (report_dir / "aggregate.csv").read_text().splitlines()[0]
        assert "coverage_mean" in header and "coverage_var" in header

    def test_missing_artifacts_exit_1(self, tmp_path, capsys):
        assert run_cli("report", "--in", str(tmp_path)) == 1
        assert str(tmp_path) in capsys.readouterr().err


class TestHeatmap:
    def test_rerender_matches_original(self, tmp_path):
        out = tmp_path / "mission"
        run_cli("run", "--seed", "5", "--duration", "20", "--out", str(out))
        rendered = tmp_path / "again.pgm"
        assert run_cli("heatmap", "--in", str(out / "heatmap.csv"),
                       "--out", str(rendered)) == 0
        assert rendered.read_bytes() == (out / "heatmap.pgm").read_bytes()

    def test_empty_grid_renders_black(self, tmp_path):
        csv = tmp_path / "empty.csv"
        csv.write_text("\n".join(",".join("0.000000" for _ in range(13))
                                 for _ in range(11)) + "\n")
        assert run_cli("heatmap", "--in", str(csv)) == 0
        body = (tmp_path / "empty.pgm").read_bytes().split(b"255\n", 1)[1]
        assert set(body) == {0}

    def test_missing_csv_exits_1(self, tmp_path):
        assert run_cli("heatmap", "--in", str(tmp_path / "nope.csv")) == 1


def test_help_documents_config_keys(capsys):
    with pytest.raises(SystemExit) as exc:
        run_cli("--help")
    assert exc.value.code == 0
    text = capsys.readouterr().out
    for key in ("policy.cruise_speed", "tof.max_range", "camera.fov_deg",
                "detector.model", "sweep.runs_per_config", "run.seed"):
        assert key in text
