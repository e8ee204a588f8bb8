import hashlib
import io
import json
import math
import os
import subprocess
import sys
from concurrent.futures.process import BrokenProcessPool
from pathlib import Path

import pytest

from exploresim import report
from exploresim.cli import main
from exploresim.errors import SimError
from exploresim.metrics import MAX_CSV_LINE, OccupancyGrid, parse_dwell_csv
from exploresim.report import parse_runs_csv


SRC = Path(__file__).resolve().parents[1] / "src"


def run_cli(*argv):
    return main(list(argv))


def run_python(script, *argv, cwd):
    """``script`` run by a fresh, isolated interpreter without the site
    module, so that no site-package preloads a module, that imports
    exploresim from this checkout's ``src``, with ``argv`` as its arguments."""
    return subprocess.run([sys.executable, "-I", "-S", "-c", script, str(SRC), *argv], cwd=cwd,
                          capture_output=True, text=True, timeout=120)


DEEP = "[" * 600 + "]" * 600


def log_blocks(path):
    """The blocks of lines in which ``report`` reads the trajectory log at ``path``."""
    with open(path, encoding="ascii", newline="\n") as f:
        return list(iter(lambda: f.readlines(report._BLOCK_CHARS), []))


def arena_with(**keys):
    """``--set`` item for a room with one object; ``keys`` replace or add
    entries of that object."""
    obj = dict({"id": 1, "class": "bottle", "pos": [1.0, 1.0]}, **keys)
    return "arena=" + json.dumps({"width": 6.5, "height": 5.5, "objects": [obj]})


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

    @pytest.mark.parametrize("as_arena", [False, True], ids=["config", "arena"])
    @pytest.mark.parametrize("make", [
        lambda path: path.write_text("{not json"),
        lambda path: path.write_bytes(b'{"run": {"seed": 1}}\xff'),
        lambda path: None,
        lambda path: path.mkdir(),
        lambda path: path.write_text("[" * 100_000),
    ], ids=["bad-json", "undecodable", "missing", "directory", "deep"])
    def test_corrupt_config_exits_2(self, tmp_path, capsys, make, as_arena):
        bad = tmp_path / "cfg.json"
        make(bad)
        argv = ["--set", f"arena={json.dumps(str(bad))}"] if as_arena else ["--config", str(bad)]
        assert run_cli("run", *argv, "--out", str(tmp_path / "o")) == 2
        err = capsys.readouterr().err
        assert err.startswith(f"config error: {'arena' if as_arena else bad}: "), err
        assert not (tmp_path / "o").exists()

    def test_out_that_is_a_file_exits_1(self, tmp_path, capsys):
        out = tmp_path / "taken"
        out.write_text("")
        assert run_cli("run", "--duration", "1", "--out", str(out)) == 1
        assert capsys.readouterr().err.startswith("i/o error: ")
        assert out.read_text() == ""

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
        (["--set", "run.duration=abc"], "run.duration"),
        (["--set", "run.duration=null"], "run.duration"),
        (["--set", "run.seed=1.5x"], "run.seed"),
        (["--set", "run.control_dt=0.3", "--set", "run.duration=1"], "run.duration"),
        (["--set", "policy.k_wall=-1"], "config error: policy.k_wall: "),
        (["--set", "camera.max_range=0"], "config error: camera.max_range: "),
        (["--set", "detector.p_detect=2"], "config error: detector.p_detect: "),
        (["--set", "run.seed=1.5"], "config error: run.seed: "),
        (["--set", "run.seed=18446744073709551616"], "config error: run.seed: "),
        (["--set", "run.seed=-1"], "config error: run.seed: "),
        (["--seed", "-1"], "config error: run.seed: "),
        (["--set", "policy.cruise_speed=true"], "config error: policy.cruise_speed: "),
        (["--set", "heatmap.saturation_s=0"], "config error: heatmap.saturation_s: "),
        (["--set", "heatmap.saturation_s=abc"], "config error: heatmap.saturation_s: "),
        (["--set", "arena=no-such-arena.json"], "config error: arena: "),
        (["--set", 'arena={"width":true,"height":5.5}'], "config error: arena: width: "),
        (["--set", 'arena={"width":"6.5","height":5.5}'], "config error: arena: width: "),
        (["--set", arena_with(pos=[math.nan, 1])], "config error: arena: objects[0].pos: "),
        (["--set", arena_with(radius=math.nan)], "config error: arena: objects[0].radius: "),
        (["--set", arena_with(radius="abc")], "config error: arena: objects[0].radius: "),
        (["--set", arena_with(id=True)], "config error: arena: objects[0].id: "),
        (["--set", 'arena={"width":6.5,"height":5.5,"objects":5}'],
         "config error: arena: objects: "),
        (["--set", 'arena={"width":6.5,"height":5.5,"obstacles":null}'],
         "config error: arena: obstacles: "),
        (["--set", 'arena={"width":6.5,"height":5.5,"extra":1}'], "config error: arena: extra: "),
        (["--set", arena_with(colour="red")], "config error: arena: objects[0].colour: "),
        (["--set", "run.control_dt=0.0001"], "config error: run.control_dt: "),
        (["--set", "run.control_dt=5e-324"], "config error: run.control_dt: "),
        (["--duration", "1e308"], "config error: run.duration: "),
        (["--duration", "20000.02"], "config error: run.duration: "),  # 10^6 + 1 ticks
        (["--duration", "10", "--set", "tof.rate_hz=1e308"], "config error: tof.rate_hz: "),
        (["--set", 'arena={"width":1e300,"height":1}'], "config error: arena: width: "),
        (["--duration", "10", "--detector", "ssd-1.0", "--set", "detector.fps=1e12"],
         "config error: detector.fps: "),
        # a tick this long put the first detector frame at tick 0, which never comes
        (["--set", "run.control_dt=1000000", "--set", "run.duration=2000000",
          "--speed", "1e-9", "--set", "policy.turn_rate=1e-9", "--detector", "ssd-1.0",
          "--set", "detector.p_detect=1", "--set", "detector.fps=1000"],
         "config error: run.control_dt: "),
        # 1e-170 m squares to 0, which let the airframe's centre into the box
        (["--set", 'arena={"width":6.5,"height":5.5,'
                   '"obstacles":[{"min":[1.5,1.5],"max":[2.2,2.2]}]}',
          "--set", "run.start=[1.3,1.8,0.0]", "--set", "run.drone_radius=1e-170",
          "--set", "policy.trigger_dist=0.011", "--duration", "5"],
         "config error: run.drone_radius: "),
        # the command limits are the bounds of the keys they limit
        (["--set", "run.v_max=2"], "config error: run.v_max: unknown config key"),
        # decodes, but is too deep to copy or echo in full
        (["--set", f"run.seed={DEEP}"], "config error: run.seed: "),
        (["--config", {"run": {"seed": json.loads(DEEP)}}], "config error: run.seed: "),
        # past the decoder's recursion limit
        (["--set", "run.seed=" + "[" * 100_000], "config error: run.seed: not valid JSON: "),
        (["--set", "run=5"], "config error: run: expected an object"),
        (["--config", [1]], "top level must be an object"),
        (["--duration", "0.001"], "config error: run.duration: shorter than one control tick"),
    ])
    def test_bad_value_exits_2_naming_field(self, tmp_path, capsys, argv, field):
        if isinstance(argv[-1], (dict, list)):  # a --config document: written to a file
            (tmp_path / "cfg.json").write_text(json.dumps(argv[-1]))
            argv = [*argv[:-1], str(tmp_path / "cfg.json")]
        assert run_cli("run", "--out", str(tmp_path / "o"), *argv) == 2
        err = capsys.readouterr().err
        assert err.startswith("config error: ") and field in err
        assert "[" * 8 not in err  # a bad value is echoed to a bounded depth
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
        rows = parse_runs_csv((out / "runs.csv").read_text().splitlines())
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
        rows = parse_runs_csv((out / "runs.csv").read_text().splitlines())
        assert len(rows) == 12  # 4 policies x 3 speeds

    def test_detector_sweep_without_objects_leaves_rates_blank(self, tmp_path):
        out = tmp_path / "empty"
        assert run_cli("sweep", "--runs-per-config", "1", "--out", str(out),
                       "--set", 'arena={"width":3,"height":3}',
                       "--set", 'sweep.detectors=["ssd-1.0"]',
                       "--set", 'sweep.policies=["pseudo-random"]',
                       "--set", "sweep.speeds=[0.5]", "--set", "sweep.duration=2.0") == 0
        assert sorted(p.name for p in out.iterdir()) == [
            "aggregate.csv", "detection_rates.csv", "heatmap_pseudo-random_0.5_ssd-1.0.csv",
            "heatmap_pseudo-random_0.5_ssd-1.0.pgm", "runs.csv"]
        assert (out / "detection_rates.csv").read_text().splitlines()[1] == "ssd-1.0,0.500,"
        assert (out / "aggregate.csv").read_text().splitlines()[1].endswith(",,")

    def test_jobs_flag_matches_serial(self, tmp_path):
        serial, parallel = tmp_path / "serial", tmp_path / "parallel"
        run_cli("sweep", "--runs-per-config", "1", "--out", str(serial), *SMALL_SWEEP)
        run_cli("sweep", "--runs-per-config", "1", "--jobs", "2",
                "--out", str(parallel), *SMALL_SWEEP)
        assert (serial / "runs.csv").read_bytes() == (parallel / "runs.csv").read_bytes()

    def test_broken_pool_exits_1_with_one_error_line(self, tmp_path, capsys, monkeypatch):
        class BrokenPool:
            def __init__(self, max_workers):
                pass

            def __enter__(self):
                return self

            def __exit__(self, *exc):
                return False

            def map(self, fn, items):
                raise BrokenProcessPool("A process in the process pool was terminated abruptly")

        monkeypatch.setattr("concurrent.futures.ProcessPoolExecutor", BrokenPool)
        monkeypatch.setattr(os, "cpu_count", lambda: 2)
        out = tmp_path / "o"
        assert run_cli("sweep", "--jobs", "2", "--out", str(out), *SMALL_SWEEP) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: a sweep worker process died: ")
        assert err.count("\n") == 1 and "Traceback" not in err
        assert not out.exists()

    @pytest.mark.skipif((os.cpu_count() or 1) < 2, reason="a pool needs 2 CPUs")
    def test_dying_worker_exits_1_with_one_error_line(self, tmp_path):
        # a worker of a forked pool inherits the patched module
        script = """if True:
            import multiprocessing, os, sys
            sys.path.insert(0, sys.argv[1])
            from exploresim import cli, harness
            fly_logged = harness.fly_logged

            def dying(cfgs, *args, **kw):
                if cfgs[0].policy == "spiral":
                    os._exit(3)
                return fly_logged(cfgs, *args, **kw)

            multiprocessing.set_start_method("fork")
            harness.fly_logged = dying
            sys.exit(cli.main(sys.argv[2:]))
        """
        out = tmp_path / "o"
        proc = run_python(script, "sweep", "--jobs", "2", "--runs-per-config", "1",
                          "--set", "sweep.duration=1", "--out", str(out), cwd=tmp_path)
        assert proc.returncode == 1
        assert proc.stdout == ""
        assert proc.stderr.startswith("error: a sweep worker process died: ")
        assert proc.stderr.count("\n") == 1 and "Traceback" not in proc.stderr
        assert not out.exists()

    @pytest.mark.parametrize("argv, field", [
        (["--set", 'sweep.speeds=["a"]'], "sweep.speeds"),
        (["--set", "sweep.speeds=0.5"], "sweep.speeds"),
        (["--set", 'sweep.policies=["bogus"]'], "sweep.policies"),
        (["--set", "sweep.runs_per_config=0"], "sweep.runs_per_config"),
        (["--set", "sweep.duration=NaN"], "sweep.duration"),
        (["--set", "sweep.speeds=[5]"], "sweep.speeds"),
        (["--set", "run.drone_radius=NaN"], "run.drone_radius"),
        (["--set", "run.drone_radius=NaN", "--jobs", "2"], "run.drone_radius"),
        (["--set", "sweep.runs_per_config=2.7"], "config error: sweep.runs_per_config: "),
        (["--set", "heatmap.saturation_s=0"], "config error: heatmap.saturation_s: "),
        (["--set", "sweep.duration=1.011"], "config error: sweep.duration: "),
        (["--set", "sweep.duration=1e308"], "config error: sweep.duration: "),
        (["--set", "sweep.speeds=[1.5]"], "config error: sweep.speeds: "),
        # the template's own duration is checked too, though a sweep flies sweep.duration
        (["--set", "run.duration=0.03"], "config error: run.duration: "),
        (["--jobs", "0"], "config error: --jobs: must be an integer >= 1, got 0"),
        (["--jobs", "-4"], "config error: --jobs: must be an integer >= 1, got -4"),
        # a sweep runs sweep.detectors; the template's detector is not dropped silently
        (["--set", "detector.model=ssd-1.0"], "config error: detector.model: "),
        (["--set", "detector.p_detect=0.0", "--set", "detector.fps=50",
          "--set", 'sweep.detectors=["ssd-1.0"]'], "config error: detector.model: "),
        # a repeated configuration would be listed, aggregated and seeded twice
        (["--set", "sweep.speeds=[0.5,0.5]"], "config error: sweep.speeds: "),
        (["--set", 'sweep.policies=["spiral","spiral"]'], "config error: sweep.policies: "),
        (["--set", 'sweep.detectors=["ssd-1.0","ssd-1.0"]'], "config error: sweep.detectors: "),
        (["--set", "sweep.detectors=[null,null]"], "config error: sweep.detectors: "),
        # runs.csv shows a speed to three decimals, the run seeds' label to six
        (["--set", "sweep.speeds=[0.5,0.5000001]"], "config error: sweep.speeds: "),
        (["--set", "sweep.speeds=[0.5,0.5004]"], "config error: sweep.speeds: "),
    ])
    def test_bad_value_exits_2_naming_field(self, tmp_path, capsys, argv, field):
        assert run_cli("sweep", "--out", str(tmp_path / "o"), *argv) == 2
        err = capsys.readouterr().err
        assert err.startswith("config error: ") and field in err
        assert not (tmp_path / "o").exists()

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

    def test_header_only_trajectory_exits_1(self, tmp_path, capsys):
        out = tmp_path / "mission"
        assert run_cli("run", "--duration", "1", "--out", str(out)) == 0
        (out / "trajectory.csv").write_text("t,x,y,heading,v_cmd,omega_cmd\n")
        assert run_cli("report", "--in", str(out)) == 1
        assert "no samples" in capsys.readouterr().err

    @pytest.mark.parametrize("body", ["", "\n\n"])
    def test_header_only_runs_table_exits_1(self, tmp_path, capsys, body):
        # and writes nothing: not a header-only aggregate over the sweep's own
        src = tmp_path / "sweep"
        run_cli("sweep", "--runs-per-config", "1", "--out", str(src), *SMALL_SWEEP)
        runs = src / "runs.csv"
        runs.write_text(runs.read_text().splitlines(keepends=True)[0] + body)
        aggregate = (src / "aggregate.csv").read_bytes()
        assert run_cli("report", "--in", str(src)) == 1
        assert capsys.readouterr().err == f"error: {runs}: no runs\n"
        assert (src / "aggregate.csv").read_bytes() == aggregate
        assert run_cli("report", "--in", str(src), "--out", str(tmp_path / "report")) == 1
        assert not (tmp_path / "report").exists()

    @pytest.mark.parametrize("artifact, line_no, text, message", [
        ("trajectory.csv", 4, None, "line 4: t does not increase"),  # a copy of line 3
        ("trajectory.csv", 3, "0.040000", "line 3: "),
        ("trajectory.csv", 3, "0.040000,x,1,0,0,0", "line 3: "),
        ("summary.json", 1, "{not json", ""),
        ("summary.json", 3, '  "room": {', "no arena width and height, coverage and digest: "),
        ("trajectory.csv", 3, "0.040000,inf,1,0,0,0", "line 3: "),
        ("trajectory.csv", 3, "0.040000,nan,1,0,0,0", "line 3: "),
    ])
    def test_malformed_run_artifact_exits_1(self, tmp_path, capsys, artifact, line_no, text,
                                            message):
        src, out = tmp_path / "mission", tmp_path / "report"
        assert run_cli("run", "--duration", "1", "--out", str(src)) == 0
        path = src / artifact
        lines = path.read_text().splitlines()
        lines[line_no - 1] = lines[line_no - 2] if text is None else text
        path.write_text("\n".join(lines) + "\n")
        assert run_cli("report", "--in", str(src), "--out", str(out)) == 1
        assert capsys.readouterr().err.startswith(f"error: {path}: {message}")
        assert not out.exists()

    def test_sample_outside_the_room_exits_1(self, tmp_path, capsys):
        # only a collision's final sample may lie outside the room
        src, out = tmp_path / "mission", tmp_path / "report"
        assert run_cli("run", "--duration", "1", "--out", str(src)) == 0
        path = src / "trajectory.csv"
        lines = path.read_text().splitlines()
        fields = lines[2].split(",")
        lines[2] = ",".join([fields[0], "1000000.000000", *fields[2:]])
        path.write_text("\n".join(lines) + "\n")
        assert run_cli("report", "--in", str(src), "--out", str(out)) == 1
        assert capsys.readouterr().err.startswith(f"error: {path}: line 3: ")
        assert not out.exists()

    def test_final_sample_is_clamped_into_the_room(self, tmp_path):
        # one 1 m tick from x = 6.0 ends the flight, and its log, at x = 7.0
        src, out = tmp_path / "mission", tmp_path / "report"
        assert run_cli("run", "--duration", "2", "--set", "run.control_dt=1.0",
                       "--set", "run.start=[6.0,2.75,0.0]", "--set", "policy.cruise_speed=1.0",
                       "--set", "policy.trigger_dist=0.05", "--out", str(src)) == 0
        last = (src / "trajectory.csv").read_text().splitlines()[-1]
        assert last.split(",")[:2] == ["1.000000", "7.000000"]
        assert run_cli("report", "--in", str(src), "--out", str(out)) == 0
        series = (out / "coverage_series.csv").read_text().splitlines()
        assert series[-1] == f"1.000000,{1 / 143:.6f}"  # the edge cell the crash is clamped to

    def test_deeply_nested_summary_exits_1(self, tmp_path, capsys):
        src, out = tmp_path / "mission", tmp_path / "report"
        assert run_cli("run", "--duration", "1", "--out", str(src)) == 0
        (src / "summary.json").write_text("[" * 100_000)
        assert run_cli("report", "--in", str(src), "--out", str(out)) == 1
        assert capsys.readouterr().err.startswith(f"error: {src / 'summary.json'}: not valid JSON: ")
        assert not out.exists()

    @pytest.mark.parametrize("edit, field", [
        (lambda lines: lines.__setitem__(10, lines[10].replace(",3.", ",2.", 1)), "digest"),
        (lambda lines: lines.__setitem__(10, lines[10].rsplit(",", 2)[0] + ",0.400000,0.000000"),
         "digest"),
        (lambda lines: lines.pop(10), "digest"),
        (None, "digest"),  # summary.json of another run
        (lambda lines: None, "coverage"),  # summary.json's coverage edited
    ], ids=["coordinate", "setpoint", "dropped-row", "swapped-summary", "coverage"])
    def test_run_that_differs_from_its_summary_exits_1(self, tmp_path, capsys, edit, field):
        src, other, out = tmp_path / "mission", tmp_path / "other", tmp_path / "report"
        assert run_cli("run", "--duration", "1", "--out", str(src)) == 0
        path, summary = src / "trajectory.csv", src / "summary.json"
        if edit is None:
            assert run_cli("run", "--duration", "1", "--speed", "1.0", "--out", str(other)) == 0
            summary.write_bytes((other / "summary.json").read_bytes())
        elif field == "coverage":
            summary.write_text(summary.read_text().replace('"coverage": 0.', '"coverage": 0.9'))
        else:
            lines = path.read_text().splitlines()
            edit(lines)
            path.write_text("\n".join(lines) + "\n")
        assert run_cli("report", "--in", str(src), "--out", str(out)) == 1
        err = capsys.readouterr().err
        assert err.startswith(f"error: {path}: {field} ")
        assert f"does not match {summary}'s " in err
        assert not out.exists()

    @pytest.mark.parametrize("row", [
        "pseudo-random,0.5",
        "pseudo-random,0.500,none,1,8,nan,,0,40.1,0123456789abcdef",
    ], ids=["short", "nan-coverage"])
    def test_malformed_runs_row_exits_1(self, tmp_path, capsys, row):
        src, out = tmp_path / "sweep", tmp_path / "report"
        assert run_cli("sweep", "--runs-per-config", "1", "--out", str(src), *SMALL_SWEEP) == 0
        path = src / "runs.csv"
        path.write_text(path.read_text() + row + "\n")
        assert run_cli("report", "--in", str(src), "--out", str(out)) == 1
        assert capsys.readouterr().err.startswith(f"error: {path}: line 4: ")
        assert not out.exists()

    @pytest.mark.parametrize("text, line_no", [
        ("object_id,class,t_first_seen\nnot,a,row,at,all\n", 2),
        ("object_id,class,t_first_seen\n1,bottle,nan\n", 2),
        ("object_id,class,t_first_seen\n1,bottle,1.000000\nx,cup,2.000000\n", 3),
        ("object_id,class,t_first_seen\n1,,1.000000\n", 2),
        ("object_id,class,t_first_seen\n1,bottle\n", 2),
        ("1,bottle,1.000000\n", 1),  # no header row
        ("", 1),
    ])
    def test_malformed_detections_exit_1(self, tmp_path, capsys, text, line_no):
        src, out = tmp_path / "mission", tmp_path / "report"
        assert run_cli("run", "--duration", "1", "--out", str(src)) == 0
        path = src / "detections.csv"
        path.write_text(text)
        assert run_cli("report", "--in", str(src), "--out", str(out)) == 1
        assert capsys.readouterr().err.startswith(f"error: {path}: line {line_no}: ")
        assert not out.exists()

    def test_undecodable_byte_mid_stream_exits_1(self, tmp_path, capsys):
        # past the first read of the file: the replay has begun when it fails
        src, out = tmp_path / "mission", tmp_path / "report"
        assert run_cli("run", "--duration", "10", "--out", str(src)) == 0
        path = src / "trajectory.csv"
        data = path.read_bytes()
        assert len(data) > 3 * 8192
        path.write_bytes(data[:-20] + b"\xff" + data[-19:])
        assert run_cli("report", "--in", str(src), "--out", str(out)) == 1
        assert capsys.readouterr().err.startswith(f"error: {path}: ")
        assert not out.exists()

    @pytest.mark.parametrize("edits, message", [
        # t stops increasing on line 4, line 6 does not parse
        ({4: 3, 6: "0.100000,x,1,0,0,0"}, "line 4: t does not increase"),
        # line 3 lies outside the room and is not the last; line 4 does not parse
        ({3: "0.020000,1000000.000000,1,0,0,0", 4: "0.040000"}, "line 3: "),
        # line 5 lies outside the room and is not the last; line 7 repeats line 6
        ({5: "0.060000,3.250000,-1.000000,0,0,0", 7: 6}, "line 5: "),
        # past the first block of the log: line 1200 repeats line 1199, line
        # 1300 does not parse
        ({1200: 1199, 1300: "0.100000,x,1,0,0,0"}, "line 1200: t does not increase"),
        # a byte outside ASCII (é, 0xe9 in Latin-1) is a malformed line: line
        # 11 repeats line 10, and line 50 holds the byte, in the same 8 KB
        ({11: 10, 50: "0.960000,é"}, "line 11: t does not increase"),
        # line 11 lies outside the room, line 646 holds the byte
        ({11: "0.180000,-5.000000,2.750000,0,0,0", 646: "12.900000,é"},
         "line 11: (-5.0, 2.75) lies outside the 6.5 x 5.5 m room"),
        # a lone byte, past the first block
        ({2000: "39.960000,é"}, "line 2000: 'ascii' codec can't decode byte 0xe9 in position 10: "),
    ])
    def test_first_bad_line_in_file_order_is_named(self, tmp_path, capsys, edits, message):
        src, out = tmp_path / "mission", tmp_path / "report"
        # a run of 50 rows a second, long enough for every edited line
        duration = "1" if max(edits) < 50 else "60"
        assert run_cli("run", "--duration", duration, "--out", str(src)) == 0
        path = src / "trajectory.csv"
        lines = path.read_text().splitlines()
        for line_no, text in edits.items():
            lines[line_no - 1] = lines[text - 1] if isinstance(text, int) else text
        path.write_text("\n".join(lines) + "\n", encoding="latin-1")
        assert run_cli("report", "--in", str(src), "--out", str(out)) == 1
        assert capsys.readouterr().err.startswith(f"error: {path}: {message}")
        assert not out.exists()

    @pytest.mark.parametrize("edit", [
        # the last digit of the busiest cell, one up
        lambda rows: "line {}: cell {} holds ".format(*_bump_busiest(rows, 1e-6)),
        # north and south swapped: the first line that changed is named
        lambda rows: "line {}: cell ".format(_mirror(rows)),
        # a row dropped
        lambda rows: rows.pop() and "10 x 13 cells, the 6.5 x 5.5 m room has 11 x 13",
        # the same values, written with fewer decimals
        lambda rows: rows.__setitem__(0, [float(v) for v in rows[0]]) or "not a dwell matrix",
        # a blank line between rows, and one after the last
        lambda rows: rows.insert(5, [""]) or "not a dwell matrix",
        lambda rows: rows.append([""]) or "not a dwell matrix",
        # a row of the 2000 x 2000 matrix: refused at its first line, as heatmap --in does
        lambda rows: rows.__setitem__(0, ["0.000000"] * 2000)
        or "line 1: longer than 3000 characters, a row of the largest room",
    ], ids=["last-digit", "mirrored", "dropped-row", "reformatted", "blank-line", "blank-last-line",
            "oversized-row"])
    def test_edited_heatmap_csv_exits_1(self, tmp_path, capsys, edit):
        src, out = tmp_path / "mission", tmp_path / "report"
        assert run_cli("run", "--duration", "20", "--out", str(src)) == 0
        path = src / "heatmap.csv"
        rows = [line.split(",") for line in path.read_text().splitlines()]
        message = edit(rows)
        path.write_text("".join(",".join(map(str, row)) + "\n" for row in rows))
        assert run_cli("report", "--in", str(src), "--out", str(out)) == 1
        assert capsys.readouterr().err.startswith(f"error: {path}: {message}")
        assert not (out / "coverage_series.csv").exists() and not out.exists()

    @pytest.mark.parametrize("control_dt", ["0.02", "0.016666666666666666", "0.0123"])
    def test_heatmap_of_any_control_step_is_vouched_for(self, tmp_path, control_dt):
        # at 60 Hz the log's six-decimal times are not whole multiples of dt:
        # the replayed dwell differs from the flight's in the last digit
        src = tmp_path / "mission"
        for policy in ("pseudo-random", "rotate-and-measure"):
            assert run_cli("run", "--policy", policy, "--duration", "36.9",
                           "--set", f"run.control_dt={control_dt}", "--out", str(src)) == 0
            assert run_cli("report", "--in", str(src)) == 0

    def test_crlf_log_exits_1(self, tmp_path, capsys):
        # the digest is of the log's bytes: line ends are not translated on reading
        src, out = tmp_path / "mission", tmp_path / "report"
        assert run_cli("run", "--duration", "5", "--policy", "spiral", "--out", str(src)) == 0
        path = src / "trajectory.csv"
        path.write_bytes(path.read_bytes().replace(b"\n", b"\r\n"))
        assert run_cli("report", "--in", str(src), "--out", str(out)) == 1
        assert capsys.readouterr().err.startswith(f"error: {path}: line 1: expected the header")
        assert not out.exists()

    @pytest.mark.parametrize("fault", ["malformed-first-line", "outside-last-line",
                                       "digit-in-last-block"])
    def test_fault_at_a_block_boundary_exits_1(self, tmp_path, capsys, fault):
        src, out = tmp_path / "mission", tmp_path / "report"
        assert run_cli("run", "--duration", "30", "--out", str(src)) == 0
        path, summary = src / "trajectory.csv", src / "summary.json"
        blocks = log_blocks(path)
        assert len(blocks) >= 3
        lines = [line for block in blocks for line in block]
        if fault == "malformed-first-line":  # of the second block
            n = len(blocks[0]) + 1
            fields = lines[n - 1].split(",")
            lines[n - 1] = ",".join([fields[0], "x", *fields[2:]])
            message = f"line {n}: could not convert string to float: 'x'"
        elif fault == "outside-last-line":  # of the first block, a longer line than it was
            n = len(blocks[0])
            fields = lines[n - 1].split(",")
            lines[n - 1] = ",".join([fields[0], "1000000.000000", *fields[2:]])
            message = f"line {n}: (1000000.0, {float(fields[2])}) lies outside the 6.5 x 5.5 m room"
        else:  # the last digit of the first line of the last block
            n = len(lines) - len(blocks[-1]) + 1
            lines[n - 1] = lines[n - 1][:-2] + str(9 - int(lines[n - 1][-2])) + "\n"
            recorded = json.loads(summary.read_text())["digest"]
            replayed = hashlib.blake2b("".join(lines).encode("ascii"), digest_size=8).hexdigest()
            message = f"digest {replayed} does not match {summary}'s {recorded!r}"
        path.write_text("".join(lines), encoding="ascii", newline="\n")
        edited = log_blocks(path)
        assert [len(block) for block in edited] == [len(block) for block in blocks]
        assert edited[0][-1] == lines[len(blocks[0]) - 1]
        assert run_cli("report", "--in", str(src), "--out", str(out)) == 1
        assert capsys.readouterr().err == f"error: {path}: {message}\n"
        assert not out.exists()


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

    def test_a_room_of_200_cells_a_side_renders(self, tmp_path):
        # the longest line there is: a cell holds at most a flight's 10**6 s
        csv = tmp_path / "wide.csv"
        csv.write_text(",".join(["9999999.999999"] * 200) + "\n")
        assert len(csv.read_text()) == MAX_CSV_LINE
        assert run_cli("heatmap", "--in", str(csv)) == 0
        assert (tmp_path / "wide.pgm").read_bytes().startswith(b"P5\n6400 32\n255\n")

    def test_missing_csv_exits_1(self, tmp_path):
        assert run_cli("heatmap", "--in", str(tmp_path / "nope.csv")) == 1

    @pytest.mark.parametrize("saturation", ["0", "-1", "nan", "inf"])
    def test_bad_saturation_exits_2(self, tmp_path, capsys, saturation):
        out = tmp_path / "mission"
        run_cli("run", "--duration", "1", "--out", str(out))
        pgm = tmp_path / "again.pgm"
        assert run_cli("heatmap", "--in", str(out / "heatmap.csv"), "--out", str(pgm),
                       "--saturation", saturation) == 2
        assert capsys.readouterr().err.startswith("config error: --saturation: ")
        assert not pgm.exists()

    @pytest.mark.parametrize("text, message", [
        ("1,2\nx,3\n", "line 2: "),
        ("1,2\n3\n", "line 2: "),
        ("1,nan\n3,4\n", "line 1: "),
        ("", "empty dwell matrix"),
        ("\n \n", "empty dwell matrix"),
        # no room has more than 200 cells on a side, and a cell takes 1 kB of PGM
        (",".join(["0"] * 201) + "\n", "line 1: 201 cells, more than the 200 a side"),
        ("0\n" * 201, "line 201: row 201, more than the 200 a side"),
        ("\n" + "0\n" * 200 + "x\n" * 3, "line 202: row 201, more than the 200 a side"),
        # nor a line longer than a row of the largest room's longest flight
        pytest.param("0" * 3000 + "\n",
                     "line 1: longer than 3000 characters, a row of the largest room",
                     id="long-line"),
        pytest.param("0\n" + "0" * 10**6, "line 2: longer than 3000 characters",
                     id="long-last-line"),
        pytest.param("1,2\n" + " " * 3001 + "\n", "line 2: longer than 3000 characters",
                     id="long-blank-line"),
    ])
    def test_malformed_csv_exits_1(self, tmp_path, capsys, text, message):
        csv = tmp_path / "dwell.csv"
        csv.write_text(text)
        assert run_cli("heatmap", "--in", str(csv)) == 1
        assert capsys.readouterr().err.startswith(f"error: {csv}: {message}")
        assert not (tmp_path / "dwell.pgm").exists()

    @pytest.mark.parametrize("text, line_no", [
        ("0\n" * 201, 201),
        (",".join(["0"] * 201) + "\n", 1),
        ("0,0\n\n" + ",".join(["0"] * 201) + "\n", 3),
        ("0" * 10**5, 1),
        ("0,0\n" + "0," * 10**5, 2),
    ], ids=["rows", "cells", "cells-of-a-later-row", "long-line", "long-later-line"])
    def test_an_oversized_matrix_is_refused_before_the_next_line_is_read(self, text, line_no):
        f = io.StringIO(text + "x\n" * 3)
        with pytest.raises(SimError, match=f"^line {line_no}: "):
            parse_dwell_csv(f)
        # the lines before the refused one, and that one up to the bound
        *before, refused = text.splitlines(keepends=True)[:line_no]
        assert f.tell() == sum(map(len, before)) + min(len(refused), MAX_CSV_LINE + 1)

    def test_report_reads_an_oversized_heatmap_csv_no_further_than_parsing_it(self):
        # a 2000-cell row: each cell 9 characters, so line 1 is past the bound
        f = io.StringIO(("0.000000," * 1999 + "0.000000\n") * 5)
        with pytest.raises(SimError, match="^line 1: longer than 3000 characters"):
            report.check_heatmap_csv(f, OccupancyGrid(6.5, 5.5))
        assert f.tell() == MAX_CSV_LINE + 1


def test_help_documents_config_keys(capsys):
    with pytest.raises(SystemExit) as exc:
        run_cli("--help")
    assert exc.value.code == 0
    text = capsys.readouterr().out
    for key in ("policy.cruise_speed", "tof.max_range", "camera.fov_deg",
                "detector.model", "sweep.runs_per_config", "run.seed"):
        assert key in text


# the stages of ``command_modules``, in order: each one's argv
COMMAND_STAGES = {
    "run": ["run", "--duration", "1", "--out", "r"],
    "report": ["report", "--in", "r"],
    "sweep": ["sweep", "--jobs", "1", "--runs-per-config", "1", "--set", "sweep.duration=1",
              "--out", "s"],
    "run --detector": ["run", "--detector", "ssd-1.0", "--duration", "1", "--out", "d"],
}
STAGES = ("import", *COMMAND_STAGES)  # command_modules' module lists, in order


@pytest.fixture(scope="module")
def command_modules(tmp_path_factory):
    """In one fresh, isolated interpreter without the site module: the
    modules loaded after ``import exploresim.cli`` and after each stage of
    :data:`COMMAND_STAGES` (only the last flies a detector); then the
    exploresim classes that carry ``__dataclass_fields__``, found by
    importing every module."""
    script = """if True:
        import json, sys
        sys.path.insert(0, sys.argv[1])
        import exploresim
        from exploresim import cli

        found = {"import": sorted(sys.modules)}
        for stage, argv in json.loads(sys.argv[2]).items():
            assert cli.main(argv) == 0
            found[stage] = sorted(sys.modules)
        import importlib, pkgutil  # pkgutil loads typing
        found["dataclasses"] = []
        for info in pkgutil.iter_modules(exploresim.__path__):
            if info.name == "__main__":  # importing it runs the command line
                continue
            module = importlib.import_module(f"exploresim.{info.name}")
            found["dataclasses"] += [cls.__qualname__ for cls in vars(module).values()
                                     if isinstance(cls, type) and cls.__module__ == module.__name__
                                     and hasattr(cls, "__dataclass_fields__")]
        print(json.dumps(found))
    """
    proc = run_python(script, json.dumps(COMMAND_STAGES), cwd=tmp_path_factory.mktemp("imports"))
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout.splitlines()[-1])


def loaded_after_each_command(found, prefixes):
    """The modules named by ``prefixes`` (or in a package they name) that
    ``found`` lists after the import and after each command stage."""
    return {stage: [m for m in found[stage] if m in prefixes or m.startswith(
        tuple(f"{p}." for p in prefixes))] for stage in STAGES}


NONE_LOADED = {stage: [] for stage in STAGES}


def test_no_command_but_a_parallel_sweep_imports_a_process_pool(command_modules):
    # every command pays for its imports before its first tick
    assert loaded_after_each_command(command_modules, ("concurrent.futures", "multiprocessing")) \
        == NONE_LOADED


def test_no_class_is_a_dataclass_and_no_command_imports_dataclasses(command_modules):
    # a dataclass generates its methods when its module is imported, and
    # `dataclasses` loads `inspect`: every command would pay for both.  The
    # config models are kinds.Model classes, records collections.namedtuple
    # types and run states slotted kinds.Fieldwise classes
    assert command_modules["dataclasses"] == []
    assert loaded_after_each_command(command_modules, ("dataclasses", "inspect")) == NONE_LOADED


def test_no_command_imports_typing_or_openssl(command_modules):
    # a typing.NamedTuple class costs more to build than a collections.namedtuple,
    # and hashlib loads OpenSSL's _hashlib only to hand out _blake2.blake2b
    assert loaded_after_each_command(command_modules, ("typing", "hashlib", "_hashlib")) \
        == NONE_LOADED


def test_no_command_imports_copy_or_heapq(command_modules):
    # load_config copies the defaults by parsing their JSON text, and each
    # mission fires its detector frames from its own ledger, merging no
    # streams: the last stage flies a detector
    assert loaded_after_each_command(command_modules, ("copy", "heapq", "_heapq")) \
        == NONE_LOADED


def test_only_report_imports_tempfile(command_modules):
    # a run's report keeps its coverage series in a temporary file; before
    # it, no stage has imported tempfile
    assert [stage for stage in STAGES if "tempfile" in command_modules[stage]] \
        == ["report", "sweep", "run --detector"]


def _bump_busiest(rows, delta):
    """Add ``delta`` to the largest dwell of heatmap rows (text cells) and
    return its ``(line, cell)``, both counted from 1."""
    line, cell = max(((r, c) for r in range(len(rows)) for c in range(len(rows[r]))),
                     key=lambda rc: float(rows[rc[0]][rc[1]]))
    rows[line][cell] = f"{float(rows[line][cell]) + delta:.6f}"
    return line + 1, cell + 1


def _mirror(rows):
    """Reverse heatmap rows in place; the first line that changed, from 1."""
    before = list(rows)
    rows.reverse()
    return next(n for n, (a, b) in enumerate(zip(before, rows), 1) if a != b)
