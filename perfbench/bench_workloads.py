"""Workloads of the exploresim benchmark and the checks on their outputs.

A workload is a sequence of batches.  Batch ``k`` of benchmark seed ``s``
runs pool entry ``(s + k) mod pool``; entry ``e`` uses program seed
``FIRST_BASE_SEED + e``.  Every pool entry is pinned in
``reference.json``, so the outputs of every batch of every seed are
checked against values taken from the commit that defined the benchmark.

A batch is a list of commands, each run in-process through
``exploresim.cli.main`` and closed loop: the next starts when the
previous returns.  This module imports nothing from exploresim, so the
fresh-process set-up probe can time that import itself.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import shutil
import sys
import time
import traceback
from dataclasses import dataclass
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORK = HERE / "out"
REFERENCE = HERE / "reference.json"

FIRST_BASE_SEED = 42
CONTROL_DT = 0.02  # the config default; no workload changes it
POLICIES = ("pseudo-random", "wall-following", "spiral", "rotate-and-measure")
SPEEDS = (0.1, 0.5, 1.0)  # the config default sweep speeds
MISSION_DETECTOR = "ssd-1.0"


@dataclass(frozen=True)
class Mission:
    key: str
    record: str   # "digest,coverage,detection_rate,collision" as the program prints them
    energy_j: float


@dataclass(frozen=True)
class Workload:
    name: str
    kind: str          # "sweep" or "mission"
    pool: int          # pinned batches

    def base_seed(self, seed: int, k: int) -> tuple[int, int]:
        entry = (seed + k) % self.pool
        return entry, FIRST_BASE_SEED + entry

    def commands(self, base_seed: int, work: Path) -> list[tuple[list[list[str]], Path]]:
        """(argv sequence, output directory) per command of one batch.

        A sweep batch is the whole default sweep, issued one (policy,
        speed) configuration per command so that each command is short
        enough to calibrate (see ``bench_calib``).  Run seeds depend only
        on the base seed and the configuration, so the missions are those
        of the single sweep.
        """
        cmds = []
        if self.kind == "sweep":
            for policy in POLICIES:
                for speed in SPEEDS:
                    out = work / f"{policy}-{speed}"
                    cmds.append(([["sweep", "--jobs", "1", "--seed", str(base_seed),
                                   "--set", f"sweep.policies={json.dumps([policy])}",
                                   "--set", f"sweep.speeds={json.dumps([speed])}",
                                   "--out", str(out)]], out))
            return cmds
        for policy in POLICIES:
            out = work / policy
            cmds.append(([["run", "--policy", policy, "--detector", MISSION_DETECTOR,
                           "--seed", str(base_seed), "--out", str(out)],
                          ["report", "--in", str(out)]], out))
        return cmds

    def warmup_command(self, work: Path) -> list[list[str]]:
        """A short command of the same kind, run once before timing."""
        out = str(work / "warmup")
        if self.kind == "sweep":
            return [["sweep", "--jobs", "1", "--runs-per-config", "1",
                     "--set", "sweep.duration=1", "--out", out]]
        return [["run", "--detector", MISSION_DETECTOR, "--duration", "1", "--out", out],
                ["report", "--in", out]]


WORKLOADS = {
    w.name: w for w in (
        # The paper's default sweep: per-tick control path only.
        Workload("sweep-empty", "sweep", pool=8),
        # Interactive path: run with a kept trajectory, then report replay.
        Workload("mission-artifacts", "mission", pool=64),
    )
}


def _sweep_missions(runs_csv: Path) -> list[Mission]:
    lines = runs_csv.read_text().splitlines()
    head = lines[0].split(",")
    col = {name: i for i, name in enumerate(head)}
    out = []
    for line in lines[1:]:
        f = line.split(",")
        key = "|".join(f[col[c]] for c in ("policy", "speed", "detector", "run"))
        record = ",".join(f[col[c]] for c in ("digest", "coverage", "detection_rate", "collision"))
        out.append(Mission(key, record, float(f[col["energy_j"]])))
    return out


def _run_mission(summary_json: Path) -> Mission:
    s = json.loads(summary_json.read_text())
    rate = "" if s["detection_rate"] is None else f"{s['detection_rate']:.6f}"
    record = f"{s['digest']},{s['coverage']:.6f},{rate},{int(s['collision']['occurred'])}"
    return Mission(f"{s['policy']}|{s['seed']}", record, float(s["energy_j"]["total"]))


def artifact_hash(out: Path) -> str:
    """blake2b over every file the command wrote, in name order."""
    h = hashlib.blake2b(digest_size=8)
    for path in sorted(p for p in out.rglob("*") if p.is_file()):
        h.update(path.relative_to(out).as_posix().encode() + b"\0")
        h.update(path.read_bytes())
    return h.hexdigest()


@dataclass
class CommandResult:
    wall_s: float
    ok: bool
    missions: list[Mission]
    artifacts: str


def run_command(main, argvs: list[list[str]], out: Path) -> CommandResult:
    """Run one command (its argv sequence back to back) and read its outputs."""
    sink = io.StringIO()
    ok = True
    start = time.perf_counter()
    with contextlib.redirect_stdout(sink):
        for argv in argvs:
            try:
                code = main(argv)
            except Exception:  # a raising mission is counted as failed, not fatal
                traceback.print_exc(file=sys.stderr)
                code = None
            if code != 0:
                ok = False
                break
    wall = time.perf_counter() - start
    missions: list[Mission] = []
    artifacts = ""
    if ok:
        try:
            missions = missions_of(out)
            artifacts = artifact_hash(out)
        except (OSError, ValueError, KeyError, IndexError):
            ok = False
    shutil.rmtree(out, ignore_errors=True)
    return CommandResult(wall, ok, missions, artifacts)


def missions_of(out: Path) -> list[Mission]:
    if (out / "runs.csv").exists():
        return _sweep_missions(out / "runs.csv")
    return [_run_mission(out / "summary.json")]


def command_failures(result: CommandResult, ref: dict) -> int:
    """Missions of one command that raised or differ from the pinned record.

    A difference in any written artifact fails every mission of the command.
    """
    expected = ref["missions"]
    if not result.ok or result.artifacts != ref["artifacts"]:
        return len(expected)
    got = {m.key: m.record for m in result.missions}
    bad = sum(1 for key, record in expected.items() if got.get(key) != record)
    return min(len(expected), bad + len(got.keys() - expected.keys()))


def load_reference(path: Path = REFERENCE) -> dict:
    return json.loads(path.read_text())
