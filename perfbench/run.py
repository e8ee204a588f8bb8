#!/usr/bin/env python3
"""The exploresim benchmark.

Drives exploresim from outside, in-process through ``exploresim.cli.main``
(which calls ``harness.run_sweep`` and ``harness.run_single``), on one of
the workloads in ``bench_workloads.py``, closed loop, for a fixed time.

    python3 perfbench/run.py --workload sweep-empty --seed 0 --seconds 40 --trace 0

With ``--trace 0`` the run is untraced and reports the end-to-end
metrics.  With ``--trace 1`` it measures half the time untraced and half
with every layer wrapped (``bench_trace.py``), and reports the per-layer
metrics, the tracing slowdown and the deterministic ``sim.*`` counts of
the first batch.  Every mission is checked against ``reference.json``.
The last line of standard output is the result object; the line before
it holds the environment record, the digest set and the failed fraction.
The exit code is 0 when every output matched its reference.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass, field
from pathlib import Path

import bench_trace
from bench_calib import NOMINAL_S, kernel_seconds
from bench_workloads import (CONTROL_DT, HERE, REFERENCE, ROOT, WORK, WORKLOADS,
                             CommandResult, Workload, command_failures,
                             load_reference, run_command)
from setup_probe import NOMINAL_IMPORT_S

N_OBJECTS = 6          # both arenas place six target objects
SETUP_PROBES = 15
LAYERS = ("cli", "config", "harness", "sweep", "sensing", "arena", "policies", "vehicle",
          "metrics", "detection", "report")


def layer_of(span: str) -> str:
    """The layer a span's self time belongs to.

    ``harness.run_sweep``'s own time is kept apart from the run loop's:
    building the tasks, handing them out (to the process pool, at more
    than one job) and collecting the results.
    """
    return "sweep" if span == "harness.run_sweep" else span.split(".", 1)[0]


def import_program():
    """Import exploresim from this checkout's ``src/`` and nowhere else."""
    pkg = ROOT / "src" / "exploresim" / "__init__.py"
    if not pkg.is_file():
        raise SystemExit(f"error: {pkg} not found: run from a checkout of the repository")
    sys.path.insert(0, str(ROOT / "src"))
    import exploresim
    import exploresim.cli
    where = Path(exploresim.__file__).resolve()
    if where != pkg.resolve():
        raise SystemExit(f"error: exploresim imported from {where}, expected {pkg}")
    return exploresim


def environment(exploresim) -> dict:
    return {
        "python": platform.python_version(),
        "backend": exploresim.BACKEND,
        "exploresim_file": str(Path(exploresim.__file__).relative_to(ROOT)),
        "nproc": os.cpu_count(),
        "affinity": len(os.sched_getaffinity(0)),
        "loadavg_start": os.getloadavg(),
    }


def _probe(*args: str) -> dict:
    proc = subprocess.run([sys.executable, "-I", str(HERE / "setup_probe.py"), *args],
                          cwd=ROOT, capture_output=True, text=True, timeout=60, check=True)
    return json.loads(proc.stdout.strip().splitlines()[-1])


def setup_seconds(wl: Workload) -> list[float]:
    """Set-up times of fresh interpreters, each calibrated by a reference
    import in the fresh interpreter right after it; the first pair, which
    may compile, is dropped."""
    samples = []
    for _ in range(SETUP_PROBES + 1):
        probe = _probe("--workload", wl.name)
        if Path(probe["file"]).resolve() != (ROOT / "src" / "exploresim" / "__init__.py").resolve():
            raise SystemExit(f"error: set-up probe imported exploresim from {probe['file']}")
        ref = _probe("--reference")["reference_s"]
        samples.append(probe["setup_s"] * NOMINAL_IMPORT_S / ref)
    return samples[1:]


class Calibration:
    """Runs the reference kernel between commands and rescales their wall
    times by the mean kernel time just before and just after each."""

    def __init__(self):
        self.kernel_s = [kernel_seconds()]

    def host_s(self, wall_s: float) -> float:
        self.kernel_s.append(kernel_seconds())
        return wall_s * NOMINAL_S / ((self.kernel_s[-2] + self.kernel_s[-1]) / 2.0)


@dataclass
class Batch:
    entry: int
    commands: list[CommandResult]
    command_host_s: list[float]   # calibrated wall time per command
    attempted: int
    failed: int

    @property
    def missions(self):
        return [m for c in self.commands for m in c.missions]

    def sim_s(self, p_total: float) -> float:
        return sum(ticks(m, p_total) for m in self.missions) * CONTROL_DT

    def host_s(self) -> float:
        return sum(self.command_host_s)

    def wall_s(self) -> float:
        return sum(c.wall_s for c in self.commands)


def ticks(mission, p_total: float) -> int:
    """Control ticks flown, from the mission energy (constant power draw)."""
    return round(mission.energy_j / p_total / CONTROL_DT)


@dataclass
class Phase:
    batches: list[Batch] = field(default_factory=list)

    def rates(self, p_total: float) -> list[float]:
        return [b.sim_s(p_total) / b.host_s() for b in self.batches if b.host_s() > 0]

    def raw_rates(self, p_total: float) -> list[float]:
        return [b.sim_s(p_total) / b.wall_s() for b in self.batches if b.wall_s() > 0]


def run_batch(wl: Workload, seed: int, k: int, main, refs: list, cal: Calibration,
              after_command=None) -> Batch:
    entry, base_seed = wl.base_seed(seed, k)
    ref = refs[entry]
    results, host, attempted, failed = [], [], 0, 0
    for (argvs, out), cref in zip(wl.commands(base_seed, WORK / f"run-{os.getpid()}"),
                                  ref["commands"], strict=True):
        result = run_command(main, argvs, out)
        results.append(result)
        host.append(cal.host_s(result.wall_s))
        if after_command is not None:
            after_command()
        attempted += len(cref["missions"])
        failed += command_failures(result, cref)
    return Batch(entry, results, host, attempted, failed)


def measure(wl: Workload, seed: int, seconds: float, main, refs: list, cal: Calibration,
            after_first=None, after_command=None) -> Phase:
    """Closed loop: batches back to back for about ``seconds``.

    A batch starts only while at least half a batch of time remains.
    """
    phase = Phase()
    start = time.perf_counter()
    last = 0.0
    while not phase.batches or time.perf_counter() - start + last / 2 < seconds:
        began = time.perf_counter()
        phase.batches.append(run_batch(wl, seed, len(phase.batches), main, refs, cal,
                                       after_command))
        last = time.perf_counter() - began
        if after_first is not None and len(phase.batches) == 1:
            after_first()
    return phase


def command_tail(ms: list[float]) -> tuple[float, float]:
    """The highest order statistic with ten samples beyond it, and its percentile.

    With ten or fewer samples no percentile qualifies; the median is given.
    """
    xs = sorted(ms)
    n = len(xs)
    if n < 11:
        return statistics.median(xs), 50.0
    return xs[n - 11], 100.0 * (n - 10) / n


def peak_rss_mb() -> float:
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    children = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return (own + children) / 1024.0


def digest_set(batch: Batch) -> str:
    h = hashlib.blake2b(digest_size=8)
    for m in sorted(batch.missions, key=lambda m: m.key):
        h.update(f"{m.key}={m.record}\n".encode())
    return h.hexdigest()


def sim_counts_from_outputs(batch: Batch, p_total: float) -> dict:
    fields = [m.record.split(",") for m in batch.missions]
    return {
        "sim.ticks": sum(ticks(m, p_total) for m in batch.missions),
        "sim.objects_found": sum(round(float(f[2]) * N_OBJECTS) for f in fields if f[2]),
        "sim.collisions": sum(int(f[3]) for f in fields),
        "sim.distinct_trajectories": len({f[0] for f in fields}),
    }


class Stats:
    """Queries over the tracer's (name, parent) -> [calls, total_ns, self_ns] table."""

    def __init__(self, table: dict):
        self.table = table

    def sum(self, name: str, parent=None) -> tuple[int, int, int]:
        calls = total = own = 0
        for (label, par), (c, t, s) in self.table.items():
            if label == name and (parent is None or parent(par)):
                calls += c
                total += t
                own += s
        return calls, total, own

    def calls(self, name, parent=None) -> int:
        return self.sum(name, parent)[0]

    def ns_per_call(self, name, parent=None) -> float:
        calls, total, _ = self.sum(name, parent)
        return total / calls if calls else 0.0

    def ms_per_call(self, name) -> float:
        return self.ns_per_call(name) / 1e6


def layer_metrics(tracer, first, untraced: Phase, traced: Phase,
                  p_total: float) -> dict:
    """Per-layer metrics of the traced phase; counts are of its first batch.

    Times come from the tracer's table less the estimated wrapper cost.
    """
    raw, st, st0 = Stats(tracer.stats), Stats(tracer.corrected()), Stats(first[0])
    counters0 = first[1]
    tof = lambda p: p == "sensing.TofBank.sample"  # noqa: E731
    fov = lambda p: p == "sensing.objects_in_fov"  # noqa: E731
    by_harness = lambda p: p == "harness.run_single"  # noqa: E731
    by_replay = lambda p: p.startswith("report.")  # noqa: E731

    traced_ticks = sum(ticks(m, p_total) for b in traced.batches for m in b.missions)
    own_total = sum(s for _, _, s in st.table.values())
    _, commands_raw, _ = raw.sum("cli.main")
    _, commands, commands_own = st.sum("cli.main")
    samples0 = st0.calls("sensing.TofBank.sample")
    attempts0 = st0.calls("detection.attempt_detection")
    rate_untraced = statistics.median(untraced.rates(p_total))
    rate_traced = statistics.median(traced.rates(p_total))

    m = {
        "harness.run_single.self_ns_per_tick":
            (st.sum("harness.run_single")[2] / traced_ticks, "ns"),
        "sensing.TofBank.sample.calls": (samples0, "count"),
        "sensing.TofBank.sample.ns_per_call": (st.ns_per_call("sensing.TofBank.sample"), "ns"),
        "sensing.tof_refresh_ratio":
            (counters0.get("tof_refreshes", 0) / samples0 if samples0 else 0.0, "ratio"),
        "sensing.objects_in_fov.calls": (st0.calls("sensing.objects_in_fov"), "count"),
        "sensing.objects_in_fov.ns_per_call": (st.ns_per_call("sensing.objects_in_fov"), "ns"),
        "arena.raycast.tof.calls": (st0.calls("arena.raycast", tof), "count"),
        "arena.raycast.tof.ns_per_call": (st.ns_per_call("arena.raycast", tof), "ns"),
        "arena.raycast.fov.calls": (st0.calls("arena.raycast", fov), "count"),
        "arena.raycast.fov.ns_per_call": (st.ns_per_call("arena.raycast", fov), "ns"),
        "arena.disc_blocked.calls": (st0.calls("arena.disc_blocked"), "count"),
        "arena.disc_blocked.ns_per_call": (st.ns_per_call("arena.disc_blocked"), "ns"),
    }
    for policy in ("pseudo-random", "wall-following", "spiral", "rotate-and-measure"):
        name = f"policies.policy_step.{policy}"
        m[f"{name}.ns_per_call"] = (st.ns_per_call(name), "ns")
    m.update({
        "vehicle.step.ns_per_call": (st.ns_per_call("vehicle.step"), "ns"),
        "metrics.OccupancyGrid.mark.harness.ns_per_call":
            (st.ns_per_call("metrics.OccupancyGrid.mark", by_harness), "ns"),
        "metrics.OccupancyGrid.mark.replay.ns_per_call":
            (st.ns_per_call("metrics.OccupancyGrid.mark", by_replay), "ns"),
        "metrics.dwell_matrix_pgm.ms": (st.ms_per_call("metrics.dwell_matrix_pgm"), "ms"),
        "metrics.dwell_matrix_csv.ms": (st.ms_per_call("metrics.dwell_matrix_csv"), "ms"),
        "detection.attempt_detection.calls": (attempts0, "count"),
        "detection.frames_with_target_ratio":
            (counters0.get("frames_with_target", 0) / attempts0 if attempts0 else 0.0, "ratio"),
        "report.parse_trajectory.ms": (st.ms_per_call("report.parse_trajectory"), "ms"),
        "report.coverage_series_csv.ms": (st.ms_per_call("report.coverage_series_csv"), "ms"),
        "cli.cmd_run.self_ms": (_self_ms_per_call(st, "cli.cmd_run"), "ms"),
        "config.build_run_config.ms": (st.ms_per_call("config.build_run_config"), "ms"),
    })
    for layer in LAYERS:
        own = sum(s for (label, _), (_, _, s) in st.table.items() if layer_of(label) == layer)
        m[f"self_share.{layer}"] = (own / own_total if own_total else 0.0, "share")
    m.update({
        "trace.self_sum_share": ((own_total - commands_own) / commands, "share"),
        "trace.overhead_share": (1.0 - commands / commands_raw, "share"),
        "trace.accounted_share":
            (rate_untraced / rate_traced * commands / commands_raw, "share"),
        "trace.sim_s_per_host_s.untraced": (rate_untraced, "s/s"),
        "trace.sim_s_per_host_s.traced": (rate_traced, "s/s"),
        "trace.slowdown": (rate_untraced / rate_traced, "ratio"),
        "sim.tof_refreshes": (counters0.get("tof_refreshes", 0), "count"),
        "sim.raycasts": (st0.calls("arena.raycast"), "count"),
        "sim.frames_fired": (attempts0, "count"),
    })
    for name, value in sim_counts_from_outputs(traced.batches[0], p_total).items():
        m[name] = (value, "count")
    return m


def _self_ms_per_call(st: Stats, name: str) -> float:
    calls, _, own = st.sum(name)
    return own / calls / 1e6 if calls else 0.0


def trace_phase(wl: Workload, seed: int, seconds: float, exploresim, refs: list,
                cal: Calibration):
    """Measure with every layer wrapped; the wrappers are removed on return."""
    tracer = bench_trace.Tracer()
    tracer.install()
    first = None

    def keep_first():
        nonlocal first
        first = tracer.snapshot()

    try:
        phase = measure(wl, seed, seconds, exploresim.cli.main, refs, cal,
                        after_first=keep_first, after_command=tracer.sample_span_cost)
    finally:
        tracer.restore()
    return tracer, first, phase


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=40.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    wl = WORKLOADS[args.workload]

    os.chdir(ROOT)
    exploresim = import_program()
    from exploresim.metrics import EnergyModel
    p_total = EnergyModel().p_total
    env = environment(exploresim)
    refs = load_reference()[wl.name]
    if len(refs) != wl.pool:
        raise SystemExit(f"error: {REFERENCE} pins {len(refs)} batches of {wl.name}, "
                         f"expected {wl.pool}")
    WORK.mkdir(exist_ok=True)

    setup = [] if args.trace else setup_seconds(wl)
    warm = run_command(exploresim.cli.main, wl.warmup_command(WORK / f"run-{os.getpid()}"),
                       WORK / f"run-{os.getpid()}" / "warmup")
    if not warm.ok:
        raise SystemExit("error: the warm-up command failed")
    leftover = bench_trace.installed_wrappers()
    if leftover:
        raise SystemExit(f"error: tracer wrappers installed in an untraced run: {leftover}")

    untraced_s = args.seconds / 2 if args.trace else args.seconds
    cal = Calibration()
    untraced = measure(wl, args.seed, untraced_s, exploresim.cli.main, refs, cal)
    phases = [untraced]
    if args.trace:
        tracer, first, traced = trace_phase(wl, args.seed, args.seconds / 2, exploresim, refs,
                                            cal)
        leftover = bench_trace.installed_wrappers()
        if leftover:
            raise SystemExit(f"error: tracer wrappers left after restore: {leftover}")
        phases.append(traced)

    batches = [b for p in phases for b in p.batches]
    attempted = sum(b.attempted for b in batches)
    failed = sum(b.failed for b in batches)
    env["loadavg_end"] = os.getloadavg()

    if args.trace:
        extra = {"trace_missing_targets": tracer.missing, "span_cost_ns": tracer.span_cost}
        metrics = layer_metrics(tracer, first, untraced, traced, p_total)
        dump = WORK / f"trace-{wl.name}-{args.seed}.json"
        dump.write_text(json.dumps({
            "stats": [[n, p, *v] for (n, p), v in sorted(tracer.stats.items())],
            "counters": tracer.counters, "span_cost_ns": tracer.span_cost,
            "missing": tracer.missing,
        }))
    else:
        cmd_ms = [h * 1e3 for b in batches for h in b.command_host_s]
        tail, tail_pct = command_tail(cmd_ms)
        extra = {"commands": len(cmd_ms), "command_ms_tail_pct": tail_pct}
        metrics = {
            "setup_s": (statistics.median(setup), "s"),
            "sim_s_per_host_s": (statistics.median(untraced.rates(p_total)), "s/s"),
            "command_ms_p50": (statistics.median(cmd_ms), "ms"),
            "command_ms_tail": (tail, "ms"),
            "peak_rss_mb": (peak_rss_mb(), "MB"),
        }

    detail = {
        "workload": wl.name, "seed": args.seed, "trace": args.trace, "env": env,
        "batches": len(batches), "pool_entries": [b.entry for b in batches],
        "sim.digest_set": digest_set(batches[0]),
        "sim": sim_counts_from_outputs(batches[0], p_total),
        "failed_frac": failed / attempted,
        "batch_sim_s_per_host_s": untraced.rates(p_total),
        "uncalibrated_sim_s_per_host_s": statistics.median(untraced.raw_rates(p_total)),
        "kernel_s_median": statistics.median(cal.kernel_s),
        **extra,
    }
    shutil.rmtree(WORK / f"run-{os.getpid()}", ignore_errors=True)
    print(json.dumps({"detail": detail}))
    print(json.dumps({
        "correct": failed == 0, "attempted": attempted, "failed": failed,
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }))
    return 0 if failed == 0 else 1


if __name__ == "__main__":
    sys.exit(main())
