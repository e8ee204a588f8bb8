"""Command-line interface: run single missions, sweeps, and reports.

Subcommands are pure functions of (config file, overrides, seed) to
artifact files in the output directory.  Exit codes: 0 success, 1
runtime failure, 2 usage or config error.
"""

from __future__ import annotations

import argparse
import json
import sys
import time
from pathlib import Path

from . import __version__
from .arena import Arena
from .config import (KEY_DOCS, apply_overrides, build_arena, build_run_config,
                     build_sweep_spec, load_config)
from .detection import DETECTORS
from .errors import SimError, ValidationError
from .harness import RunConfig, aggregate, aggregate_detection, run_single, run_sweep
from .metrics import (EnergyModel, dwell_matrix_csv, dwell_matrix_pgm, export_heatmap,
                      parse_dwell_csv)
from .policies import POLICY_KINDS
from . import report as rep


def _config_epilog() -> str:
    lines = ["config keys (override with --set KEY=VALUE):"]
    for key, doc in KEY_DOCS.items():
        lines.append(f"  {key:<24} {doc}")
    return "\n".join(lines)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="exploresim",
        description="Deterministic desk-scale simulator for ranging-driven "
                    "exploration policies with a modeled object detector.",
        epilog=_config_epilog(),
        formatter_class=argparse.RawDescriptionHelpFormatter,
    )
    parser.add_argument("--version", action="version", version=f"%(prog)s {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p):
        p.add_argument("--config", metavar="FILE", help="JSON config file")
        p.add_argument("--set", dest="overrides", action="append", default=[],
                       metavar="KEY=VALUE", help="override a config key (repeatable)")
        p.add_argument("--out", default="out", metavar="DIR", help="output directory")

    p_run = sub.add_parser("run", help="run one mission and write its artifacts")
    common(p_run)
    p_run.add_argument("--policy", choices=POLICY_KINDS)
    p_run.add_argument("--speed", type=float, metavar="M_PER_S")
    p_run.add_argument("--detector", choices=tuple(DETECTORS) + ("none",))
    p_run.add_argument("--seed", type=int)
    p_run.add_argument("--duration", type=float, metavar="SECONDS")

    p_sweep = sub.add_parser("sweep", help="run the multi-configuration sweep")
    common(p_sweep)
    p_sweep.add_argument("--seed", type=int, help="sweep base seed")
    p_sweep.add_argument("--runs-per-config", type=int, metavar="N")
    p_sweep.add_argument("--jobs", type=int, default=1, metavar="N",
                         help="parallel workers (results are identical at any N)")

    p_report = sub.add_parser("report", help="render tables and series from artifacts")
    p_report.add_argument("--in", dest="input_dir", required=True, metavar="DIR")
    p_report.add_argument("--out", default=None, metavar="DIR",
                          help="output directory (default: the input directory)")

    p_heat = sub.add_parser("heatmap", help="re-render a PGM from a dwell CSV")
    p_heat.add_argument("--in", dest="input_csv", required=True, metavar="CSV")
    p_heat.add_argument("--out", default=None, metavar="PGM",
                        help="output file (default: alongside the CSV)")
    p_heat.add_argument("--saturation", type=float, default=18.0, metavar="SECONDS")
    return parser


def _load_cfg(args) -> dict:
    cfg = load_config(args.config)
    cfg = apply_overrides(cfg, args.overrides)
    return cfg


def _write(path: Path, text: str) -> None:
    path.write_text(text, encoding="ascii", newline="\n")


def _summary_json(cfg: RunConfig, result, arena: Arena) -> str:
    em = EnergyModel()
    doc = {
        "schema_version": 1,
        "policy": cfg.policy,
        "speed": round(cfg.policy_cfg.cruise_speed, 6),
        "detector": cfg.detector.name if cfg.detector else None,
        "seed": cfg.seed,
        "duration": round(cfg.duration, 6),
        "arena": {"width": arena.width, "height": arena.height,
                  "objects": len(arena.objects)},
        "coverage": round(result.coverage, 6),
        "detection_rate": (round(result.detection_rate, 6)
                           if result.detection_rate is not None else None),
        "collision": {"occurred": result.collision.occurred,
                      "time": round(result.collision.time, 6),
                      "x": round(result.collision.x, 6),
                      "y": round(result.collision.y, 6)},
        "energy_j": {k: round(v, 3) for k, v in result.energy.items()},
        "aideck_share_pct": round(em.p_aideck / em.p_total * 100.0, 2),
        "digest": f"{result.digest:016x}",
    }
    return json.dumps(doc, sort_keys=True, indent=2) + "\n"


def cmd_run(args) -> int:
    cfg_doc = _load_cfg(args)
    if args.policy:
        cfg_doc["policy"]["kind"] = args.policy
    if args.speed is not None:
        cfg_doc["policy"]["cruise_speed"] = args.speed
    if args.detector is not None:
        cfg_doc["detector"]["model"] = None if args.detector == "none" else args.detector
    if args.seed is not None:
        cfg_doc["run"]["seed"] = args.seed
    if args.duration is not None:
        cfg_doc["run"]["duration"] = args.duration
    run_cfg = build_run_config(cfg_doc)
    result = run_single(run_cfg, keep_trajectory=True)

    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    _write(out / "trajectory.csv", "".join(result.trajectory))
    _write(out / "detections.csv", rep.detections_csv(result, run_cfg.arena))
    export_heatmap(result.grid, out / "heatmap.csv", out / "heatmap.pgm",
                   float(cfg_doc["heatmap"]["saturation_s"]))
    _write(out / "summary.json", _summary_json(run_cfg, result, run_cfg.arena))
    rate = ("n/a" if result.detection_rate is None
            else f"{result.detection_rate * 100.0:.1f}%")
    print(f"coverage {result.coverage * 100.0:.1f}%  detection rate {rate}  "
          f"collision {'yes' if result.collision.occurred else 'no'}  "
          f"energy {result.energy['total']:.1f} J  -> {out}")
    return 0


def cmd_sweep(args) -> int:
    cfg_doc = _load_cfg(args)
    if args.seed is not None:
        cfg_doc["sweep"]["base_seed"] = args.seed
    if args.runs_per_config is not None:
        cfg_doc["sweep"]["runs_per_config"] = args.runs_per_config
    spec = build_sweep_spec(cfg_doc)
    arena = build_arena(cfg_doc)
    template = build_run_config(cfg_doc, arena=arena)
    started = time.perf_counter()
    sweep = run_sweep(spec, template, jobs=max(1, args.jobs))
    wall = time.perf_counter() - started

    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    _write(out / "runs.csv", rep.runs_csv(sweep.rows))
    _write(out / "aggregate.csv", rep.aggregate_csv(aggregate(sweep.rows)))
    if any(r.detector is not None for r in sweep.rows):
        matrix = aggregate_detection(sweep.rows)
        _write(out / "detection_rates.csv",
               rep.detection_matrix_csv(matrix, spec.policies))
    saturation = float(cfg_doc["heatmap"]["saturation_s"])
    for (policy, speed, det), dwells in sweep.dwell.items():
        n = len(dwells)
        mean_flat = [sum(run[i] for run in dwells) / n for i in range(len(dwells[0]))]
        mean_matrix = [mean_flat[r * sweep.grid_cols:(r + 1) * sweep.grid_cols]
                       for r in range(sweep.grid_rows - 1, -1, -1)]
        stem = f"heatmap_{policy}_{speed:g}" + (f"_{det}" if det else "")
        _write(out / f"{stem}.csv", dwell_matrix_csv(mean_matrix))
        (out / f"{stem}.pgm").write_bytes(dwell_matrix_pgm(mean_matrix, saturation))
    print(f"{len(sweep.rows)} runs in {wall:.1f} s wall time  -> {out}")
    return 0


def cmd_report(args) -> int:
    src = Path(args.input_dir)
    out = Path(args.out) if args.out else src
    out.mkdir(parents=True, exist_ok=True)
    trajectory = src / "trajectory.csv"
    runs = src / "runs.csv"
    if trajectory.exists():
        summary_path = src / "summary.json"
        if not summary_path.exists():
            raise SimError(f"missing artifact: {summary_path}")
        summary = json.loads(summary_path.read_text())
        width = summary["arena"]["width"]
        height = summary["arena"]["height"]
        series = rep.coverage_series_csv(trajectory.read_text(), width, height)
        _write(out / "coverage_series.csv", series)
        detections = src / "detections.csv"
        if detections.exists():
            _write(out / "detection_markers.csv", detections.read_text())
            n_found = max(0, len(detections.read_text().splitlines()) - 1)
        else:
            n_found = 0
        final_cov = float(series.rstrip("\n").rsplit(",", 1)[-1])
        print(f"coverage series: {out / 'coverage_series.csv'}  "
              f"final coverage {final_cov * 100.0:.1f}%  detections {n_found}")
        return 0
    if runs.exists():
        rows = rep.parse_runs_csv(runs.read_text())
        _write(out / "aggregate.csv", rep.aggregate_csv(aggregate(rows)))
        print(f"aggregate table: {out / 'aggregate.csv'}  ({len(rows)} runs)")
        return 0
    raise SimError(f"no trajectory.csv or runs.csv under {src}")


def cmd_heatmap(args) -> int:
    src = Path(args.input_csv)
    if not src.exists():
        raise SimError(f"missing artifact: {src}")
    matrix = parse_dwell_csv(src.read_text())
    if not matrix:
        raise SimError(f"empty dwell matrix: {src}")
    out = Path(args.out) if args.out else src.with_suffix(".pgm")
    out.write_bytes(dwell_matrix_pgm(matrix, args.saturation))
    print(f"wrote {out}")
    return 0


_COMMANDS = {"run": cmd_run, "sweep": cmd_sweep, "report": cmd_report,
             "heatmap": cmd_heatmap}


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return _COMMANDS[args.command](args)
    except ValidationError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2
    except SimError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except OSError as exc:
        print(f"i/o error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
