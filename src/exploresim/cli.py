"""Command-line interface: run single missions, sweeps, and reports.

Subcommands are pure functions of (config file, overrides, seed) to
artifact files in the output directory.  Exit codes: 0 success, 1
runtime failure, 2 usage or config error.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import reprlib
import shutil
import sys
import tempfile
import time
from pathlib import Path

from . import __version__
from .arena import Arena
from .config import (LEAF, LEAVES, apply_overrides, build_run_config, build_sweep_spec,
                     check_config, load_config)
from .detection import DETECTORS
from .errors import SimError, ValidationError
from .harness import RunConfig, aggregate, aggregate_detection, run_single, run_sweep
from .kinds import COUNT, ROOM_SIDE
from .metrics import (HEATMAP_SATURATION_S, MAX_SIDE_CELLS, EnergyModel, OccupancyGrid,
                      dwell_matrix_pgm, export_heatmap, mean_grid, parse_dwell_csv)
from .policies import POLICY_KINDS
from . import report as rep


def _config_epilog() -> str:
    lines = ["config keys (override with --set KEY=VALUE):"]
    for leaf in LEAVES:
        lines.append(f"  {leaf.key:<24} {leaf.doc}")
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
    # a shortcut flag's dest is the config key it assigns (see _load_cfg)
    p_run.add_argument("--policy", dest="policy.kind", choices=POLICY_KINDS)
    p_run.add_argument("--speed", dest="policy.cruise_speed", type=float, metavar="M_PER_S")
    p_run.add_argument("--detector", dest="detector.model", choices=tuple(DETECTORS) + ("none",))
    p_run.add_argument("--seed", dest="run.seed", type=int, metavar="SEED")
    p_run.add_argument("--duration", dest="run.duration", type=float, metavar="SECONDS")

    p_sweep = sub.add_parser("sweep", help="run the multi-configuration sweep")
    common(p_sweep)
    p_sweep.add_argument("--seed", dest="sweep.base_seed", type=int, metavar="SEED",
                         help="sweep base seed")
    p_sweep.add_argument("--runs-per-config", dest="sweep.runs_per_config", type=int,
                         metavar="N")
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
    p_heat.add_argument("--saturation", type=float, default=HEATMAP_SATURATION_S,
                        metavar="SECONDS")
    return parser


def _load_cfg(args) -> dict:
    """The config file, then ``--set``, then each shortcut flag given as one
    more override of the key that is its dest; ``none`` assigns null."""
    flags = [f"{key}={json.dumps(None if value == 'none' else value)}"
             for key, value in vars(args).items() if "." in key and value is not None]
    return apply_overrides(load_config(args.config), args.overrides + flags)


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
    saturation = check_config(cfg_doc)["heatmap.saturation_s"]
    run_cfg = build_run_config(cfg_doc)  # a config error writes nothing

    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    with open(out / "trajectory.csv", "w", encoding="ascii", newline="\n") as log:
        result = run_single(run_cfg, log)
    _write(out / "detections.csv", rep.detections_csv(result, run_cfg.arena))
    export_heatmap(result.grid, out / "heatmap.csv", out / "heatmap.pgm", saturation)
    _write(out / "summary.json", _summary_json(run_cfg, result, run_cfg.arena))
    rate = ("n/a" if result.detection_rate is None
            else f"{result.detection_rate * 100.0:.1f}%")
    print(f"coverage {result.coverage * 100.0:.1f}%  detection rate {rate}  "
          f"collision {'yes' if result.collision.occurred else 'no'}  "
          f"energy {result.energy['total']:.1f} J  -> {out}")
    return 0


def cmd_sweep(args) -> int:
    jobs = COUNT(args.jobs, "--jobs")
    cfg_doc = _load_cfg(args)
    saturation = check_config(cfg_doc)["heatmap.saturation_s"]
    spec = build_sweep_spec(cfg_doc)
    template = build_run_config(cfg_doc)
    started = time.perf_counter()
    sweep = run_sweep(spec, template, jobs=jobs)
    wall = time.perf_counter() - started

    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    _write(out / "runs.csv", rep.runs_csv(sweep.rows))
    _write(out / "aggregate.csv", rep.aggregate_csv(aggregate(sweep.rows)))
    if any(r.detector is not None for r in sweep.rows):
        matrix = aggregate_detection(sweep.rows)
        _write(out / "detection_rates.csv",
               rep.detection_matrix_csv(matrix, spec.policies))
    grids: dict[tuple[str, float, str | None], list] = {}
    for row, grid in zip(sweep.rows, sweep.grids):
        grids.setdefault((row.policy, row.speed, row.detector), []).append(grid)
    for (policy, speed, det), members in grids.items():
        stem = out / (f"heatmap_{policy}_{speed:g}" + (f"_{det}" if det else ""))
        export_heatmap(mean_grid(members), f"{stem}.csv", f"{stem}.pgm", saturation)
    print(f"{len(sweep.rows)} runs ({sweep.flights} flights) in {wall:.1f} s wall time  "
          f"-> {out}")
    return 0


def _read(path: Path, parse, **mode):
    """``parse`` of the artifact at ``path``, open for reading in ``mode``
    (text unless it says otherwise); an error names the file."""
    if not path.exists():
        raise SimError(f"missing artifact: {path}")
    try:
        with open(path, **mode) as f:
            return parse(f)
    except (SimError, ValueError) as exc:
        raise SimError(f"{path}: {exc}") from None


def _record(summary) -> tuple[float, float, object, object]:
    """Room width and height, coverage and digest that a ``summary.json`` records."""
    try:
        doc = json.load(summary)
    except RecursionError as exc:
        raise SimError(f"not valid JSON: {exc}") from None
    try:
        room = doc["arena"]
        return (ROOM_SIDE(room["width"], "arena.width"), ROOM_SIDE(room["height"], "arena.height"),
                doc["coverage"], doc["digest"])
    except (LookupError, TypeError) as exc:
        raise SimError(f"no arena width and height, coverage and digest: {exc!r}") from None


def cmd_report(args) -> int:
    src = Path(args.input_dir)
    out = Path(args.out) if args.out else src
    trajectory = src / "trajectory.csv"
    runs = src / "runs.csv"
    if trajectory.exists():
        summary = src / "summary.json"
        width, height, coverage, digest = _read(summary, _record)
        detections = src / "detections.csv"
        hasher = hashlib.blake2b(digest_size=8)
        grid = OccupancyGrid(width, height)
        with tempfile.TemporaryFile("w+", encoding="ascii", newline="\n") as series:
            # the log's bytes, as written: they are hashed, and a byte
            # outside ASCII is named by its line, in file order
            final = _read(trajectory, lambda f: rep.coverage_series_csv(
                f, grid, series, hasher), mode="rb")
            # the run's own record: a log edited or swapped since is not reported
            for field, replayed, recorded in (("digest", hasher.hexdigest(), digest),
                                              ("coverage", float(final), coverage)):
                if replayed != recorded:
                    raise SimError(f"{trajectory}: {field} {replayed} does not match "
                                   f"{summary}'s {reprlib.repr(recorded)}")
            # the dwell grid the log replays to; heatmap.pgm is not checked
            _read(src / "heatmap.csv", lambda f: rep.check_heatmap_csv(f.read(), grid),
                  encoding="ascii", newline="\n")
            found = _read(detections, rep.parse_detections_csv) if detections.exists() else []
            out.mkdir(parents=True, exist_ok=True)
            series.seek(0)
            with open(out / "coverage_series.csv", "w", encoding="ascii", newline="\n") as f:
                shutil.copyfileobj(series, f)
        if detections.exists():
            shutil.copyfile(detections, out / "detection_markers.csv")
        print(f"coverage series: {out / 'coverage_series.csv'}  "
              f"final coverage {float(final) * 100.0:.1f}%  detections {len(found)}")
        return 0
    if runs.exists():
        rows = _read(runs, rep.parse_runs_csv)
        if not rows:  # an aggregate of no runs would be a table of nothing
            raise SimError(f"{runs}: no runs")
        out.mkdir(parents=True, exist_ok=True)
        _write(out / "aggregate.csv", rep.aggregate_csv(aggregate(rows)))
        print(f"aggregate table: {out / 'aggregate.csv'}  ({len(rows)} runs)")
        return 0
    raise SimError(f"no trajectory.csv or runs.csv under {src}")


def cmd_heatmap(args) -> int:
    saturation = LEAF["heatmap.saturation_s"].kind(args.saturation, "--saturation")
    src = Path(args.input_csv)
    matrix = _read(src, lambda f: parse_dwell_csv(f.read()))
    if not matrix:
        raise SimError(f"{src}: empty dwell matrix")
    rows, cols = len(matrix), len(matrix[0])
    if max(rows, cols) > MAX_SIDE_CELLS:  # no room's grid; its PGM takes 1024 bytes a cell
        raise SimError(f"{src}: {rows} x {cols} cells, more than the {MAX_SIDE_CELLS} a side "
                       "of the largest room")
    out = Path(args.out) if args.out else src.with_suffix(".pgm")
    out.write_bytes(dwell_matrix_pgm(matrix, saturation))
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
