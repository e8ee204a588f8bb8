"""Time one set-up of a workload in a fresh interpreter.

Set-up is what a command does before its first mission: import
exploresim, load and merge the config, build the arena and the run (and
sweep) configuration.  Prints one JSON object with the seconds it took
and the file exploresim was imported from.

With ``--reference`` it times the import of a fixed list of standard
library modules instead, the same on every commit.  Set-up is mostly
module loading, which a host slowdown hits less than pure arithmetic,
so set-up time is calibrated by this import (see ``run.setup_seconds``)
and not by the arithmetic kernel of ``bench_calib``.

    python3 -I perfbench/setup_probe.py --workload sweep-empty
    python3 -I perfbench/setup_probe.py --reference
"""

import argparse
import importlib
import json
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

from bench_workloads import MISSION_DETECTOR, ROOT, WORKLOADS  # noqa: E402

NOMINAL_IMPORT_S = 0.075   # the reference import's time on the host set-up times are scaled to
REFERENCE_MODULES = ("decimal", "fractions", "email.parser", "xml.etree.ElementTree",
                     "http.client", "tarfile", "zipfile", "logging", "unittest", "sqlite3",
                     "configparser", "difflib", "pprint", "ast")


def reference() -> dict:
    start = time.perf_counter()
    for name in REFERENCE_MODULES:
        importlib.import_module(name)
    return {"reference_s": time.perf_counter() - start}


def setup(wl) -> dict:
    sys.path.insert(0, str(ROOT / "src"))
    start = time.perf_counter()
    import exploresim
    from exploresim import cli, config

    cfg = config.apply_overrides(config.load_config(None), [])
    if wl.kind == "sweep":
        config.build_sweep_spec(cfg)
        config.build_run_config(cfg, arena=config.build_arena(cfg))
    else:
        cfg["detector"]["model"] = MISSION_DETECTOR
        config.build_run_config(cfg)
    cli.build_parser()
    return {"setup_s": time.perf_counter() - start, "file": exploresim.__file__}


def main() -> None:
    parser = argparse.ArgumentParser()
    group = parser.add_mutually_exclusive_group(required=True)
    group.add_argument("--workload", choices=sorted(WORKLOADS))
    group.add_argument("--reference", action="store_true")
    args = parser.parse_args()
    print(json.dumps(reference() if args.reference else setup(WORKLOADS[args.workload])))


if __name__ == "__main__":
    main()
