#!/usr/bin/env python3
"""Write reference.json: the pinned outputs of every pool entry of every workload.

Run only at a commit whose outputs are known good; the benchmark then
checks every later commit against them.

    python3 perfbench/pin.py
"""

import json
import os
import shutil
import sys

from bench_workloads import (FIRST_BASE_SEED, REFERENCE, ROOT, WORK, WORKLOADS,
                             run_command)


def main() -> None:
    os.chdir(ROOT)
    sys.path.insert(0, str(ROOT / "src"))
    from exploresim import cli

    WORK.mkdir(exist_ok=True)
    work = WORK / f"pin-{os.getpid()}"
    table = {}
    for name, wl in WORKLOADS.items():
        entries = []
        for entry in range(wl.pool):
            commands = []
            for argvs, out in wl.commands(FIRST_BASE_SEED + entry, work):
                result = run_command(cli.main, argvs, out)
                if not result.ok:
                    raise SystemExit(f"error: {name} entry {entry}: {argvs} failed")
                commands.append({"artifacts": result.artifacts,
                                 "missions": {m.key: m.record for m in result.missions}})
            entries.append({"base_seed": FIRST_BASE_SEED + entry, "commands": commands})
            print(f"{name} entry {entry} pinned", file=sys.stderr)
        table[name] = entries
    shutil.rmtree(work, ignore_errors=True)
    REFERENCE.write_text(json.dumps(table, indent=1, sort_keys=True) + "\n")


if __name__ == "__main__":
    main()
