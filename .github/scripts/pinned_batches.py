"""Fly every pinned batch of both benchmark workloads and compare each
mission and artifact, byte for byte, with ``perfbench/reference.json``.

All 8 sweep-empty and all 64 mission-artifacts entries run in one process.
Run from the repository root with ``PYTHONPATH=src``; exits 1 if any
mission or artifact differs from its pin.
"""

import sys

sys.path.insert(0, "perfbench")
from bench_workloads import WORK, WORKLOADS, command_failures, load_reference, run_command  # noqa: E402
from exploresim.cli import main  # noqa: E402

refs = load_reference()
attempted = failed = 0
for name, wl in WORKLOADS.items():
    if len(refs[name]) != wl.pool:
        sys.exit(f"reference.json pins {len(refs[name])} batches of {name}")
    for entry in range(wl.pool):
        base_seed = wl.base_seed(entry, 0)[1]
        ref = refs[name][entry]
        if ref["base_seed"] != base_seed:
            sys.exit(f"{name} entry {entry} pins base seed {ref['base_seed']}")
        for (argvs, out), cref in zip(wl.commands(base_seed, WORK / "ci"),
                                      ref["commands"], strict=True):
            bad = command_failures(run_command(main, argvs, out), cref)
            attempted += len(cref["missions"])
            failed += bad
            if bad:
                print(f"{name} entry {entry}: {' '.join(argvs[0])}: {bad} differ")
print(f"{attempted} pinned missions, {failed} failed")
sys.exit(failed > 0)
