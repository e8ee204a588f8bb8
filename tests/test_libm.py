"""A canary for the platform's libm: pinned results of the math functions
that every trajectory passes through.

A flight's floats come from ``math.cos``, ``sin``, ``atan2`` and
``hypot``, and its ranging noise from ``random.gauss``, which calls
``log``, ``sqrt``, ``cos`` and ``sin``.  Python does not promise that
these are correctly rounded, so a libm that differs by one unit in the
last place can move a golden digest.  This module pins the ``float.hex``
result of each function on inputs recorded from golden flights
(``golden/libm.json``); on a platform where one differs, the failure
names the function and the input, not just a moved digest.

It imports nothing but the standard library at module level, so it runs
on an interpreter without pytest too::

    PYTHONPATH=src python -c "import sys; sys.path.insert(0, 'tests'); \\
        import test_libm; test_libm.test_libm_results_are_pinned()"

Re-record only on purpose, with ``PYTHONPATH=src python tests/test_libm.py --write``.
"""

import json
import math
import sys
from pathlib import Path

PINNED = Path(__file__).parent / "golden" / "libm.json"
FUNCTIONS = ("cos", "sin", "atan2", "hypot", "log", "sqrt")
PER_FUNCTION = 100
# golden cases (see test_golden.py) whose flights call every function:
# the detector's field of view calls atan2, the ranging noise gauss
CASES = ("pseudo-random/0.5/ssd-1.0", "spiral/1/ssd-1.0", "boxed/wall-following/0.5/ssd-1.0",
         "noise-0.02/pseudo-random/0.5/none", "noise-0.02/spiral/0.5/none")


def mismatches(pinned: dict) -> list[str]:
    """A line naming the function, the inputs and both results, as
    ``float.hex``, for each pinned result that this platform's libm does
    not give."""
    out = []
    for name, entries in pinned.items():
        fn = getattr(math, name)
        for *args, want in entries:
            got = fn(*map(float.fromhex, args)).hex()
            if got != want:
                out.append(f"math.{name}({', '.join(args)}): pinned {want}, got {got}")
    return out


def test_libm_results_are_pinned():
    pinned = json.loads(PINNED.read_text())
    assert sorted(pinned) == sorted(FUNCTIONS)
    assert all(len(entries) == PER_FUNCTION for entries in pinned.values())
    bad = mismatches(pinned)
    assert not bad, f"{len(bad)} results differ from the pinned libm:\n" + "\n".join(bad[:20])


def record() -> dict:
    """The inputs that the flights of ``CASES`` pass to each function,
    ``PER_FUNCTION`` of each spread evenly over their sorted distinct
    values, with their results, all as ``float.hex``."""
    import random
    from types import SimpleNamespace

    from exploresim import arena, harness, sensing, vehicle
    from exploresim.config import apply_overrides, build_run_config, load_config
    from test_golden import SEED, _sets, cases

    calls = {name: set() for name in FUNCTIONS}

    def spy(name):
        fn = getattr(math, name)

        def recorded(*args):
            calls[name].add(args)
            return fn(*args)
        return recorded

    spied = {name: spy(name) for name in FUNCTIONS}
    proxy = SimpleNamespace(**{**{k: getattr(math, k) for k in dir(math) if k[0] != "_"},
                               **spied})
    patches = [(vehicle, "cos", spied["cos"]), (vehicle, "sin", spied["sin"]),
               (harness, "hypot", spied["hypot"]), (arena, "math", proxy),
               (sensing, "math", proxy), (random, "_log", spied["log"]),
               (random, "_sqrt", spied["sqrt"]), (random, "_cos", spied["cos"]),
               (random, "_sin", spied["sin"])]
    saved = [(module, attr, getattr(module, attr)) for module, attr, _ in patches]
    for module, attr, value in patches:
        setattr(module, attr, value)
    try:
        for case in CASES:
            sets = [f"run.seed={SEED}", *_sets(cases()[case])]
            harness.run_single(build_run_config(apply_overrides(load_config(), sets)))
    finally:
        for module, attr, value in saved:
            setattr(module, attr, value)
    doc = {}
    for name in FUNCTIONS:
        pool = sorted(calls[name])
        picked = [pool[i * len(pool) // PER_FUNCTION] for i in range(PER_FUNCTION)]
        fn = getattr(math, name)
        doc[name] = [[*(a.hex() for a in args), fn(*args).hex()] for args in picked]
    return doc


if __name__ == "__main__":
    if sys.argv[1:] != ["--write"]:
        sys.exit("usage: python tests/test_libm.py --write   (re-records every input)")
    sys.path.insert(0, str(Path(__file__).parent))
    doc = record()
    PINNED.write_text("{\n" + ",\n".join(
        f"{json.dumps(name)}: [\n" + ",\n".join(map(json.dumps, entries)) + "\n]"
        for name, entries in doc.items()) + "\n}\n")
    print(f"wrote {sum(map(len, doc.values()))} results to {PINNED}")
