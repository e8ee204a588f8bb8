"""Pinned end-to-end results: 33 seeded missions recomputed exactly.

Every other determinism test compares two runs of the current code with
each other, so a refactor that moves every trajectory the same way
passes them.  This module compares against values stored in
``golden/digests.json``: the trajectory digest, coverage, detection
rate, collision flag and elapsed time of each case, all compared with
``==``.  The cases span every policy at every default speed with and
without a detector, a room with obstacle boxes (the only cases that
reach the obstacle loop of the ray cast; two of them collide), the two
wall trackers following the right-hand wall, and three runs with ranging
noise.

A change that moves any value is a change of behaviour: re-pin only on
purpose, with ``PYTHONPATH=src python tests/test_golden.py --write``,
and explain the new values in CHANGES.md.
"""

import json
import sys
from pathlib import Path

import pytest

from exploresim.arena import DEFAULT_ARENA_DOC
from exploresim.config import apply_overrides, build_run_config, load_config
from exploresim.harness import run_single
from exploresim.policies import POLICY_KINDS

GOLDEN = Path(__file__).parent / "golden" / "digests.json"
SEED = 7

BOXED_ARENA = dict(DEFAULT_ARENA_DOC, obstacles=[
    {"min": [1.5, 1.5], "max": [2.2, 2.2]},
    {"min": [4.5, 3.5], "max": [5.0, 4.2]},
])


def cases() -> dict[str, dict]:
    """Case id -> config overrides (dotted key -> value)."""
    out = {}
    for policy in POLICY_KINDS:
        for speed in (0.1, 0.5, 1.0):
            for det in (None, "ssd-1.0"):
                out[f"{policy}/{speed:g}/{det or 'none'}"] = {
                    "policy.kind": policy, "policy.cruise_speed": speed,
                    "detector.model": det}
    for policy in POLICY_KINDS:
        out[f"boxed/{policy}/0.5/ssd-1.0"] = {
            "arena": BOXED_ARENA, "policy.kind": policy, "detector.model": "ssd-1.0"}
    out["noise-0.02/pseudo-random/0.5/none"] = {"tof.noise_sigma": 0.02}
    for policy in ("wall-following", "spiral"):
        out[f"follow-right/{policy}/0.5/none"] = {
            "policy.kind": policy, "policy.follow_side": "right"}
        out[f"noise-0.02/{policy}/0.5/none"] = {
            "policy.kind": policy, "tof.noise_sigma": 0.02}
    return out


def compute(overrides: dict) -> dict:
    sets = [f"{key}={json.dumps(value)}" for key, value in overrides.items()]
    cfg = apply_overrides(load_config(), [f"run.seed={SEED}", *sets])
    res = run_single(build_run_config(cfg))
    return {
        "digest": f"{res.digest:016x}",
        "coverage": res.coverage,
        "detection_rate": res.detection_rate,
        "collision": res.collision.occurred,
        "elapsed": res.elapsed,
    }


def _pinned() -> dict:
    return json.loads(GOLDEN.read_text())


def test_cases_match_pinned_set():
    assert sorted(_pinned()) == sorted(cases())


@pytest.mark.parametrize("case", sorted(cases()))
def test_golden(case):
    assert compute(cases()[case]) == _pinned()[case]


if __name__ == "__main__":
    if sys.argv[1:] != ["--write"]:
        sys.exit("usage: python tests/test_golden.py --write   (re-pins every case)")
    doc = {case: compute(overrides) for case, overrides in sorted(cases().items())}
    GOLDEN.parent.mkdir(exist_ok=True)
    GOLDEN.write_text(json.dumps(doc, indent=2, sort_keys=True) + "\n")
    print(f"wrote {len(doc)} cases to {GOLDEN}")
