"""Pinned end-to-end results: 33 seeded missions recomputed exactly.

Every other determinism test compares two runs of the current code with
each other, so a refactor that moves every trajectory the same way
passes them.  This module compares against values stored in
``golden/digests.json``: the trajectory digest, coverage, detection
rate, collision flag and elapsed time of each case, all compared with
``==``, and a digest of each chunk of ``CHUNK`` log rows.  A case whose
log moved names its first differing chunk: its ticks, its time window
and the log row that starts it.  The cases span every policy at every
default speed with and without a detector, a room with obstacle boxes
(the only cases that reach the obstacle loop of the ray cast; two of
them collide), the two wall trackers following the right-hand wall, and
three runs with ranging noise.

A change that moves any value is a change of behaviour: re-pin only on
purpose, with ``PYTHONPATH=src python tests/test_golden.py --write``,
and explain the new values in CHANGES.md.
"""

import functools
import hashlib
import io
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
CHUNK = 500  # log rows per chunk digest: 10 s of flight at 50 Hz

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


def _sets(overrides: dict) -> tuple[str, ...]:
    return tuple(f"{key}={json.dumps(value)}" for key, value in overrides.items())


def compute(overrides: dict) -> dict:
    return _flown(_sets(overrides))[0]


@functools.cache  # each case flies once per session
def _flown(sets: tuple[str, ...]) -> tuple[dict, float, list[str]]:
    """The pinned values of one case, its control tick, and the first
    row of each chunk of its log.  Row ``k`` after the header is the
    state at tick ``k`` (the last row is the end of the mission), so
    chunk ``j`` holds the rows of ticks ``j * CHUNK`` up to the next."""
    cfg = build_run_config(apply_overrides(load_config(), [f"run.seed={SEED}", *sets]))
    log = io.StringIO()
    res = run_single(cfg, log)
    rows = log.getvalue().splitlines(keepends=True)[1:]
    chunks = [rows[first:first + CHUNK] for first in range(0, len(rows), CHUNK)]
    return {
        "digest": f"{res.digest:016x}",
        "coverage": res.coverage,
        "detection_rate": res.detection_rate,
        "collision": res.collision.occurred,
        "elapsed": res.elapsed,
        "chunks": [hashlib.blake2b("".join(chunk).encode("ascii"), digest_size=8).hexdigest()
                   for chunk in chunks],
    }, cfg.control_dt, [chunk[0] for chunk in chunks]


def moved_chunk(case: str, pinned: list[str]) -> str | None:
    """Where the log of ``case`` first differs from the ``pinned`` chunk
    digests, or None where it does not."""
    values, dt, starts = _flown(_sets(cases()[case]))
    got = values["chunks"]
    if got == pinned:
        return None
    j = next((j for j, (a, b) in enumerate(zip(got, pinned)) if a != b),
             min(len(got), len(pinned)))
    first = j * CHUNK
    return (f"{case}: chunk {j} differs first: ticks {first}-{first + CHUNK - 1}, "
            f"t {first * dt:.2f}-{(first + CHUNK) * dt:.2f} s; its first row is now "
            f"{starts[j].strip() if j < len(got) else 'missing'}")


def _pinned() -> dict:
    return json.loads(GOLDEN.read_text())


def test_cases_match_pinned_set():
    assert sorted(_pinned()) == sorted(cases())


@pytest.mark.parametrize("case", sorted(cases()))
def test_golden(case):
    assert compute(cases()[case]) == _pinned()[case]


@pytest.mark.parametrize("case", sorted(cases()))
def test_golden_chunks(case):
    moved = moved_chunk(case, _pinned()[case]["chunks"])
    assert moved is None, moved


if __name__ == "__main__":
    if sys.argv[1:] != ["--write"]:
        sys.exit("usage: python tests/test_golden.py --write   (re-pins every case)")
    old = _pinned() if GOLDEN.exists() else {}
    doc = {case: compute(overrides) for case, overrides in sorted(cases().items())}
    for case in doc:
        moved = moved_chunk(case, old.get(case, {}).get("chunks", []))
        if moved is not None:
            print(moved)
    GOLDEN.parent.mkdir(exist_ok=True)
    GOLDEN.write_text(json.dumps(doc, indent=2, sort_keys=True) + "\n")
    print(f"wrote {len(doc)} cases to {GOLDEN}")
