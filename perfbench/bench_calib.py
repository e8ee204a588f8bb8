"""Host-speed calibration.

Shared hosts change speed by 10-30% over seconds to minutes (other
tenants on the same cores), far more than the regressions the benchmark
must resolve.  So every command is bracketed by a fixed reference
kernel, and its wall time is rescaled to what it would have taken on a
host that runs the kernel in ``NOMINAL_S`` seconds:

    calibrated = wall * NOMINAL_S / mean(kernel before, kernel after)

The kernel is the benchmark's own code, identical on every commit, and
has the simulator's instruction mix (float math, small objects,
fixed-point formatting, blake2b, dict updates), so a slowdown of the
host shows in both and cancels, while a change to exploresim shows only
in the command.

The kernel runs in one process, so it cannot correct commands that spread
over pool workers: their speed also depends on how the workers contend
for the cores.  On a 2-vCPU host, rescaling ``sweep --jobs 2`` raised its
run-to-run spread from 9% to 19%.  Every workload therefore runs its
commands in one process.
"""

import gc
import hashlib
import math
import time

NOMINAL_S = 0.025
_STEPS = 5000


class _Pose:
    __slots__ = ("x", "y", "h")

    def __init__(self, x, y, h):
        self.x = x
        self.y = y
        self.h = h


def kernel() -> bytes:
    """A unicycle walk, logged, hashed and binned into cells."""
    digest = hashlib.blake2b(digest_size=8)
    pose = _Pose(1.0, 1.0, 0.0)
    cells = {}
    for i in range(_STEPS):
        omega = 0.3 if (i // 50) % 2 else -0.2
        mid = pose.h + omega * 0.01
        pose = _Pose(pose.x + 0.02 * math.cos(mid), pose.y + 0.02 * math.sin(mid),
                     (pose.h + omega * 0.02 + math.pi) % (2.0 * math.pi) - math.pi)
        digest.update(f"{i * 0.02:.6f},{pose.x:.6f},{pose.y:.6f},{pose.h:.6f}\n".encode("ascii"))
        cell = (int(pose.x * 2.0), int(pose.y * 2.0))
        cells[cell] = cells.get(cell, 0.0) + 0.02
    return digest.digest()


EXPECTED = kernel()


def kernel_seconds() -> float:
    """Time of one kernel run, without the collector: a collection would
    scan the heap the measured commands left, which is not host speed."""
    gc.disable()
    try:
        start = time.perf_counter()
        out = kernel()
        elapsed = time.perf_counter() - start
    finally:
        gc.enable()
    if out != EXPECTED:
        raise RuntimeError("calibration kernel gave a different result")
    return elapsed
