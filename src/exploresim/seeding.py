"""Deterministic 64-bit seed derivation for runs and sweeps.

Every run draws from ``random.Random`` instances seeded through
:func:`derive_seed`, a splitmix64-style mix of the user-facing base seed
with string labels (configuration tokens, stream names) and integers
(run indices).  The mix is order-sensitive and platform-independent, so
identical inputs yield identical random streams everywhere.

It is also where the package gets :class:`blake2b`, the hash of these
labels and of a trajectory log's digest.
"""

from __future__ import annotations

# CPython's hashlib.blake2b itself; hashlib would load OpenSSL to hand it out
from _blake2 import blake2b

_MASK = (1 << 64) - 1


def splitmix64(x: int) -> int:
    """One step of the splitmix64 finalizer (public-domain constants)."""
    x = (x + 0x9E3779B97F4A7C15) & _MASK
    z = x
    z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & _MASK
    z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & _MASK
    return (z ^ (z >> 31)) & _MASK


def stable_hash64(text: str) -> int:
    """64-bit hash of a string, stable across processes and platforms."""
    digest = blake2b(text.encode("utf-8"), digest_size=8).digest()
    return int.from_bytes(digest, "big")


def derive_seed(base: int, *labels: str | int) -> int:
    """Mix ``base`` with each label in turn; returns a 64-bit seed."""
    x = base & _MASK
    for label in labels:
        part = stable_hash64(label) if isinstance(label, str) else label & _MASK
        x = splitmix64(x ^ part)
    return x
