"""Stable derivation of per-stage RNG seeds from a master seed.

Every stochastic stage of the pipeline draws its seed from the master
seed plus a tuple of string tokens (stage name, parameter point,
repetition index).  The derivation is a cryptographic hash, so it is
independent of PYTHONHASHSEED, process, and platform, and reordering
sweep axes does not change the seed of any individual run.
"""

from __future__ import annotations

import hashlib

__all__ = ["derive_seed"]

_SEP = b"\x1f"  # unit separator, cannot appear in decimal/ascii tokens


def derive_seed(master: int, *tokens: object) -> int:
    """Derive a 64-bit seed from ``master`` and a sequence of tokens."""
    h = hashlib.sha256()
    h.update(str(int(master)).encode())
    for tok in tokens:
        h.update(_SEP)
        h.update(str(tok).encode())
    return int.from_bytes(h.digest()[:8], "big")

