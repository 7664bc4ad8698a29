"""Named random sub-streams derived from one experiment seed.

Every consumer (embedding init, triplet sampling, edge perturbation, fixture
generation) draws from its own stream, so toggling one consumer on or off
never shifts the randomness seen by another.
"""

from __future__ import annotations

import numpy as np

_STREAMS = {
    "init": 0,
    "sampling": 1,
    "perturbation": 2,
    "fixture": 3,
    "gradcheck": 4,
}


def spawn(seed: int, stream: str, sub: int | None = None) -> np.random.Generator:
    """Return the generator for the named sub-stream of ``seed``.

    ``sub`` selects one of the stream's independent children (one sweep
    cell, say) by appending it to the spawn key.
    """
    try:
        key = (_STREAMS[stream],)
    except KeyError:
        raise ValueError(f"unknown random stream {stream!r}") from None
    if sub is not None:
        key += (sub,)
    return np.random.default_rng(np.random.SeedSequence(seed, spawn_key=key))


def stream_seed(seed: int, stream: str, sub: int | None = None) -> int:
    """A derived 63-bit integer seed for consumers that take a plain seed."""
    return int(spawn(seed, stream, sub).integers(0, 2**63 - 1))
