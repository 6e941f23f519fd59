"""Deterministic random-number management.

Every stochastic component in this library accepts a
:class:`numpy.random.Generator`.  Experiments that replicate a simulation
many times need statistically independent, reproducible streams; the
helpers here wrap :class:`numpy.random.SeedSequence` spawning so that a
single integer seed fans out into any number of independent generators.
"""

from __future__ import annotations

import numpy as np

__all__ = ["ensure_rng", "spawn_rngs"]


def ensure_rng(seed: "int | np.random.Generator | np.random.SeedSequence | None" = None) -> np.random.Generator:
    """Coerce *seed* into a :class:`numpy.random.Generator`.

    Accepts an existing generator (returned unchanged), an integer seed, a
    :class:`~numpy.random.SeedSequence`, or ``None`` (fresh OS entropy).
    """
    if isinstance(seed, np.random.Generator):
        return seed
    return np.random.default_rng(seed)


def spawn_rngs(seed: "int | np.random.SeedSequence | None", n: int) -> list[np.random.Generator]:
    """Spawn *n* independent generators from a single seed.

    Uses :meth:`numpy.random.SeedSequence.spawn`, which guarantees
    non-overlapping streams regardless of how much randomness each child
    consumes.
    """
    if n < 0:
        raise ValueError(f"cannot spawn a negative number of generators: {n}")
    if isinstance(seed, np.random.SeedSequence):
        ss = seed
    else:
        ss = np.random.SeedSequence(seed)
    return [np.random.default_rng(child) for child in ss.spawn(n)]
