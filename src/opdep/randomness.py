"""Seeded random generator construction shared by all sampling code.

Every sampling function takes an explicit seed; there is no module-level
generator and no hidden state.  The bit generator is the counter-based
Philox engine, whose stream for a given seed is identical on every
platform, so seeded runs are reproducible everywhere.
"""

from __future__ import annotations

import numpy as np

from .errors import InvalidParameter


def check_count(n: int) -> None:
    """Raise InvalidParameter unless ``n`` is an integer >= 1; a bool is not a count."""
    if not isinstance(n, (int, np.integer)) or isinstance(n, bool):
        raise InvalidParameter(f"n must be an integer >= 1, got {n!r}")
    if n < 1:
        raise InvalidParameter(f"n must be >= 1, got {n}")


def make_rng(seed: int) -> np.random.Generator:
    if not isinstance(seed, int) or isinstance(seed, bool) or seed < 0:
        raise InvalidParameter(f"seed must be a nonnegative integer, got {seed!r}")
    return np.random.Generator(np.random.Philox(seed))
