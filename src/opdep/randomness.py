"""Seeded random generator construction shared by all sampling code.

Every sampling function takes an explicit seed; there is no module-level
generator and no hidden state.  The bit generator is the counter-based
Philox engine, whose stream for a given seed is identical on every
platform, so seeded runs are reproducible everywhere.  :func:`take_words`
splits a stream so that a draw made in pieces gives the values of one draw.
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
    if not isinstance(seed, (int, np.integer)) or isinstance(seed, bool) or seed < 0:
        raise InvalidParameter(f"seed must be a nonnegative integer, got {seed!r}")
    return np.random.Generator(np.random.Philox(int(seed)))


def take_words(rng: np.random.Generator, words: int) -> np.random.Generator:
    """Hand the next ``words`` 64-bit outputs of ``rng``'s stream to a new generator.

    The new generator starts where ``rng`` stands, and ``rng`` moves past the
    ``words`` outputs as if it had drawn them.  Philox makes its outputs four
    at a time and ``advance`` counts such blocks and empties the buffer, so
    the outputs still buffered are drawn first and the last ``words % 4``
    after the advance.  ``random``, ``uniform`` and ``choice`` with ``p`` take
    one output per value, so draws split at these points give the values of
    one draw.
    """
    bit_generator = rng.bit_generator
    state = bit_generator.state
    # Given a key, Philox reads no entropy before its state is replaced.
    taken = np.random.Philox(key=state["state"]["key"])
    taken.state = state
    buffered = min(words, 4 - state["buffer_pos"])
    bit_generator.random_raw(buffered, output=False)
    rest = words - buffered
    if rest:
        # ``advance`` overflows on a NumPy integer, so it gets a Python one.
        bit_generator.advance(int(rest // 4))
        bit_generator.random_raw(rest % 4, output=False)
    return np.random.Generator(taken)
