"""A study row's trial coefficients drawn as one block.

`experiments.trial_rng(seed, N, t)` defines trial t's substream: a numpy
`Generator` on a `PCG64` seeded from `SeedSequence(entropy=seed,
spawn_key=(N, t))`. Building the SeedSequence and the Generator costs more
than the draw itself, so `block_draw` replays them, bit for bit, for a
range of trials at once:

- numpy's SeedSequence pool hash (seed_seq_fe: 32-bit words, a pool of 4)
  mixes the entropy words in order: the seed padded to 4 words, N, t. The
  pool after N is one `SeedSequence(entropy=seed, spawn_key=(N,)).pool` per
  row; the trial words are mixed in, and `generate_state(4, uint64)` is
  hashed out, for all trials as uint32 arrays;
- each trial's PCG64 is seeded from those 4 words by numpy itself, through
  a `SeedSequence` stand-in that returns them, and its raw words fill one
  row of the block;
- the raw words map to coefficients as `Generator.integers(0, 2)` maps them
  (bit 31 of each 32-bit half, low half first) and `Generator.random()`
  does (the top 53 bits times 2^-53), followed by `draw_coefficients`'s
  own `* 2 - 1` or `exp(2j*pi*u)`.

numpy's own route stays the reference the tests hold this one to.
"""

from __future__ import annotations

from functools import cache
from typing import Callable

import numpy as np

from .errors import ChaosError

ENSEMBLES = ("signs", "unimodular")

# seed_seq_fe's hash constants: the pool hash and generate_state each use
# the constants init * mult^i mod 2^32, i = 0, 1, 2, ... in turn
_POOL_INIT, _POOL_MULT = 0x43B0D7E5, 0x931E8875
_STATE_INIT, _STATE_MULT = 0x8B51F9DD, 0x58F38DED
_MIX_LEFT, _MIX_RIGHT = np.uint32(0xCA01F9DD), np.uint32(0x4973F715)
_SIGNS = np.array([-1, 1], dtype=np.complex128)


@cache
def _hash_constants(init: int, mult: int, start: int, count: int) -> np.ndarray:
    """The xor (row 0) and multiplier (row 1) constants of `count` hash
    steps from step `start` on, read-only."""
    consts = [init * pow(mult, i, 2**32) % 2**32 for i in range(start, start + count + 1)]
    out = np.array([consts[:-1], consts[1:]], np.uint32)
    out.flags.writeable = False
    return out


def _hash(value: np.ndarray, xor: np.ndarray, mult: np.ndarray) -> np.ndarray:
    """One hash step on uint32 arrays, whose products wrap mod 2^32."""
    value = (value ^ xor) * mult
    return value ^ value >> 16


def _mix(pool: np.ndarray, hashed: np.ndarray) -> np.ndarray:
    value = pool * _MIX_LEFT - hashed * _MIX_RIGHT
    return value ^ value >> 16


# generate_state's 8 steps, one per 32-bit output word: two rounds over
# the pool's 4 words
_STATE_STEPS = _hash_constants(_STATE_INIT, _STATE_MULT, 0, 8).reshape(2, 2, 4)


def _word_count(value: int) -> int:
    """The 32-bit words SeedSequence makes of a non-negative int."""
    return max(1, -(-value.bit_length() // 32))


@cache
def _state_type() -> type:
    """A SeedSequence stand-in holding a trial's `generate_state(4, uint64)`
    words, computed in advance; PCG64 seeds itself from exactly that call.
    Built on first use: numpy imports `numpy.random` lazily, and one-shot
    commands that draw nothing should not pay for it."""

    class State(np.random.bit_generator.ISeedSequence):
        def __init__(self, words: np.ndarray) -> None:
            self.words = words

        def generate_state(self, n_words, dtype=np.uint32):
            return self.words

    return State


def block_draw(seed: int, N: int, count: int, ensemble: str) -> Callable[[range], np.ndarray]:
    """A function from a range of trials to their (trials x count) block of
    `ensemble` coefficients, bit-identical to `draw_coefficients(
    trial_rng(seed, N, t), count, ensemble)` stacked over the trials t.

    Trial indices are one 32-bit word each: a range past 2^32 is refused
    (`ExperimentConfig` admits at most 2^32 trials).
    """
    if ensemble not in ENSEMBLES:
        raise ChaosError(f"unknown ensemble {ensemble!r} (expected one of {ENSEMBLES})")
    pool = np.random.SeedSequence(entropy=seed, spawn_key=(N,)).pool
    # the hash steps that pool took: one per pool word, 12 cross-mixing the
    # pool, then 4 per entropy word past the (padded) seed's first 4
    steps = 16 + 4 * (max(4, _word_count(seed)) - 4 + _word_count(N))
    trial_steps = _hash_constants(_POOL_INIT, _POOL_MULT, steps, 4)
    raw_count = (count + 1) // 2 if ensemble == "signs" else count

    def draw(trials: range) -> np.ndarray:
        if trials.stop > 2**32:
            raise ChaosError(f"trial indices must be below 2^32, got {trials}")
        words = np.arange(trials.start, trials.stop, dtype=np.uint32)[:, None]
        mixed = _mix(pool, _hash(words, *trial_steps))
        state = _hash(mixed[:, None], *_STATE_STEPS).reshape(-1, 8)
        # generate_state(4, uint64) joins pairs of 32-bit words little-endian
        seeds = state.astype("<u4", copy=False).view("<u8").astype(np.uint64, copy=False)
        raw = np.empty((len(trials), raw_count), np.uint64)
        for row, key in zip(raw, map(_state_type(), seeds)):
            row[:] = np.random.PCG64(key).random_raw(raw_count)
        if ensemble == "signs":
            halves = raw.astype("<u8", copy=False).view("<u4")[:, :count]
            return _SIGNS[halves >> 31]
        phases = np.multiply(2j * np.pi, (raw >> 11) * 2.0**-53)
        return np.exp(phases, out=phases)

    return draw
