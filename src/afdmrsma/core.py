"""Base signal types, the Gray-mapped four-point modem and deterministic seeding.

All power scaling is carried by the framing layer; the symbols here
have unit energy so that a stream's power knob has a single home.
"""
from __future__ import annotations

from dataclasses import dataclass
from enum import Enum
from functools import lru_cache

import numpy as np

from .errors import InvalidLength


class Domain(Enum):
    TIME = "time"
    FREQUENCY = "frequency"
    AFFINE = "affine"


@dataclass(frozen=True)
class Frame:
    """Length-N complex vector tagged with the domain it lives in.

    The payload is copied on construction and marked read-only, so frames
    can be shared freely between concurrent workers.
    """

    data: np.ndarray
    domain: Domain

    def __post_init__(self):
        arr = np.array(self.data, dtype=np.complex128, copy=True).reshape(-1)
        arr.flags.writeable = False
        object.__setattr__(self, "data", arr)

    @property
    def n(self) -> int:
        return self.data.size

    def energy(self) -> float:
        return float(np.sum(np.abs(self.data) ** 2))


# One Gray-mapped four-point alphabet: the first bit of a pair sets the sign of
# the real part, the second the sign of the imaginary part (0 -> +, 1 -> -)
BITS_PER_SYMBOL = 2


def modulate_bits(bits: np.ndarray) -> np.ndarray:
    """Map a bit vector onto unit-energy Gray-mapped symbols:
    00 -> (+1+j)/sqrt2, 01 -> (+1-j)/sqrt2, 10 -> (-1+j)/sqrt2,
    11 -> (-1-j)/sqrt2.  Adjacent points differ in one bit."""
    return _modulate(np.asarray(bits, dtype=np.int64).reshape(-1))


def _modulate(b: np.ndarray) -> np.ndarray:
    """:func:`modulate_bits` along the last axis of an integer bit array."""
    if b.shape[-1] % BITS_PER_SYMBOL != 0:
        raise InvalidLength(
            f"bit count {b.shape[-1]} not divisible by {BITS_PER_SYMBOL} bits/symbol"
        )
    return _POINTS[2 * b[..., 0::2] + b[..., 1::2]]


# the four points by label, from the mapping rule above
_LABELS = np.array([[0, 0], [0, 1], [1, 0], [1, 1]])
_POINTS = ((1 - 2 * _LABELS[:, 0]) + 1j * (1 - 2 * _LABELS[:, 1])) / np.sqrt(2.0)
_POINTS.flags.writeable = False


def demodulate_symbols(symbols: np.ndarray) -> np.ndarray:
    """Hard decision by sign: a bit is 1 where its component is negative.

    A zero component (either sign of zero) or a NaN one decides 0, as the
    tie-break of a nearest-point search toward the lowest label does.  The
    two rules differ only where that search sees a tie the signs do not: a
    negative component too small (|x| below about 6e-17) to move the
    distance to either point, or a negative component beside a NaN one
    (the search decides 00 for any symbol holding a NaN)."""
    return _demodulate(np.asarray(symbols, dtype=np.complex128).reshape(-1))


def _demodulate(s: np.ndarray) -> np.ndarray:
    """:func:`demodulate_symbols` along the last axis of a complex array."""
    # (re, im) pairs side by side: the bits in their order
    return (np.ascontiguousarray(s).view(np.float64) < 0).astype(np.int64)


_MASK64 = (1 << 64) - 1


def frame_rng(seed: int, point: int, frame: int) -> np.random.Generator:
    """Counter-based per-frame generator.

    Philox keyed on the run seed with a (point, frame) counter makes every
    frame's randomness independent of execution order and worker count.
    """
    bg = np.random.Philox(key=np.uint64(seed & _MASK64),
                          counter=[0, 0, np.uint64(point & _MASK64), np.uint64(frame & _MASK64)])
    return np.random.Generator(bg)


def frame_draws(seed: int, point: int, frames: range, n_bits: int,
                n_normals: int) -> tuple[np.ndarray, np.ndarray]:
    """The randomness of several frames as (frames, n_bits) bits and
    (frames, n_normals) standard normals.

    Row i holds what ``frame_rng(seed, point, frames[i])`` yields for
    ``random_bits(rng, n_bits)`` followed by ``rng.standard_normal(n_normals)``;
    the bits are stored as int8.  One Philox is re-keyed per frame by
    setting its state, which draws the same numbers as a new generator at
    lower cost.

    The bits come from the generator's raw 64-bit words, ceil(n_bits / 2)
    per frame: numpy's ``integers(0, 2)`` takes the top bit of each 32-bit
    half of a word, low half first (Lemire's rule for a range of 2), so bit
    2j is bit 31 of word j and bit 2j + 1 is bit 63.  The normals do not
    read the spare half an odd count leaves.  The test
    ``test_block_draws_equal_frame_rng_draws`` pins this rule against
    ``random_bits``.
    """
    bg, gen, fresh = _philox(seed & _MASK64)
    state = {**fresh, "state": dict(fresh["state"])}
    counters = np.zeros((len(frames), 4), dtype=np.uint64)
    counters[:, 2] = point & _MASK64
    counters[:, 3] = [frame & _MASK64 for frame in frames]
    words = np.empty((len(frames), (n_bits + 1) // 2), dtype=np.uint64)
    normals = np.empty((len(frames), n_normals))
    for i, counter in enumerate(counters):
        state["state"]["counter"] = counter
        bg.state = state
        words[i] = bg.random_raw(words.shape[1])
        gen.standard_normal(out=normals[i])
    # a word's 32-bit halves, low half first, side by side: bit 31 of each
    bits = (words.astype("<u8", copy=False).view("<u4") >> 31).astype(np.int8)
    return bits[:, :n_bits], normals


@lru_cache(maxsize=8)
def _philox(key: int):
    """A Philox keyed on ``key``, its Generator and its fresh state (empty
    output buffer, no spare 32-bit half) with read-only arrays.  Every draw
    of :func:`frame_draws` sets the state first, so what an earlier call
    left in the generator is never read."""
    bg = np.random.Philox(key=np.uint64(key))
    state = bg.state
    for arr in (state["state"]["key"], state["state"]["counter"], state["buffer"]):
        arr.flags.writeable = False
    return bg, np.random.Generator(bg), state


def random_bits(rng: np.random.Generator, n: int) -> np.ndarray:
    return rng.integers(0, 2, size=n, dtype=np.int64)
