"""Base signal types, the Gray-mapped four-point modem and deterministic seeding.

All power scaling is carried by the framing layer; the symbols here
have unit energy so that a stream's power knob has a single home.
"""
from __future__ import annotations

from dataclasses import dataclass
from enum import Enum

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

    def with_data(self, data: np.ndarray, domain: Domain | None = None) -> "Frame":
        return Frame(data, self.domain if domain is None else domain)

    def energy(self) -> float:
        return float(np.sum(np.abs(self.data) ** 2))


# One Gray-mapped four-point alphabet: the first bit of a pair sets the sign of
# the real part, the second the sign of the imaginary part (0 -> +, 1 -> -)
BITS_PER_SYMBOL = 2


def modulate_bits(bits: np.ndarray) -> np.ndarray:
    """Map a bit vector onto unit-energy Gray-mapped symbols:
    00 -> (+1+j)/sqrt2, 01 -> (+1-j)/sqrt2, 10 -> (-1+j)/sqrt2,
    11 -> (-1-j)/sqrt2.  Adjacent points differ in one bit."""
    b = np.asarray(bits, dtype=np.int64).reshape(-1)
    if b.size % BITS_PER_SYMBOL != 0:
        raise InvalidLength(
            f"bit count {b.size} not divisible by {BITS_PER_SYMBOL} bits/symbol"
        )
    return ((1 - 2 * b[0::2]) + 1j * (1 - 2 * b[1::2])) / np.sqrt(2.0)


def demodulate_symbols(symbols: np.ndarray) -> np.ndarray:
    """Hard decision by sign: a bit is 1 where its component is negative.

    A zero component (either sign of zero) or a NaN one decides 0, as the
    tie-break of a nearest-point search toward the lowest label does.  The
    two rules differ only where that search sees a tie the signs do not: a
    negative component too small (|x| below about 6e-17) to move the
    distance to either point, or a negative component beside a NaN one
    (the search decides 00 for any symbol holding a NaN)."""
    s = np.asarray(symbols, dtype=np.complex128).reshape(-1)
    out = np.empty(BITS_PER_SYMBOL * s.size, dtype=np.int64)
    out[0::2] = s.real < 0
    out[1::2] = s.imag < 0
    return out


def frame_rng(seed: int, point: int, frame: int) -> np.random.Generator:
    """Counter-based per-frame generator.

    Philox keyed on the run seed with a (point, frame) counter makes every
    frame's randomness independent of execution order and worker count.
    """
    mask = (1 << 64) - 1
    bg = np.random.Philox(key=np.uint64(seed & mask),
                          counter=[0, 0, np.uint64(point & mask), np.uint64(frame & mask)])
    return np.random.Generator(bg)


def random_bits(rng: np.random.Generator, n: int) -> np.ndarray:
    return rng.integers(0, 2, size=n, dtype=np.int64)
