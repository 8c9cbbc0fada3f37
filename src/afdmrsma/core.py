"""Base signal types, Gray-mapped constellations and deterministic seeding.

All power scaling is carried by the framing layer; constellations here are
unit average energy so that a stream's power knob has a single home.
"""
from __future__ import annotations

from dataclasses import dataclass, field
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


@dataclass(frozen=True, eq=False)
class Constellation:
    """Gray-labelled, unit-average-energy constellation.

    ``points[label]`` is the symbol whose bit pattern is the binary
    expansion of ``label`` (MSB first).  Constellations compare and hash
    by their points, so configurations holding one do too.
    """

    points: np.ndarray
    bits_per_symbol: int = field(init=False)

    def __post_init__(self):
        pts = np.asarray(self.points, dtype=np.complex128)
        pts.flags.writeable = False
        object.__setattr__(self, "points", pts)
        k = int(np.log2(pts.size))
        if 2 ** k != pts.size:
            raise ValueError("constellation order must be a power of 2")
        object.__setattr__(self, "bits_per_symbol", k)

    def __eq__(self, other) -> bool:
        if not isinstance(other, Constellation):
            return NotImplemented
        return self.points.tobytes() == other.points.tobytes()

    def __hash__(self) -> int:
        return hash(self.points.tobytes())


def qpsk() -> Constellation:
    """Gray QPSK: 00 -> (+1+j)/sqrt2, 01 -> (+1-j)/sqrt2,
    10 -> (-1+j)/sqrt2, 11 -> (-1-j)/sqrt2.

    First bit selects the real sign, second bit the imaginary sign
    (0 -> +, 1 -> -), which is Gray: adjacent points differ in one bit.
    """
    pts = np.array([1 + 1j, 1 - 1j, -1 + 1j, -1 - 1j]) / np.sqrt(2.0)
    return Constellation(pts)


def modulate_bits(bits: np.ndarray, c: Constellation) -> np.ndarray:
    """Map a bit vector onto constellation symbols, MSB first per symbol."""
    bits = np.asarray(bits, dtype=np.int64).reshape(-1)
    k = c.bits_per_symbol
    if bits.size % k != 0:
        raise InvalidLength(
            f"bit count {bits.size} not divisible by {k} bits/symbol"
        )
    labels = bits.reshape(-1, k) @ (1 << np.arange(k - 1, -1, -1))
    return c.points[labels]


def demodulate_symbols(symbols: np.ndarray, c: Constellation) -> np.ndarray:
    """Hard nearest-neighbour decision; ties break toward the lowest label."""
    symbols = np.asarray(symbols, dtype=np.complex128).reshape(-1)
    d = np.abs(symbols[:, None] - c.points[None, :])
    labels = np.argmin(d, axis=1)  # argmin returns the first (lowest) index on ties
    k = c.bits_per_symbol
    out = (labels[:, None] >> np.arange(k - 1, -1, -1)) & 1
    return out.reshape(-1).astype(np.int64)


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
