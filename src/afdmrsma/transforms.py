"""Unitary DFT/DAFT pairs and the chirp spreading maps between domains.

The affine (chirp) synthesis is

    s(n) = (1/sqrt N) sum_i X(i) exp(j 2 pi (c1 n^2 + c2 i^2 + n i / N)),

with c1 = c1'/(2N) and c1' a power of two dividing N.  The analysis
transform is its exact inverse, so both directions are unitary and power
bookkeeping survives every domain change.

With N = c1' M the time chirp exp(j pi n^2 / M) is M-periodic whenever M is
even, which confines the frequency image of affine index i to the
subcarriers m with i = m (mod c1').  The spreading maps below are computed
as composed fast transforms (O(N log N)); no dense N x N form is built.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .core import Domain, Frame
from .errors import InvalidLength, ConfigError, _refuse_non_integers, _refuse_non_numbers


def _is_pow2(x: int) -> bool:
    return x >= 1 and (x & (x - 1)) == 0


@dataclass(frozen=True)
class AffineParams:
    """Chirp transform geometry.

    n: frame length, power of two.
    c1_prime: integer chirp slope, power of two, divides n.
    c2: frequency-direction chirp rate (adds per-index phase only).
    """

    n: int
    c1_prime: int
    c2: float = 0.0

    def __post_init__(self):
        _refuse_non_integers(ConfigError, n=self.n, c1_prime=self.c1_prime)
        _refuse_non_numbers(ConfigError, c2=self.c2)
        if not _is_pow2(self.n):
            raise ConfigError(f"frame length {self.n} is not a power of 2")
        if not math.isfinite(self.c2):
            raise ConfigError(f"c2 must be a finite number, got {self.c2}")
        if not _is_pow2(self.c1_prime):
            raise ConfigError(f"c1_prime {self.c1_prime} is not a power of 2")
        if self.n % self.c1_prime != 0:
            raise ConfigError(f"c1_prime {self.c1_prime} does not divide N={self.n}")

    @property
    def m(self) -> int:
        """Class size M = N / c1'."""
        return self.n // self.c1_prime


def _unit(phase: np.ndarray, n: int) -> np.ndarray:
    """``exp(j pi phase / N)`` of integer phases, reduced mod 2N first in
    exact integer arithmetic, so large-N frames keep full double precision.
    The time chirp, the shift spectra and the receiver's pilot, tap and
    chirp phases all come from here; only the simulated channel's Doppler
    ramps, over the N + cp samples it is applied to, are made apart."""
    return np.exp(1j * np.pi * (phase % (2 * n)) / n)


@lru_cache(maxsize=32)
def _chirps(n: int, c1_prime: int, c2: float):
    """(time chirp e^{j2pi c1 k^2}, freq chirp e^{j2pi c2 k^2}) and their
    conjugates, read-only; the time chirp is :func:`_unit` of c1' k^2."""
    k = np.arange(n, dtype=np.int64)
    time_chirp = _unit(c1_prime * k * k, n)
    freq_chirp = np.exp(2j * np.pi * np.mod(c2 * (k.astype(float) ** 2), 1.0))
    out = (time_chirp, freq_chirp, time_chirp.conj(), freq_chirp.conj())
    for arr in out:
        arr.flags.writeable = False
    return out


@lru_cache(maxsize=32)
def _spectra(shifts: tuple, n: int) -> np.ndarray:
    """The :func:`_shift_spectrum` of each shift, as one read-only (shifts,
    N) array.  Only the latest lists keep theirs: a sweep can meet hundreds
    (fig7 does), and each list holds a copy of its rows."""
    spectra = np.array([_shift_spectrum(s, n) for s in shifts],
                       dtype=np.complex128).reshape(len(shifts), n)
    spectra.flags.writeable = False
    return spectra


@lru_cache(maxsize=256)
def _shift_spectrum(s: int, n: int) -> np.ndarray:
    """The FFT of a unit impulse at s: ``exp(-2 pi j m s / N)``, read-only."""
    spectrum = _unit(-2 * s * np.arange(n), n)
    spectrum.flags.writeable = False
    return spectrum


def _check(x: Frame, domain: Domain, n: int | None = None) -> np.ndarray:
    if x.domain is not domain:
        raise ConfigError(f"expected a {domain.value}-domain frame, got {x.domain.value}")
    if n is not None and x.n != n:
        raise InvalidLength(f"frame length {x.n} != configured N={n}")
    return x.data


# Array kernels of the public transforms below, for callers holding plain
# arrays.  Each transforms along the last axis, so a (frames, N) block goes
# through in one call.  Complex products are written as np.multiply(data,
# chirp): numpy may evaluate ``a * b`` in place in a large temporary ``b``
# as ``b * a``, which rounds differently, and then a row's result would
# depend on the size of the block it came in.
def _dft(x: np.ndarray) -> np.ndarray:
    return np.fft.fft(x) / np.sqrt(x.shape[-1])


def _idft(x: np.ndarray) -> np.ndarray:
    return np.fft.ifft(x) * np.sqrt(x.shape[-1])


def _idaft(x: np.ndarray, p: AffineParams) -> np.ndarray:
    tc, fc, _, _ = _chirps(p.n, p.c1_prime, p.c2)
    return np.multiply(np.fft.ifft(np.multiply(x, fc)) * np.sqrt(p.n), tc)


def _daft(x: np.ndarray, p: AffineParams) -> np.ndarray:
    _, _, tcc, fcc = _chirps(p.n, p.c1_prime, p.c2)
    return np.multiply(np.fft.fft(np.multiply(x, tcc)) / np.sqrt(p.n), fcc)


def _affine_to_freq(x: np.ndarray, p: AffineParams) -> np.ndarray:
    tc, fc, _, _ = _chirps(p.n, p.c1_prime, p.c2)
    return np.fft.fft(np.multiply(np.fft.ifft(np.multiply(x, fc)), tc))


def _freq_to_affine(x: np.ndarray, p: AffineParams) -> np.ndarray:
    _, _, tcc, fcc = _chirps(p.n, p.c1_prime, p.c2)
    return np.multiply(np.fft.fft(np.multiply(np.fft.ifft(x), tcc)), fcc)


def dft(x: Frame, n: int | None = None) -> Frame:
    """Unitary DFT, time -> frequency."""
    return Frame(_dft(_check(x, Domain.TIME, n)), Domain.FREQUENCY)


def idft(x: Frame, n: int | None = None) -> Frame:
    """Unitary inverse DFT, frequency -> time."""
    return Frame(_idft(_check(x, Domain.FREQUENCY, n)), Domain.TIME)


def idaft(x: Frame, p: AffineParams) -> Frame:
    """Chirp synthesis, affine -> time."""
    return Frame(_idaft(_check(x, Domain.AFFINE, p.n), p), Domain.TIME)


def daft(x: Frame, p: AffineParams) -> Frame:
    """Chirp analysis, time -> affine; exact inverse of :func:`idaft`."""
    return Frame(_daft(_check(x, Domain.TIME, p.n), p), Domain.AFFINE)


def affine_to_freq(x: Frame, p: AffineParams) -> Frame:
    """Spread an affine frame into the frequency domain (= dft o idaft).

    For even M the image of affine index i occupies only the subcarriers m
    with m = i (mod c1').
    """
    return Frame(_affine_to_freq(_check(x, Domain.AFFINE, p.n), p), Domain.FREQUENCY)


def freq_to_affine(x: Frame, p: AffineParams) -> Frame:
    """Spread a frequency frame into the affine domain; inverse of
    :func:`affine_to_freq`."""
    return Frame(_freq_to_affine(_check(x, Domain.FREQUENCY, p.n), p), Domain.AFFINE)
