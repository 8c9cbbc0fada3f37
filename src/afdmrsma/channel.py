"""Tap channels with integer delays and Dopplers, plus AWGN.

A tap (h, l, k) acts cyclically on a length-L frame as

    y(n) = h * exp(j 2 pi k ([n-l] mod L) / L) * x([n-l] mod L),

i.e. delay by l samples then a k-cycles-per-frame Doppler ramp, both
wrapping modulo the frame it is applied to.  Applied to a CP-protected
frame this reduces to the classic circular model on the N-sample window for
delay-only taps; with cp_len = 0 it is exactly the cyclic delay-Doppler
matrix channel at length N.

In the affine plane a tap shifts the pilot from index 0 to
(k - c1' l) mod N: delays move the peak to the wrap side of the two-sided
guard, Dopplers to the near side.
"""
from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .core import Frame
from .errors import DopplerPresent, InvalidChannel

_rt = np.sqrt


@dataclass(frozen=True)
class ChannelTap:
    h: complex
    l: int
    k: int

    def __post_init__(self):
        if self.l < 0:
            raise InvalidChannel(f"negative delay {self.l}")


@dataclass(frozen=True)
class ChannelSpec:
    taps: tuple[ChannelTap, ...]
    noise_var: float = 0.0
    normalize: bool = False

    def __post_init__(self):
        taps = tuple(self.taps)
        if not taps:
            raise InvalidChannel("need at least one tap")
        if self.noise_var < 0:
            raise InvalidChannel("noise variance must be >= 0")
        if len({(t.l, t.k) for t in taps}) < len(taps):
            raise InvalidChannel("two taps share one (delay, Doppler) pair")
        if not any(t.h for t in taps):
            raise InvalidChannel("the taps have zero total power")
        if self.normalize:
            p = _rt(sum(abs(t.h) ** 2 for t in taps))
            taps = tuple(ChannelTap(t.h / p, t.l, t.k) for t in taps)
        object.__setattr__(self, "taps", taps)

    @property
    def max_delay(self) -> int:
        return max(t.l for t in self.taps)

    @property
    def max_doppler(self) -> int:
        return max(t.k for t in self.taps)

    @property
    def has_doppler(self) -> bool:
        return any(t.k != 0 for t in self.taps)

    def with_noise(self, noise_var: float) -> "ChannelSpec":
        return ChannelSpec(self.taps, noise_var, normalize=False)


def two_tap(p2: float, l2: int = 0, k2: int = 0, noise_var: float = 0.0) -> ChannelSpec:
    """Unit-power two-tap channel: a main tap at (0, 0) plus a second tap
    with power fraction p2 at (l2, k2)."""
    return ChannelSpec((ChannelTap(_rt(1.0 - p2), 0, 0), ChannelTap(_rt(p2), l2, k2)),
                       noise_var)


def apply_channel(x: Frame, spec: ChannelSpec, rng: np.random.Generator | None = None) -> Frame:
    """Pass a time frame (CP included) through the tap channel and add
    circular complex AWGN of variance ``noise_var`` per sample."""
    normals = None
    if spec.noise_var > 0:
        if rng is None:
            rng = np.random.default_rng()
        normals = rng.standard_normal(2 * x.n)
    return Frame(_channel(x.data, spec, normals), x.domain)


def _channel(x: np.ndarray, spec: ChannelSpec, normals: np.ndarray | None) -> np.ndarray:
    """:func:`apply_channel` along the last axis of a time array of length
    L, with the noise made from standard normal draws (..., 2L): the real
    parts first, then the imaginary parts.  ``normals`` is not read at zero
    noise."""
    ell = x.shape[-1]
    idx, gain = _tap_ramps(spec.taps, ell)
    # every tap's product at once (C-ordered, as the gather by np.take
    # leaves it), added up tap by tap in list order
    y = np.multiply(gain, np.take(x, idx, axis=-1)).sum(axis=-2)
    if spec.noise_var > 0:
        scale = _rt(spec.noise_var / 2.0)
        y += scale * (normals[..., :ell] + 1j * normals[..., ell:])
    return y


@lru_cache(maxsize=64)
def _tap_ramps(taps: tuple[ChannelTap, ...], ell: int) -> tuple[np.ndarray, np.ndarray]:
    """What :func:`_channel` gathers and multiplies on length-``ell``
    frames, one row per tap, read-only: the gather index ``(n - l) mod ell``
    and the gain ``h exp(j 2 pi k idx / ell)``."""
    n = np.arange(ell)
    rows = []
    for tap in taps:
        if tap.l >= ell:
            raise InvalidChannel(f"delay {tap.l} >= frame length {ell}")
        idx = (n - tap.l) % ell
        rows.append((idx, tap.h * np.exp(2j * np.pi * tap.k * idx / ell)))
    idx, gain = np.array([i for i, _ in rows]), np.array([g for _, g in rows])
    idx.flags.writeable = gain.flags.writeable = False
    return idx, gain


def freq_response(spec: ChannelSpec, n: int) -> np.ndarray:
    """H(m) = sum_r h_r exp(-j 2 pi m l_r / n) for delay-only channels.

    CP-protected frames then satisfy Y(m) = S(m) H(m) subcarrier-wise.
    """
    if spec.has_doppler:
        raise DopplerPresent("frequency response is defined for delay-only channels")
    return frequency_diagonal(spec, n)


def _delay_response(gains: np.ndarray, delays, n: int) -> np.ndarray:
    """:func:`freq_response` of delay-only taps with ``gains`` (..., taps):
    one response per row of gains."""
    m = np.arange(n)
    h = np.zeros(gains.shape[:-1] + (n,), dtype=np.complex128)
    for t, l in enumerate(delays):
        h += np.multiply(gains[..., t, None], np.exp(-2j * np.pi * m * l / n))
    return h


def frequency_diagonal(spec: ChannelSpec, n: int) -> np.ndarray:
    """Diagonal of the frequency-domain channel matrix.

    Integer-Doppler taps average to zero along the diagonal, so only the
    delay-only taps contribute; this is the best one-tap reference a
    conventional per-subcarrier receiver can use under Doppler.  The array
    is read-only: it is computed once per tap list and length.
    """
    return _static_response(spec.taps, n)


@lru_cache(maxsize=64)
def _static_response(taps: tuple[ChannelTap, ...], n: int) -> np.ndarray:
    """:func:`frequency_diagonal` of a tap list, read-only."""
    static = [t for t in taps if t.k == 0]
    h = _delay_response(np.array([t.h for t in static], dtype=np.complex128),
                        [t.l for t in static], n)
    h.flags.writeable = False
    return h


def snr_to_noise_var(snr_db: float, avg_sample_energy: float) -> float:
    """Noise variance giving the requested SNR against the average
    transmitted sample energy (data frame, CP excluded)."""
    return avg_sample_energy / (10.0 ** (snr_db / 10.0))
