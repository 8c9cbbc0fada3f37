"""Channel estimation, equalization and dual-domain stream detection.

Estimation runs in one of two places:

* frequency domain (clean-pilot frames over delay-only channels): the
  pilot's spread image occupies every c1'-th subcarrier with constant
  magnitude sqrt(phi/M), so a per-subcarrier LS division followed by an
  M-tap time-domain expansion yields H(m) on all N subcarriers (valid while
  the delay spread stays below M);
* affine domain: a tap (h, l, k) moves the pilot from index 0 to the bin
  with signed offset sigma = k - c1' l, so a thresholded peak search over
  the guard zone recovers (l, k) from the quotient/remainder of sigma by
  c1' (unique while k < c1'), and h from the peak value after removing the
  deterministic chirp phase.

Both estimators and the detector read the same (frequency, affine) pair of
planes, which the caller analyses once per frame with
``framing.extract_received_planes``.  The equalizer is MMSE, which is ZF at
zero noise.  A frequency-domain estimate is one tap per subcarrier.  A tap
estimate is solved in whichever of time (tap shifts l) and unitary
frequency (tap shifts k) has the narrower spread of tap shifts: one tap
per sample when all shifts agree, block cyclic reduction of the banded
cyclic Gram otherwise, so no N x N system is ever formed.  The tap
estimates of a block, grouped by tap list, are equalized in one call with
one domain change per domain and one cyclic reduction per block size
(:func:`_tap_mmse`).  Detection reads the common stream straight off the
equalized affine plane and the private stream straight off the equalized
frequency plane; each SIC round additionally rebuilds and subtracts the
opposite stream's spread image between reads.

Each stage has one implementation, an array kernel that acts on every row
of a (frames, N) block.  The public per-frame functions run it on a block
of one row, and the harness runs it on whole blocks.
"""
from __future__ import annotations

from dataclasses import dataclass
from enum import Enum
from functools import lru_cache
from itertools import compress
from typing import NamedTuple

import numpy as np

from .channel import (ChannelSpec, ChannelTap, _delay_response, freq_response,
                      frequency_diagonal)
from .core import Domain, Frame, _demodulate, _modulate
from .errors import (ConfigError, DegeneratePilot, GuardViolation,
                     PilotContaminated, SingularChannel, UnresolvableDoppler)
from .framing import (Approach, FrameConfig, _common_plane, _private_plane,
                      frame_energy_budget)
from .transforms import (AffineParams, _affine_to_freq, _check, _daft, _freq_to_affine,
                         _idaft)
# not called here; kept as attributes because linkbench/spans.py patches them
from .core import demodulate_symbols, modulate_bits  # noqa: F401
from .framing import (build_affine_common, build_affine_extra,  # noqa: F401
                      build_affine_pilot, build_freq_private, extract_received_planes,
                      resource_map)
from .transforms import affine_to_freq, daft, freq_to_affine, idaft  # noqa: F401

# peak threshold of the affine estimator, in multiples of its noise floor
THRESHOLD_SCALE = 3.0


class ReceiverMode(Enum):
    SIC_FREE = "sicfree"
    SIC_CLEAN_PILOT = "sic-clean"
    SIC_FULL = "sic-full"


# SIC rounds after the first read of both streams: each round subtracts the
# detected common image from the frequency plane before the private stream
# is read; every round after the first also subtracts the detected private
# image from the affine plane and reads the common stream again
_SIC_ROUNDS = {ReceiverMode.SIC_FREE: 0, ReceiverMode.SIC_CLEAN_PILOT: 1,
               ReceiverMode.SIC_FULL: 2}


@dataclass(frozen=True)
class ChannelEstimate:
    """A channel estimate in one form: a frequency response (``FREQUENCY``,
    ``h_freq``) or a tap list (``AFFINE``, ``taps``)."""

    domain: Domain
    taps: tuple[ChannelTap, ...] | None = None
    h_freq: np.ndarray | None = None

    def __post_init__(self):
        if (self.domain, self.taps is None, self.h_freq is None) not in (
                (Domain.FREQUENCY, True, False), (Domain.AFFINE, False, True)):
            raise ConfigError("a channel estimate is a frequency response (FREQUENCY, h_freq) "
                              "or a tap list (AFFINE, taps)")
        if self.h_freq is not None:
            arr = np.asarray(self.h_freq, dtype=np.complex128)
            arr.flags.writeable = False
            object.__setattr__(self, "h_freq", arr)


def estimate_channel_freq(y_freq: Frame, cfg: FrameConfig,
                          max_delay: int | None = None) -> ChannelEstimate:
    """Clean-pilot LS estimate on the class-0 subcarriers, expanded to all N.

    Assumes a delay-only channel; Doppler leaks neighbouring data into the
    pilot subcarriers and degrades the estimate accordingly.
    """
    return ChannelEstimate(Domain.FREQUENCY,
                           h_freq=_ls_freq(_check(y_freq, Domain.FREQUENCY, cfg.n), cfg, max_delay))


def _ls_freq(y_freq: np.ndarray, cfg: FrameConfig, max_delay: int | None) -> np.ndarray:
    """:func:`estimate_channel_freq`'s response along the last axis."""
    if cfg.approach is not Approach.CLEAN_PILOT:
        raise PilotContaminated("embedded-pilot frames carry data on the pilot subcarriers")
    c1p, m = cfg.affine.c1_prime, cfg.affine.m
    if max_delay is not None and max_delay >= m:
        raise ConfigError(f"delay spread {max_delay} aliases: needs max delay < M={m}")
    p0 = cfg.layout.pilot_freq[::c1p]
    if np.min(np.abs(p0)) < 1e-12:
        raise DegeneratePilot("pilot subcarrier magnitude too small for LS division")
    h0 = y_freq[..., ::c1p] / p0
    h_time = np.fft.ifft(h0)                    # <= M time taps
    if max_delay is not None:
        # receiver prior: taps beyond the design delay spread are noise
        h_time[..., max_delay + 1:] = 0.0
    return np.fft.fft(h_time, n=cfg.n)          # re-expanded to N subcarriers


class _PeakZone(NamedTuple):
    """The guard zone the affine estimator searches, one entry per signed
    pilot shift -G..G: the affine bin it lands on, the (delay, Doppler) it
    decodes to (shift = k - c1' l), whether the search bounds admit it, and
    the pilot's gain at that bin through a unit tap of that (delay, Doppler)."""

    offsets: np.ndarray
    bins: np.ndarray
    delays: np.ndarray
    dopplers: np.ndarray
    is_candidate: np.ndarray
    pilot_gain: np.ndarray


@lru_cache(maxsize=32)
def _peak_zone(cfg: FrameConfig, max_delay: int | None,
               max_doppler: int | None) -> _PeakZone:
    n, c1p, g = cfg.n, cfg.affine.c1_prime, cfg.guard
    if max_doppler is not None and max_doppler >= c1p:
        raise UnresolvableDoppler(f"Doppler range {max_doppler} >= c1'={c1p} is ambiguous")
    if max_delay is not None:
        span = c1p * max_delay + (max_doppler or 0)
        if span > g:
            raise GuardViolation(f"pilot shift span {span} of the affine search exceeds guard {g}")
    offsets = np.arange(-g, g + 1)
    # signed pilot shift -> (delay, Doppler): offset = k - c1' * l
    dopplers = offsets % c1p
    delays = -((offsets - dopplers) // c1p)
    is_candidate = delays >= 0
    if max_delay is not None:
        is_candidate &= delays <= max_delay
    if max_doppler is not None:
        is_candidate &= dopplers <= max_doppler
    c1, c2 = cfg.affine.c1, cfg.affine.c2
    gain = []
    for off, l, k in zip(offsets.tolist(), delays.tolist(), dopplers.tolist()):
        b = off % n
        phase = np.exp(-2j * np.pi * c2 * b * b) * np.exp(2j * np.pi * (c1 * l * l - k * l / n))
        gain.append(np.sqrt(cfg.phi_pilot) * phase)
    zone = _PeakZone(offsets, offsets % n, delays, dopplers, is_candidate,
                     np.array(gain, dtype=np.complex128))
    for arr in zone:
        arr.flags.writeable = False
    return zone


def estimate_channel_affine(y_affine: Frame, cfg: FrameConfig,
                            max_delay: int | None = None,
                            max_doppler: int | None = None,
                            noise_var: float = 0.0,
                            strict: bool = True) -> ChannelEstimate:
    """Peak-search tap estimate in the guard zone around affine index 0:
    :func:`_affine_tap_groups` on one row.

    ``max_delay``/``max_doppler`` restrict the candidate search to the
    receiver's design assumptions; an above-threshold shift that cannot
    come from any (l >= 0, 0 <= k < c1') either raises (strict) or is
    skipped.
    """
    [(_, ls, ks, hs)] = _affine_tap_groups(_check(y_affine, Domain.AFFINE, cfg.n)[None], cfg,
                                           max_delay, max_doppler, noise_var, strict)
    taps = tuple(ChannelTap(complex(h), l, k) for l, k, h in zip(ls, ks, hs[0]))
    return ChannelEstimate(Domain.AFFINE, taps=taps)


def _affine_tap_groups(y_aff: np.ndarray, cfg: FrameConfig, max_delay: int | None,
                       max_doppler: int | None, noise_var: float, strict: bool = False):
    """The affine estimator's peak search on each row of a (rows, N) affine
    block, with the rows grouped by the taps found.

    The detection floor is the lower quartile of the candidate bins: the
    guard keeps channel-shifted data off those, but not off the rest of the
    zone.  The remaining zone bins or the known noise level stand in when
    the candidate set is too small.  Yields ``(rows, delays, dopplers,
    gains)``: the row indices of one group, the delay and Doppler lists of
    its taps by descending peak magnitude, and a (rows, taps) array of the
    tap gains.
    """
    zone = _peak_zone(cfg, max_delay, max_doppler)
    cand = zone.is_candidate
    peaks = y_aff[:, zone.bins]
    mags = np.abs(peaks)
    if int(np.sum(cand)) >= 6:
        threshold = THRESHOLD_SCALE * _lower_quartile(mags[:, cand])
    elif int(np.sum(~cand)) >= 4:
        threshold = THRESHOLD_SCALE * _lower_quartile(mags[:, ~cand])
    else:
        threshold = np.full(len(mags), THRESHOLD_SCALE * float(np.sqrt(noise_var))
                            if noise_var > 0 else 0.0)
    # keep numerical leakage out of the peak list even at zero noise
    threshold = np.maximum(threshold, 1e-9 * np.max(mags, axis=-1))

    order = np.argsort(mags, axis=-1)[:, ::-1]
    above = np.take_along_axis(mags, order, -1) > threshold[:, None]
    resolvable = cand[order]
    if strict and np.any(above & ~resolvable):
        stray = order[above & ~resolvable][0]
        raise UnresolvableDoppler(
            f"peak at shift {zone.offsets[stray]} has no (delay >= 0, Doppler < c1') "
            f"decomposition within the search bounds")
    keep = above & resolvable
    # keep the strongest resolvable peak so the receiver always has a
    # channel to work with, however deep the noise
    none = np.flatnonzero(~keep.any(axis=-1))
    first = np.argmax(resolvable[none], axis=-1)
    keep[none, first] = resolvable[none, first]
    gains = peaks / zone.pilot_gain
    size = np.take_along_axis(np.hypot(gains.real, gains.imag), order, -1)
    top = np.max(size, axis=-1, where=keep, initial=0.0)
    keep &= size > 1e-9 * top[:, None]

    groups: dict[tuple, list[int]] = {}
    for row, (found, kept) in enumerate(zip(order.tolist(), keep.tolist())):
        groups.setdefault(tuple(compress(found, kept)), []).append(row)
    for found, rows in groups.items():
        rows, found = np.array(rows), list(found)
        yield (rows, zone.delays[found].tolist(), zone.dopplers[found].tolist(),
               gains[rows[:, None], found])


def _lower_quartile(x: np.ndarray) -> np.ndarray:
    """``np.quantile(x, 0.25, axis=-1)`` of NaN-free x, bit for bit: numpy's
    default (linear) method interpolates between two order statistics,
    which one partition finds for every row."""
    virtual = (x.shape[-1] - 1) * 0.25   # the sorted position of the quartile
    lo = int(virtual)
    hi = min(lo + 1, x.shape[-1] - 1)
    gamma = virtual - lo
    part = np.partition(x, (lo, hi), axis=-1)
    below, above = part[..., lo], part[..., hi]
    diff = above - below
    # numpy's _lerp, which interpolates from the nearer end
    return above - diff * (1 - gamma) if gamma >= 0.5 else below + diff * gamma


def perfect_estimate(spec: ChannelSpec, cfg: FrameConfig, domain: Domain) -> ChannelEstimate:
    """Genie estimate from the true taps."""
    if domain is Domain.FREQUENCY:
        return ChannelEstimate(Domain.FREQUENCY, h_freq=freq_response(spec, cfg.n))
    return ChannelEstimate(Domain.AFFINE, taps=spec.taps)


def equalize(y: Frame, est: ChannelEstimate, cfg: FrameConfig,
             noise_var: float = 0.0) -> Frame:
    """MMSE-equalize a received plane against a channel estimate; at
    ``noise_var == 0`` this is zero forcing, and a (near-)null channel
    raises :class:`SingularChannel`.

    Frequency-domain estimates (delay-only) use the one-tap per-subcarrier
    rule.  Affine-domain (tap) estimates solve the MMSE system of the cyclic
    tap channel in time or in unitary frequency, whichever has the narrower
    spread of tap shifts (delays l in time, Dopplers k in frequency); by
    unitarity this equals the full-matrix affine-domain solve.  At spread 0
    the channel is a diagonal times a cyclic shift and the one-tap rule
    applies; otherwise the banded Gram is solved by block cyclic reduction.
    Both rules refuse zero forcing by one test, see :data:`_PIVOT_RTOL`.
    The output is returned in the plane that came in.
    """
    g, data = _noise_ratio(cfg, noise_var), _check(y, est.domain, cfg.n)
    if est.domain is Domain.FREQUENCY:
        return Frame(_one_tap(data, est.h_freq, g), Domain.FREQUENCY)
    return Frame(_equalize_planes(_affine_to_freq(data, cfg.affine), data, est, cfg, g)[1],
                 Domain.AFFINE)


def _noise_ratio(cfg: FrameConfig, noise_var: float) -> float:
    """The MMSE regulariser: noise variance over the mean sample energy."""
    return noise_var / (frame_energy_budget(cfg) / cfg.n)


# Zero-forcing test, shared by the one-tap rule and the banded solve: a
# pivot (|h|^2 per sample, or a reduced diagonal block's smallest singular
# value) at most this fraction of the Gram's largest diagonal entry marks
# the channel as singular.  A pivot bounds the Gram's smallest eigenvalue
# from above, so only channels with cond(H H^H) >= 1e6 are refused; and
# while the earlier pivots pass, rounding moves a later one by about
# eps / 1e-6 ~ 2e-10 of that entry, so a singular channel's zero pivot stays
# far below the bound (at most 8.5e-8 over 329 sampled singular tap sets).
_PIVOT_RTOL = 1e-6


def _one_tap(y: np.ndarray, h: np.ndarray, g: float) -> np.ndarray:
    """One-tap MMSE ``y h* / (|h|^2 + g)`` along the last axis; at ``g == 0``
    this is zero forcing, and a frame whose smallest |h|^2 is at most
    ``_PIVOT_RTOL`` of its largest raises :class:`SingularChannel`."""
    power = np.abs(h) ** 2
    if g == 0 and np.any(np.min(power, axis=-1) <= _PIVOT_RTOL * np.max(power, axis=-1)):
        raise SingularChannel("zero-forcing through a channel null")
    return np.multiply(y, np.conj(h)) / (power + g)


def _tap_mmse(y_freq: np.ndarray, y_aff: np.ndarray, groups, p: AffineParams,
              g: float) -> tuple[np.ndarray, np.ndarray]:
    """MMSE solve for cyclic tap channels (ZF at g = 0): the equalized
    (frequency, affine) planes of the received (rows, N) ones.

    ``groups`` holds ``(rows, delays, dopplers, gains)`` as
    :func:`_affine_tap_groups` yields them: the block rows that share one
    tap list, the taps' delays and Dopplers, and a (rows, taps) array of
    their gains.  A tap (h, l, k) shifts a frame by l in time and by k in
    unitary frequency, so each group's channel is shift-structured in both
    domains, and its solve runs in the one with the narrower spread of tap
    shifts (time on a tie).  The block changes domain once per domain: one
    ``_idaft`` over every time-solve row on the way in, while frequency
    solves start from ``y_freq``; one ``_daft`` and ``_affine_to_freq``
    over the time-solve rows and one ``_freq_to_affine`` over the
    frequency-solve rows on the way out.
    Between them :func:`_shift_mmse` runs one cyclic reduction per block
    size.  Every step acts on the rows independently, so a row's planes do
    not depend on the groups that share its block.
    """
    solves, in_time = [], np.zeros(len(y_aff), dtype=bool)
    for rows, ls, ks, hs in groups:
        if not ls:
            raise SingularChannel("no channel tap found to equalize with")
        time_solve = max(ls) - min(ls) <= max(ks) - min(ks)
        in_time[rows] = time_solve
        solves.append((rows, ls if time_solve else ks,
                       [hs[:, t, None] * _tap_ramp(l, k, p.n, time_solve)
                        for t, (l, k) in enumerate(zip(ls, ks))]))
    t_rows, f_rows = np.flatnonzero(in_time), np.flatnonzero(~in_time)
    y = y_freq.copy()   # each row in the domain of its solve
    if len(t_rows):
        y[t_rows] = _idaft(y_aff[t_rows], p)
    x = _shift_mmse(y, solves, g)
    eq_f, eq_a = np.empty_like(x), np.empty_like(x)
    if len(t_rows):
        eq_a[t_rows] = a = _daft(x[t_rows], p)
        eq_f[t_rows] = _affine_to_freq(a, p)
    if len(f_rows):
        eq_f[f_rows] = x[f_rows]
        eq_a[f_rows] = _freq_to_affine(x[f_rows], p)
    return eq_f, eq_a


@lru_cache(maxsize=256)
def _tap_ramp(l: int, k: int, n: int, in_time: bool) -> np.ndarray:
    """The per-sample gain of a unit tap (l, k) that shifts by l in time or
    by k in frequency: in time the Doppler ramp of the delayed sample, in
    frequency the delay's phase ramp."""
    idx = np.arange(n)
    if in_time:
        ramp = np.exp(2j * np.pi * k * _ahead(idx, -l) / n)
    else:
        ramp = np.exp(-2j * np.pi * (idx * l % n) / n)
    ramp.flags.writeable = False
    return ramp


def _shift_mmse(y: np.ndarray, solves, g: float) -> np.ndarray:
    """MMSE ``x = H^H (H H^H + g I)^{-1} y`` for ``(H x)(i) = sum_t a_t(i) x(i - s_t)``,
    along the last axis of a (rows, N) block.

    ``solves`` holds ``(rows, shifts, gains)``: the block rows of one
    channel, its tap shifts s_t and its per-sample tap gains a_t, each
    (rows, N).  With one common shift s, H is a diagonal times a cyclic
    shift, so the solve is the one-tap rule shifted back by s.  Otherwise
    H H^H + g I is a cyclic band of half-width b = max s - min s; cut into
    blocks of size B, the smallest power of two >= b, it is cyclic
    block-tridiagonal.  The systems of every channel with the same B fill
    one array and go through one block cyclic reduction, and then each
    channel's H^H is applied tap-wise.
    """
    n = y.shape[-1]
    x = np.empty_like(y)
    banded: dict[int, list] = {}
    for rows, shifts, gains in solves:
        s0 = min(shifts)
        b = max(shifts) - s0
        if b == 0:
            x[rows] = _ahead(_one_tap(y[rows], sum(gains), g), s0)
        else:
            banded.setdefault(1 << (b - 1).bit_length(), []).append((rows, shifts, gains, b))
    idx = np.arange(n)[:, None]
    for bs, members in banded.items():
        bounds = np.cumsum([0] + [len(rows) for rows, *_ in members])
        system = np.zeros((bounds[-1], n, 3 * bs + 1), dtype=np.complex128)
        scale = np.empty(bounds[-1])
        for at, (rows, shifts, gains, b) in zip(bounds, members):
            part = slice(at, at + len(rows))
            # Gram diagonal d: entry (j, j + d) sums a_t(j) conj(a_u(j + d))
            # over the tap pairs with s_u - s_t = d
            band = np.zeros((len(rows), n, 2 * b + 1), dtype=np.complex128)
            for s_t, a_t in zip(shifts, gains):
                for s_u, a_u in zip(shifts, gains):
                    band[..., s_u - s_t + b] += np.multiply(a_t, _ahead(np.conj(a_u), s_u - s_t))
            scale[part] = np.max(band[..., b].real, axis=-1)
            band[..., b] += g
            # block row i holds [L_i | D_i | U_i | y_i], so entry (j, j + d)
            # of row j = i B + r sits in column B + r + d
            system[part, idx, bs + idx % bs + np.arange(-b, b + 1)] = band
            system[part, :, -1] = y[rows]
        try:
            z = _cyclic_reduction(system.reshape(len(system), n // bs, bs, -1), g == 0, scale)
        except np.linalg.LinAlgError as exc:
            raise SingularChannel(f"tap channel block solve failed: {exc}") from exc
        z = z.reshape(len(system), n)
        for at, (rows, shifts, gains, _) in zip(bounds, members):
            zr = z[at:at + len(rows)]
            x[rows] = sum(_ahead(np.multiply(np.conj(a), zr), s) for s, a in zip(shifts, gains))
    return x


def _ahead(v: np.ndarray, s: int, axis: int = -1) -> np.ndarray:
    """``v`` advanced by s along ``axis``, entry i taking entry (i + s) mod n:
    ``np.roll(v, -s, axis)`` without its per-call overhead, and ``v`` itself
    when the shift is 0."""
    s %= v.shape[axis]
    if not s:
        return v
    before = (slice(None),) * (axis % v.ndim)
    return np.concatenate((v[before + (slice(s, None),)], v[before + (slice(None, s),)]),
                          axis=axis)


def _cyclic_reduction(system: np.ndarray, zf: bool, scale: np.ndarray) -> np.ndarray:
    """Solve ``L_i x_{i-1} + D_i x_i + U_i x_{i+1} = y_i`` over P blocks of
    size B, block indices mod P and P a power of two.

    ``system`` has shape (..., P, B, 3B + 1) and holds block row i as
    ``[L_i | D_i | U_i | y_i]``; x comes back as (..., P, B, 1).  Each level
    solves the odd rows for their own blocks, ``x_{2i+1} = q_y - q_L x_{2i}
    - q_U x_{2i+2}`` with ``q = D^{-1} [L | D | U | y]``, and substitutes
    that into the even rows, halving P; at P = 1 both neighbours are the
    block itself and ``L + D + U`` is solved directly.  The pivots D are
    diagonal blocks of Schur complements of the Gram, so at g > 0 they are
    positive definite; at zero forcing (``zf``) each system's pivots are
    tested against ``_PIVOT_RTOL`` times its ``scale`` (shape ...), and a
    failing one raises :class:`SingularChannel`.
    """
    bs = system.shape[-2]
    mul, inv = (np.multiply, np.reciprocal) if bs == 1 else (np.matmul, np.linalg.inv)
    lo, dg, up, rhs = (slice(0, bs), slice(bs, 2 * bs), slice(2 * bs, 3 * bs),
                       slice(3 * bs, None))

    def check(pivots):
        if zf:
            sv = np.abs(pivots) if bs == 1 else np.linalg.svd(pivots, compute_uv=False)
            if np.any(np.min(sv.reshape(np.shape(scale) + (-1,)), axis=-1)
                      <= _PIVOT_RTOL * scale):
                raise SingularChannel("zero-forcing through a singular tap channel")

    levels = []
    while system.shape[-3] > 1:
        even, odd = system[..., 0::2, :, :], system[..., 1::2, :, :]
        check(odd[..., dg])
        q = mul(inv(odd[..., dg]), odd)
        # even row 2i meets odd row 2i - 1 through L and odd row 2i + 1 through U
        left, right = mul(even[..., lo], _ahead(q, -1, axis=-3)), mul(even[..., up], q)
        system = np.concatenate((-left[..., lo],
                                 even[..., dg] - left[..., up] - right[..., lo],
                                 -right[..., up],
                                 even[..., rhs] - left[..., rhs] - right[..., rhs]), axis=-1)
        levels.append(q)
    last = system[..., lo] + system[..., dg] + system[..., up]
    check(last)
    x = mul(inv(last), system[..., rhs])
    for q in reversed(levels):
        x_odd = q[..., rhs] - mul(q[..., lo], x) - mul(q[..., up], _ahead(x, 1, axis=-3))
        x = np.concatenate((x, x_odd), axis=-2).reshape(x.shape[:-3] + (-1, bs, 1))
    return x


@dataclass(frozen=True)
class DetectionResult:
    """Hard bits and equalized symbols one receiver read off one frame, or
    off a block of frames with one row per frame."""

    common_bits: np.ndarray
    private_bits: np.ndarray
    common_syms: np.ndarray   # final equalized symbols, power removed
    extra_syms: np.ndarray
    private_syms: np.ndarray


def detect_streams(planes: tuple[Frame, Frame], cfg: FrameConfig, est: ChannelEstimate,
                   mode: ReceiverMode = ReceiverMode.SIC_FREE,
                   noise_var: float = 0.0) -> DetectionResult:
    """Equalize once, then read the common stream from the affine plane and
    the private stream from the frequency plane, cleaning them in the mode's
    SIC rounds.  ``planes`` is the (frequency, affine) pair of one received
    frame that :func:`framing.extract_received_planes` returns."""
    eq_f, eq_a = _equalize_planes(_check(planes[0], Domain.FREQUENCY, cfg.n),
                                  _check(planes[1], Domain.AFFINE, cfg.n), est, cfg,
                                  _noise_ratio(cfg, noise_var))
    return _detect(eq_f, eq_a, cfg, mode)


def _equalize_planes(y_freq: np.ndarray, y_aff: np.ndarray, est: ChannelEstimate,
                     cfg: FrameConfig, g: float) -> tuple[np.ndarray, np.ndarray]:
    """The equalized (frequency, affine) planes of received ones, along the
    last axis: the one-tap rule for a response, :func:`_tap_mmse` with every
    row in one group for a tap list."""
    if est.domain is Domain.FREQUENCY:
        eq_f = _one_tap(y_freq, est.h_freq, g)
        return eq_f, _freq_to_affine(eq_f, cfg.affine)
    planes = [y.reshape(-1, cfg.n) for y in (y_freq, y_aff)]
    rows = np.arange(len(planes[1]))
    hs = np.broadcast_to(np.array([t.h for t in est.taps], dtype=np.complex128),
                         (len(rows), len(est.taps)))
    group = (rows, [t.l for t in est.taps], [t.k for t in est.taps], hs)
    return tuple(eq.reshape(y_aff.shape)
                 for eq in _tap_mmse(*planes, [group], cfg.affine, g))


def _detect(eq_f: np.ndarray, eq_a: np.ndarray, cfg: FrameConfig,
            mode: ReceiverMode) -> DetectionResult:
    """:func:`detect_streams` after equalization, along the last axis."""
    rm = cfg.layout

    def read_common(plane_a):
        com = plane_a[..., rm.common_indices] / np.sqrt(cfg.phi1)
        ext = plane_a[..., rm.extra_indices]
        return com, ext, _demodulate(com), _demodulate(ext)

    def read_private(plane_f):
        return plane_f[..., rm.private_subcarriers] / np.sqrt(cfg.phi2)

    com, ext, com_bits, ext_bits = read_common(eq_a)
    plane_f = eq_f
    for sic_round in range(_SIC_ROUNDS[mode]):
        if sic_round:
            # subtract the private image the previous round detected from
            # the affine plane and read the common stream again
            priv_bits = _demodulate(read_private(plane_f))
            priv_hat = _private_plane(_modulate(priv_bits), cfg)
            com, ext, com_bits, ext_bits = read_common(
                eq_a - _freq_to_affine(priv_hat, cfg.affine))
        # subtract the detected common image from the frequency plane
        com_hat = _common_plane(
            _modulate(np.concatenate([com_bits, ext_bits], axis=-1)), cfg)
        plane_f = eq_f - _affine_to_freq(com_hat, cfg.affine)
    priv = read_private(plane_f)
    return DetectionResult(np.concatenate([com_bits, ext_bits], axis=-1),
                           _demodulate(priv), com, ext, priv)


def estimate_nmse(est: ChannelEstimate, true_spec: ChannelSpec, n: int) -> float:
    """Diagnostic estimate error.

    A response, or a (frames, N) block of them, compares against the
    diagonal of the true frequency-domain channel: H(m) on a delay-only
    channel, the delay-only taps' response under Doppler (the off-diagonal
    ICI is invisible to a one-tap model).  A tap list compares by
    :func:`_taps_nmse` on one row.
    """
    if est.domain is Domain.FREQUENCY:
        return _response_nmse(est.h_freq, frequency_diagonal(true_spec, n))
    taps = est.taps
    hs = np.array([[t.h for t in taps]], dtype=np.complex128)
    return float(_taps_nmse([t.l for t in taps], [t.k for t in taps], hs, true_spec, n)[0])


def _response_nmse(h_est: np.ndarray, h: np.ndarray) -> np.ndarray:
    """Squared error of a frequency response over the power of the true
    one, along the last axis."""
    return np.sum(np.abs(h_est - h) ** 2, axis=-1) / np.sum(np.abs(h) ** 2)


def _taps_nmse(ls, ks, hs: np.ndarray, true_spec: ChannelSpec, n: int) -> np.ndarray:
    """:func:`estimate_nmse` of tap estimates that share one (delay,
    Doppler) list, one per row of the (rows, taps) gains ``hs``.  A
    delay-only estimate of a delay-only channel compares by its response.
    Otherwise matched taps contribute |h_hat - h|^2, missed and spurious
    taps their full power, and each row's error is formed in the order and
    with the rounding of a Python loop over the taps: a Python ``x ** 2`` is
    ``np.float_power``, ``abs`` of a complex ``np.hypot``."""
    if not any(ks) and not true_spec.has_doppler:
        return _response_nmse(_delay_response(hs, ls, n), freq_response(true_spec, n))
    true = {(t.l, t.k): t.h for t in true_spec.taps}
    got = {key: col for col, key in enumerate(zip(ls, ks))}

    def power(v):
        return np.float_power(np.hypot(v.real, v.imag), 2)

    err = np.zeros(len(hs))
    for key, h in true.items():
        col = got.pop(key, None)
        err = err + (abs(0.0 - h) ** 2 if col is None else power(hs[:, col] - h))
    spurious = 0
    for col in got.values():
        spurious = spurious + power(hs[:, col])
    return (err + spurious) / sum(abs(t.h) ** 2 for t in true_spec.taps)
