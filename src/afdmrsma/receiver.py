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
estimate is solved in unitary frequency, where a tap (h, l, k) shifts by its
Doppler k, from the received frequency plane, by one of three rules: one
tap per subcarrier when all Dopplers agree (spread 0); for a collinear tap
list, which a chirp turns into a diagonal times a circulant, the one-tap
rule between one FFT pair; and for a general one, block cyclic reduction of
the banded cyclic Gram.  No N x N system is ever formed.  The tap estimates
of a block, grouped by tap list, are equalized in one call with one stacked
FFT pair and one cyclic reduction per block size, and leave for the affine
plane by one ``_freq_to_affine`` (:func:`_tap_mmse`).
Detection reads the common stream straight off the equalized affine plane
and the private stream straight off the equalized frequency plane; each SIC
round additionally rebuilds and subtracts the opposite stream's spread
image between reads.

Each stage has one implementation, an array kernel that acts on every row
of a (frames, N) block.  The public per-frame functions run it on a block
of one row, and the harness runs it on whole blocks.
"""
from __future__ import annotations

from dataclasses import dataclass
from enum import Enum
from functools import lru_cache
from typing import NamedTuple

import numpy as np

from .channel import (ChannelSpec, ChannelTap, _delay_response, freq_response,
                      frequency_diagonal)
from .core import Domain, Frame, _demodulate, _modulate
from .errors import (ConfigError, DegeneratePilot, GuardViolation,
                     PilotContaminated, SingularChannel, UnresolvableDoppler)
from .framing import (Approach, FrameConfig, _common_plane, _private_plane,
                      frame_energy_budget)
from .transforms import AffineParams, _affine_to_freq, _check, _freq_to_affine
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
    c1p, p0 = cfg.affine.c1_prime, _pilot_subcarriers(cfg, max_delay)
    h0 = y_freq[..., ::c1p] / p0
    h_time = np.fft.ifft(h0)                    # <= M time taps
    if max_delay is not None:
        # receiver prior: taps beyond the design delay spread are noise
        h_time[..., max_delay + 1:] = 0.0
    return np.fft.fft(h_time, n=cfg.n)          # re-expanded to N subcarriers


@lru_cache(maxsize=32)
def _pilot_subcarriers(cfg: FrameConfig, max_delay: int | None) -> np.ndarray:
    """The pilot on the class-0 subcarriers that :func:`_ls_freq` divides by,
    once the frame and the delay bound pass its checks."""
    if cfg.approach is not Approach.CLEAN_PILOT:
        raise PilotContaminated("embedded-pilot frames carry data on the pilot subcarriers")
    m = cfg.affine.m
    if max_delay is not None and max_delay >= m:
        raise ConfigError(f"delay spread {max_delay} aliases: needs max delay < M={m}")
    p0 = cfg.layout.pilot_freq[::cfg.affine.c1_prime]
    if np.min(np.abs(p0)) < 1e-12:
        raise DegeneratePilot("pilot subcarrier magnitude too small for LS division")
    return p0


class _PeakZone(NamedTuple):
    """The guard zone the affine estimator searches, one entry per signed
    pilot shift -G..G: the affine bin it lands on, the (delay, Doppler) it
    decodes to (shift = k - c1' l), whether the search bounds admit it, and
    the pilot's gain at that bin through a unit tap of that (delay, Doppler).
    ``floor`` holds the entries whose lower quartile is the detection
    floor: the candidates if there are 6 or more, else the rest of the zone
    if 4 or more, else None (the known noise level stands in)."""

    offsets: np.ndarray
    bins: np.ndarray
    delays: np.ndarray
    dopplers: np.ndarray
    is_candidate: np.ndarray
    pilot_gain: np.ndarray
    floor: np.ndarray | None
    keys: np.ndarray   # each entry's (delay l, Doppler k) as l + 1j k


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
    cand, rest = np.flatnonzero(is_candidate), np.flatnonzero(~is_candidate)
    zone = _PeakZone(offsets, offsets % n, delays, dopplers, is_candidate,
                     np.array(gain, dtype=np.complex128),
                     cand if len(cand) >= 6 else rest if len(rest) >= 4 else None,
                     delays + 1j * dopplers)
    for arr in zone:
        if arr is not None:
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
                                           max_delay, max_doppler, noise_var, strict).groups
    taps = tuple(ChannelTap(complex(h), l, k) for l, k, h in zip(ls, ks, hs[0]))
    return ChannelEstimate(Domain.AFFINE, taps=taps)


class _TapEstimates(NamedTuple):
    """The tap lists of a block's rows, in two forms: ``groups`` of ``(rows,
    delays, dopplers, gains)``, the rows that share one tap list, its delay
    and Doppler lists and their (rows, taps) gains, as :func:`_tap_mmse`
    reads them; and every row's list on its own, as (rows, K) ``keys``, a
    tap's (delay l, Doppler k) as ``l + 1j k``, and ``gains``, padded to the
    longest list with key -1 and gain 0."""

    groups: list
    keys: np.ndarray
    gains: np.ndarray


def _affine_tap_groups(y_aff: np.ndarray, cfg: FrameConfig, max_delay: int | None,
                       max_doppler: int | None, noise_var: float,
                       strict: bool = False) -> _TapEstimates:
    """The affine estimator's peak search on each row of a (rows, N) affine
    block: the :class:`_TapEstimates` of the taps found, each list by
    descending peak magnitude.

    The detection floor is the lower quartile of the candidate bins: the
    guard keeps channel-shifted data off those, but not off the rest of the
    zone.  The remaining zone bins or the known noise level stand in when
    the candidate set is too small (``_PeakZone.floor``).  Rows are grouped
    by sorting their padded lists, with no loop over the rows.
    """
    zone = _peak_zone(cfg, max_delay, max_doppler)
    cand = zone.is_candidate
    peaks = y_aff[:, zone.bins]
    mags = np.abs(peaks)
    if zone.floor is not None:
        threshold = THRESHOLD_SCALE * _lower_quartile(mags[:, zone.floor])
    else:
        threshold = np.full(len(mags), THRESHOLD_SCALE * float(np.sqrt(noise_var))
                            if noise_var > 0 else 0.0)
    # keep numerical leakage out of the peak list even at zero noise
    threshold = np.maximum(threshold, 1e-9 * mags.max(axis=-1))

    row = np.arange(len(mags))[:, None]
    order = mags.argsort(axis=-1)[:, ::-1]
    above = mags[row, order] > threshold[:, None]
    resolvable = cand[order]
    if strict and np.any(above & ~resolvable):
        stray = order[above & ~resolvable][0]
        raise UnresolvableDoppler(
            f"peak at shift {zone.offsets[stray]} has no (delay >= 0, Doppler < c1') "
            f"decomposition within the search bounds")
    keep = above & resolvable
    found_any = keep.any(axis=-1)
    if not found_any.all():
        # keep the strongest resolvable peak so the receiver always has a
        # channel to work with, however deep the noise
        none = (~found_any).nonzero()[0]
        first = resolvable[none].argmax(axis=-1)
        keep[none, first] = resolvable[none, first]
    gains = peaks / zone.pilot_gain
    size = np.hypot(gains.real, gains.imag)[row, order]
    top = size.max(axis=-1, where=keep, initial=0.0)
    keep &= size > 1e-9 * top[:, None]

    # each row's kept zone entries first, in order, then padding
    count = keep.sum(axis=-1)
    width = max(1, int(count.max(initial=0)))
    found = order[row, (~keep).argsort(axis=-1, kind="stable")[:, :width]]
    pad = np.arange(width) >= count[:, None]
    keys = np.where(pad, -1, zone.keys[found])
    gains = np.where(pad, 0, gains[row, found])
    # rows sorted by tap list (stable, so ascending within one); a group
    # starts where the list changes
    perm = np.lexsort(keys.T[::-1])
    lists, by_list = keys[perm], gains[perm]
    starts = np.concatenate(([len(perm) > 0],
                             (lists[1:] != lists[:-1]).any(axis=-1))).nonzero()[0]
    heads = perm[starts]
    firsts = found[heads]
    groups = [(perm[a:b], ls[:c], ks[:c], by_list[a:b, :c])
              for a, b, ls, ks, c in zip(starts.tolist(), [*starts[1:].tolist(), len(perm)],
                                         zone.delays[firsts].tolist(),
                                         zone.dopplers[firsts].tolist(),
                                         count[heads].tolist())]
    return _TapEstimates(groups, keys, gains)


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
    tap channel in unitary frequency, where a tap (h, l, k) shifts by its
    Doppler k; by unitarity this equals the full-matrix affine-domain solve.
    At Doppler spread 0 the channel is a diagonal times a cyclic shift and
    the one-tap rule applies.  A collinear tap list (delay linear in Doppler
    mod N) is a chirp diagonal times a circulant, so the one-tap rule applies
    to the circulant's eigenvalues between one FFT pair.  A general one
    solves the banded Gram by block cyclic reduction.  Every rule refuses
    zero forcing by one tolerance, see :data:`_PIVOT_RTOL`.
    The output is returned in the plane that came in.
    """
    g, data = _noise_ratio(cfg, noise_var), _check(y, est.domain, cfg.n)
    if est.domain is Domain.FREQUENCY:
        return Frame(_one_tap(data, est.h_freq, g), Domain.FREQUENCY)
    return Frame(_equalize_planes(_affine_to_freq(data, cfg.affine), est, cfg, g)[1],
                 Domain.AFFINE)


def _noise_ratio(cfg: FrameConfig, noise_var: float) -> float:
    """The MMSE regulariser: noise variance over the mean sample energy."""
    return noise_var / (frame_energy_budget(cfg) / cfg.n)


# Zero-forcing tolerance, shared by the three tap rules.  The one-tap rule
# (spread 0, or a collinear group's circulant) reads the eigenvalues of
# H H^H themselves, |h|^2 per subcarrier or per circulant frequency, and
# refuses a frame whose smallest is at most this fraction of its largest:
# exactly cond(H H^H) >= 1e6.  The banded solve refuses a pivot (a reduced diagonal
# block's smallest singular value) at most this fraction of the Gram's
# largest diagonal entry.  The pivot bounds the smallest eigenvalue from
# above and the entry bounds the largest from below, so the banded test
# refuses no channel that the eigenvalue test passes.  While the earlier
# pivots pass, rounding moves a later one by about eps / 1e-6 ~ 2e-10 of
# that entry, so a singular channel's zero pivot stays far below the bound
# (at most 8.5e-8 over 329 sampled singular tap sets).
_PIVOT_RTOL = 1e-6


def _one_tap(y: np.ndarray, h: np.ndarray, g: float) -> np.ndarray:
    """One-tap MMSE ``y h* / (|h|^2 + g)`` along the last axis; at ``g == 0``
    this is zero forcing, and a frame whose smallest |h|^2 is at most
    ``_PIVOT_RTOL`` of its largest raises :class:`SingularChannel`."""
    power = np.abs(h) ** 2
    if g == 0 and np.any(np.min(power, axis=-1) <= _PIVOT_RTOL * np.max(power, axis=-1)):
        raise SingularChannel("zero-forcing through a channel null")
    return np.multiply(y, np.conj(h)) / (power + g)


def _tap_mmse(y_freq: np.ndarray, groups, p: AffineParams,
              g: float) -> tuple[np.ndarray, np.ndarray]:
    """MMSE solve for cyclic tap channels (ZF at g = 0): the equalized
    (frequency, affine) planes of a received (rows, N) frequency plane.

    ``groups`` holds ``(rows, delays, dopplers, gains)`` as
    :func:`_affine_tap_groups` yields them: the block rows that share one
    tap list, the taps' delays and Dopplers, and a (rows, taps) array of
    their gains.  A tap (h, l, k) shifts a frame by k in unitary frequency
    and ramps it by its delay's phase, the spectrum of a shift by l
    (:func:`_spectra`), so every group solves there, from ``y_freq``,
    by the rule :func:`_solve_rule` picks: one tap per subcarrier at Doppler
    spread 0, one FFT pair for a collinear group (:func:`_chirp_mmse`), block
    cyclic reduction for a general one (:func:`_shift_mmse`).  The collinear
    groups share one stacked FFT pair and the general ones one cyclic
    reduction per block size, and the whole block leaves for the affine
    plane by one ``_freq_to_affine``.  Every step acts on the rows
    independently, so a row's planes do not depend on the groups that share
    its block.
    """
    n = p.n
    flat, general, chirped = [], [], []
    for rows, ls, ks, hs in groups:
        if not ls:
            raise SingularChannel("no channel tap found to equalize with")
        chirp = _solve_rule(tuple(ls), tuple(ks), n)
        if chirp is not None:
            chirped.append((rows, hs * chirp.phases, _spectra(tuple(ks), n), chirp))
        elif len(set(ks)) == 1:
            flat.append((rows, hs, _spectra(tuple(ls), n), ks[0]))
        else:
            general.append((rows, hs[:, :, None] * _spectra(tuple(ls), n),
                            _band_plan(tuple(ks), n)))
    x = np.empty_like(y_freq)
    if flat:
        # H is a diagonal times a cyclic shift by the common Doppler s: the
        # one-tap rule, shifted back by s
        rows, h = _stack_rows(flat)
        eq = _one_tap(y_freq[rows], h, g)
        at = 0
        for part, _, _, shift in flat:
            x[part] = _ahead(eq[at:at + len(part)], shift)
            at += len(part)
    _shift_mmse(x, y_freq, general, g)
    _chirp_mmse(x, y_freq, chirped, g)
    return x, _freq_to_affine(x, p)


def _stack_rows(parts) -> tuple[np.ndarray, np.ndarray]:
    """The block rows of ``parts``, one ``(rows, coefficients, spectra, ...)``
    per group, stacked in order, and each row's sum over the group's taps of
    its coefficient (a (rows, taps) array) times the tap's spectrum (a
    (taps, N) array), tap by tap from 0 as Python's ``sum`` adds them."""
    sums = [np.multiply(coefs[:, :, None], spectra).sum(axis=1) for _, coefs, spectra, _ in parts]
    if len(parts) == 1:
        return parts[0][0], sums[0]
    return np.concatenate([part[0] for part in parts]), np.concatenate(sums)


class _Chirp(NamedTuple):
    """A collinear tap list's channel in unitary frequency as
    ``H = D C P^H``: D and P unit-modulus diagonals, C the circulant with
    gain ``g_t = h_t phases[t]`` at shift s_t, whose eigenvalues are
    ``sum_t g_t`` times the :func:`_spectra` row of s_t."""

    unchirp: np.ndarray                # conj(D)
    chirp: np.ndarray                  # P
    phases: np.ndarray                 # (taps,)


@lru_cache(maxsize=256)
def _solve_rule(ls: tuple, ks: tuple, n: int) -> _Chirp | None:
    """The chirp of the tap list (ls, ks) if it is collinear, else None.

    In unitary frequency a tap shifts by s = k and ramps by alpha = -l.  A
    list with one Doppler (spread 0) takes the one-tap rule: None.
    Otherwise it is collinear when some integer c gives
    ``alpha_t - c s_t = gamma (mod N)`` for every tap: with the chirp
    ``p(i) = exp(j pi c i^2 / N)``, ``D(i) = p(i) exp(2 pi j gamma i / N)`` and
    ``g_t = h_t exp(j pi c s_t^2 / N)``, the channel is ``D C P^H`` (Bemani,
    Ksairi, Kountouris, IEEE TWC 2023, the chirp of the DAFT).  Rate c = 0
    serves every list whose taps share one delay, and a two-tap list with an
    odd Doppler difference is collinear, as N is a power of two.  A list
    collinear at no rate is general (None), and solves by cyclic reduction.
    """
    if len(set(ks)) == 1:
        return None
    s, alpha = np.array(ks), -np.array(ls)
    # every candidate rate c in [0, N) at once, one row each
    c = np.flatnonzero(np.all((alpha - alpha[0] - np.outer(np.arange(n), s - s[0])) % n == 0,
                              axis=1))
    if not len(c):
        return None
    c = int(c[0])
    phases = _unit(c * s * s, n)
    phases.flags.writeable = False
    return _Chirp(*_chirp_pair(c, int(alpha[0] - c * s[0]) % n, n), phases)


def _unit(phase: np.ndarray, n: int) -> np.ndarray:
    """``exp(j pi phase / N)`` of integer phases, reduced mod 2N first."""
    return np.exp(1j * np.pi * (phase % (2 * n)) / n)


@lru_cache(maxsize=64)
def _chirp_pair(c: int, gamma: int, n: int) -> tuple[np.ndarray, np.ndarray]:
    """conj(D) and P of :class:`_Chirp` for chirp rate c and ramp gamma."""
    i = np.arange(n)
    pair = _unit(-(c * i * i + 2 * gamma * i), n), _unit(c * i * i, n)
    for arr in pair:
        arr.flags.writeable = False
    return pair


@lru_cache(maxsize=32)
def _spectra(shifts: tuple, n: int) -> np.ndarray:
    """The :func:`_shift_spectrum` of each shift, as one read-only (shifts,
    N) array.  Only the latest lists keep theirs: a sweep can meet hundreds
    (fig7 does), and each list holds a copy of its rows."""
    spectra = np.array([_shift_spectrum(s, n) for s in shifts])
    spectra.flags.writeable = False
    return spectra


@lru_cache(maxsize=256)
def _shift_spectrum(s: int, n: int) -> np.ndarray:
    """The FFT of a unit impulse at s: ``exp(-2 pi j m s / N)``, read-only."""
    spectrum = _unit(-2 * s * np.arange(n), n)
    spectrum.flags.writeable = False
    return spectrum


def _chirp_mmse(x: np.ndarray, y: np.ndarray, chirped, g: float) -> None:
    """MMSE of collinear groups into ``x``: ``chirped`` holds ``(rows,
    gains, spectra, chirp)``, the block rows of one channel ``H = D C P^H``
    (see :class:`_Chirp`), their (rows, taps) circulant gains g_t and its tap
    spectra.  D and P are unitary, so ``x = P C^H (C C^H + g I)^{-1}
    D^H y``, the one-tap rule on C's eigenvalues between one stacked FFT and
    its inverse; those eigenvalues squared are the eigenvalues of ``H H^H``,
    which the one-tap rule's zero-forcing test reads.  Every group's rows
    are unchirped, solved and chirped back in one call each."""
    if not chirped:
        return
    rows, eig = _stack_rows(chirped)
    if len(chirped) == 1:
        unchirp, chirp = chirped[0][-1].unchirp, chirped[0][-1].chirp
    else:
        # each row's pair, repeated over the rows of its group
        counts = [len(part) for part, *_ in chirped]
        unchirp = np.repeat([group.unchirp for *_, group in chirped], counts, axis=0)
        chirp = np.repeat([group.chirp for *_, group in chirped], counts, axis=0)
    z = np.fft.ifft(_one_tap(np.fft.fft(np.multiply(y[rows], unchirp)), eig, g))
    x[rows] = np.multiply(z, chirp)


def _shift_mmse(x: np.ndarray, y: np.ndarray, solves, g: float) -> None:
    """MMSE ``x = H^H (H H^H + g I)^{-1} y`` into ``x`` for general channels
    ``(H x)(i) = sum_t a_t(i) x(i - s_t)``, along the last axis of a (rows, N)
    block.

    ``solves`` holds ``(rows, gains, plan)``: the block rows of one channel,
    its per-sample tap gains a_t as a (rows, taps, N) array, and the
    :func:`_band_plan` of its tap shifts s_t, at least two of them.
    H H^H + g I is a cyclic band of half-width b = max s - min s; cut into
    blocks of size B, the smallest power of two >= b, it is cyclic
    block-tridiagonal.  The channels with the same B fill one band of
    half-width B, scattered into one system, and go through one block cyclic
    reduction; then each channel's H^H is applied, every tap at once.
    """
    n = y.shape[-1]
    banded: dict[int, list] = {}
    for rows, gains, plan in solves:
        banded.setdefault(plan.block, []).append((rows, gains, np.conj(gains), plan))
    for bs, members in banded.items():
        rows = np.concatenate([part for part, *_ in members])
        # Gram diagonal d (row bs + d): entry (j, j + d) sums
        # a_t(j) conj(a_u(j + d)) over the tap pairs with s_u - s_t = d
        band = np.zeros((len(rows), 2 * bs + 1, n), dtype=np.complex128)
        at = 0
        for part, gains, conj, plan in members:
            pairs = gains[:, plan.t]
            pairs *= conj[:, plan.u, plan.pair_index]
            # a diagonal's pairs are added in loop order, one rank at a time
            member = band[at:at + len(part)]
            for ranked, columns in zip(plan.ranks, plan.columns):
                member[:, columns] += pairs[:, ranked]
            at += len(part)
        scale = band[:, bs].real.max(axis=-1)
        band[:, bs] += g
        # block row i holds [L_i | D_i | U_i | y_i], so entry (j, j + d) of
        # row j = i B + r sits in column B + r + d: the band of the rows with
        # one r fills columns r to r + 2B
        system = np.zeros((len(rows), n, 3 * bs + 1), dtype=np.complex128)
        for r in range(bs):
            system[:, r::bs, r:r + 2 * bs + 1] = band[:, :, r::bs].transpose(0, 2, 1)
        system[:, :, -1] = y[rows]
        try:
            z = _cyclic_reduction(system.reshape(len(system), n // bs, bs, -1), g == 0, scale)
        except np.linalg.LinAlgError as exc:
            raise SingularChannel(f"tap channel block solve failed: {exc}") from exc
        z = z.reshape(len(system), n)
        at = 0
        for part, _, conj, plan in members:
            # tap t's conj(a_t) z advanced by s_t, added up in tap order
            terms = np.multiply(conj, z[at:at + len(part), None])
            x[part] = terms[:, plan.taps, plan.tap_index].sum(axis=1)
            at += len(part)


class _BandPlan(NamedTuple):
    """The index arrays :func:`_shift_mmse` gathers with for one list of
    tap shifts s_t.  The tap pairs (t, u) of the Gram, sorted by rank: a
    pair's rank counts the pairs before it in loop order (t outer, u inner)
    on its diagonal d = s_u - s_t.  Per pair, ``t``, ``u`` (a column) and
    the index ``(i + d) mod N``; per rank, the slice of its pairs and their
    band rows ``B + d``, no row twice.  Per tap, its row number ``taps`` (a
    column) and the index ``(i + s_t) mod N``.  And the block size B."""

    t: np.ndarray
    u: np.ndarray
    pair_index: np.ndarray
    ranks: tuple[slice, ...]
    columns: tuple[np.ndarray, ...]
    taps: np.ndarray
    tap_index: np.ndarray
    block: int


@lru_cache(maxsize=256)
def _band_plan(shifts: tuple, n: int) -> _BandPlan:
    """The :class:`_BandPlan` of tap shifts ``shifts`` on length-``n``
    frames, read-only."""
    s, i = np.array(shifts), np.arange(n)
    b = int(s.max() - s.min())
    block = 1 << (b - 1).bit_length()
    t, u = np.divmod(np.arange(len(s) ** 2), len(s))
    d = s[u] - s[t]
    rank = np.array([np.count_nonzero(d[:p] == d[p]) for p in range(len(d))])
    order = np.argsort(rank, kind="stable")
    t, u, d = t[order], u[order], d[order]
    bounds = np.searchsorted(rank[order], np.arange(rank.max() + 2)).tolist()
    ranks = tuple(slice(a, z) for a, z in zip(bounds[:-1], bounds[1:]))
    plan = _BandPlan(t, u[:, None], (i + d[:, None]) % n, ranks,
                     tuple(d[r] + block for r in ranks), np.arange(len(s))[:, None],
                     (i + s[:, None]) % n, block)
    for arr in (plan.t, plan.u, plan.pair_index, *plan.columns, plan.taps, plan.tap_index):
        arr.flags.writeable = False
    return plan


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
    block itself and ``L + D + U`` is solved directly.  The levels keep L
    and U negated, which makes the negation of the substituted neighbour
    terms exact sign flips that cost no call: every value equals the one
    the plain layout gives, bit for bit.  The pivots D are diagonal blocks
    of Schur complements of the Gram, so at g > 0 they are positive
    definite; at zero forcing (``zf``) each system's pivots are tested
    against ``_PIVOT_RTOL`` times its ``scale`` (shape ...), and a failing
    one raises :class:`SingularChannel`.
    """
    bs = system.shape[-2]
    mul, inv = (np.multiply, np.reciprocal) if bs == 1 else (np.matmul, np.linalg.inv)
    lo, dg, up, rhs = (slice(0, bs), slice(bs, 2 * bs), slice(2 * bs, 3 * bs),
                       slice(3 * bs, None))

    def check(pivots):
        sv = np.abs(pivots) if bs == 1 else np.linalg.svd(pivots, compute_uv=False)
        if np.any(np.min(sv.reshape(np.shape(scale) + (-1,)), axis=-1) <= _PIVOT_RTOL * scale):
            raise SingularChannel("zero-forcing through a singular tap channel")

    # block row i as [-L_i | D_i | -U_i | y_i] from here on
    system = np.concatenate((-system[..., lo], system[..., dg], -system[..., up],
                             system[..., rhs]), axis=-1)
    levels = []
    while system.shape[-3] > 1:
        even, odd = system[..., 0::2, :, :], system[..., 1::2, :, :]
        if zf:
            check(odd[..., dg])
        q = mul(inv(odd[..., dg]), odd)   # [-q_L | q_D | -q_U | q_y]
        # even row 2i meets odd row 2i - 1 through L and odd row 2i + 1
        # through U; left and right hold the plain L and U products and the
        # negated y products
        left = mul(even[..., lo], np.concatenate((q[..., -1:, :, :], q[..., :-1, :, :]),
                                                 axis=-3))
        right = mul(even[..., up], q)
        system = np.concatenate((left[..., lo],
                                 even[..., dg] - left[..., up] - right[..., lo],
                                 right[..., up],
                                 even[..., rhs] + left[..., rhs] + right[..., rhs]), axis=-1)
        levels.append(q)
    last = system[..., dg] - system[..., lo] - system[..., up]
    if zf:
        check(last)
    x = mul(inv(last), system[..., rhs])
    for q in reversed(levels):
        ahead = np.concatenate((x[..., 1:, :, :], x[..., :1, :, :]), axis=-3)
        x_odd = q[..., rhs] + mul(q[..., lo], x) + mul(q[..., up], ahead)
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
    frame that :func:`framing.extract_received_planes` returns; the
    equalizer reads its frequency plane."""
    _check(planes[1], Domain.AFFINE, cfg.n)
    eq_f, eq_a = _equalize_planes(_check(planes[0], Domain.FREQUENCY, cfg.n), est, cfg,
                                  _noise_ratio(cfg, noise_var))
    return _detect(eq_f, eq_a, cfg, mode)


def _equalize_planes(y_freq: np.ndarray, est: ChannelEstimate, cfg: FrameConfig,
                     g: float) -> tuple[np.ndarray, np.ndarray]:
    """The equalized (frequency, affine) planes of a received frequency
    plane, along the last axis: the one-tap rule for a response,
    :func:`_tap_mmse` with every row in one group for a tap list."""
    if est.domain is Domain.FREQUENCY:
        eq_f = _one_tap(y_freq, est.h_freq, g)
        return eq_f, _freq_to_affine(eq_f, cfg.affine)
    y = y_freq.reshape(-1, cfg.n)
    rows = np.arange(len(y))
    hs = np.broadcast_to(np.array([t.h for t in est.taps], dtype=np.complex128),
                         (len(rows), len(est.taps)))
    group = (rows, [t.l for t in est.taps], [t.k for t in est.taps], hs)
    return tuple(eq.reshape(y_freq.shape) for eq in _tap_mmse(y, [group], cfg.affine, g))


def _detect(eq_f: np.ndarray, eq_a: np.ndarray, cfg: FrameConfig,
            mode: ReceiverMode) -> DetectionResult:
    """:func:`detect_streams` after equalization, along the last axis."""
    rm = cfg.layout

    def read_common(plane_a):
        # the common symbols with their power removed, then the extra ones
        syms = plane_a[..., rm.common_stream] / rm.common_gain
        return syms, _demodulate(syms)

    def read_private(plane_f):
        return plane_f[..., rm.private_subcarriers] / np.sqrt(cfg.phi2)

    com, com_bits = read_common(eq_a)
    plane_f = eq_f
    for sic_round in range(_SIC_ROUNDS[mode]):
        if sic_round:
            # subtract the private image the previous round detected from
            # the affine plane and read the common stream again
            priv_bits = _demodulate(read_private(plane_f))
            priv_hat = _private_plane(_modulate(priv_bits), cfg)
            com, com_bits = read_common(eq_a - _freq_to_affine(priv_hat, cfg.affine))
        # subtract the detected common image from the frequency plane
        plane_f = eq_f - _affine_to_freq(_common_plane(_modulate(com_bits), cfg), cfg.affine)
    priv = read_private(plane_f)
    return DetectionResult(com_bits, _demodulate(priv), com[..., :rm.n_common],
                           com[..., rm.n_common:], priv)


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
    ls, ks = [t.l for t in est.taps], [t.k for t in est.taps]
    hs = np.array([[t.h for t in est.taps]], dtype=np.complex128)
    keys = np.array([[complex(t.l, t.k) for t in est.taps]], dtype=np.complex128)
    return float(_taps_nmse(_TapEstimates([(np.array([0]), ls, ks, hs)], keys, hs),
                            true_spec, n)[0])


@lru_cache(maxsize=64)
def _true_taps(taps: tuple[ChannelTap, ...]):
    """What :func:`_taps_nmse` reads of the true taps: their (delay,
    Doppler) pairs as ``l + 1j k``, their gains, the error of missing each,
    ``abs(0.0 - h) ** 2``, and their total power, read-only."""
    keys = np.array([complex(t.l, t.k) for t in taps])
    gains = np.array([t.h for t in taps], dtype=np.complex128)
    missed = np.array([abs(0.0 - t.h) ** 2 for t in taps])
    for arr in (keys, gains, missed):
        arr.flags.writeable = False
    return keys, gains, missed, sum(abs(t.h) ** 2 for t in taps)


def _response_nmse(h_est: np.ndarray, h: np.ndarray) -> np.ndarray:
    """Squared error of a frequency response over the power of the true
    one, along the last axis."""
    return np.sum(np.abs(h_est - h) ** 2, axis=-1) / np.sum(np.abs(h) ** 2)


def _taps_nmse(est: _TapEstimates, true_spec: ChannelSpec, n: int) -> np.ndarray:
    """:func:`estimate_nmse` of the tap estimates of a block, one per row of
    ``est``.  A delay-only estimate of a delay-only channel compares by its
    response.  Otherwise matched taps contribute |h_hat - h|^2, missed and
    spurious taps their full power, and each row's error is formed in the
    order and with the rounding of a Python loop over the taps: a Python
    ``x ** 2`` is ``np.float_power``, ``abs`` of a complex ``np.hypot``.  The
    padded form of ``est`` serves every row at once: one comparison finds
    every true tap's match, and the spurious taps add up column by column,
    where padding and matched taps add 0."""
    hs = est.gains
    true_keys, true_h, missed, ref = _true_taps(true_spec.taps)

    def power(v):
        return np.float_power(np.hypot(v.real, v.imag), 2)

    # hit[row, col, t]: the row's tap col is true tap t
    hit = est.keys[..., None] == true_keys
    got = np.where(hit, hs[..., None], 0).sum(axis=1)
    err = 0
    for term in np.where(hit.any(axis=1), power(got - true_h), missed).T:
        err = err + term
    # a padding column has gain 0, so it adds 0 too
    spurious = 0
    for col in np.where(hit.any(axis=-1), 0.0, power(hs)).T:
        spurious = spurious + col
    nmse = (err + spurious) / ref
    if not true_spec.has_doppler:
        for rows, gls, gks, ghs in est.groups:
            if not any(gks):
                nmse[rows] = _response_nmse(_delay_response(ghs, gls, n),
                                            freq_response(true_spec, n))
    return nmse
