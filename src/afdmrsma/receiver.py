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
  c1' (unique while k < c1'), and h from the peak value over the pilot's
  image through a unit tap at that bin, made from the DAFT's own chirp and
  phase tables (``transforms``).

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
FFT pair and one cyclic reduction per block size (:func:`_tap_mmse`), and
hand on the equalized frequency plane alone.  The detector makes the affine
plane, reads the common stream off it and the private stream off the
frequency plane; each SIC round additionally rebuilds and subtracts the
opposite stream's spread image between reads.

Each stage has one implementation, an array kernel that acts on every row
of a (frames, N) block.  The public per-frame functions run it on a block
of one row, and the receive step (:func:`_receive`) on whole blocks.  The
estimators' search tables, the LS pilot (:func:`_pilot_subcarriers`) and
the guard zone (:func:`_peak_zone`), are kernel arguments: a
:class:`ReceiverDesign` holds them per configuration, the public functions
build them per call.

The receiver reads the true channel only to build a genie: the receive step
takes the samples, its design and the noise level, and hands back its
estimate, which ``harness`` scores.
"""
from __future__ import annotations

from dataclasses import dataclass, replace
from enum import Enum
from functools import lru_cache
from typing import NamedTuple

import numpy as np

from .channel import ChannelSpec, ChannelTap, freq_response, frequency_diagonal
from .core import Domain, Frame, _demodulate, _modulate
from .errors import (ConfigError, DegeneratePilot, GuardViolation,
                     PilotContaminated, SingularChannel, UnresolvableDoppler)
from .framing import (Approach, FrameConfig, _common_plane, _private_plane,
                      frame_energy_budget)
from .transforms import (_affine_to_freq, _check, _chirps, _daft, _dft, _freq_to_affine,
                         _spectra, _unit)
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
    return ChannelEstimate(Domain.FREQUENCY, h_freq=_ls_freq(
        _check(y_freq, Domain.FREQUENCY, cfg.n), _pilot_subcarriers(cfg, max_delay), max_delay))


def _ls_freq(y_freq: np.ndarray, pilot: np.ndarray, max_delay: int | None) -> np.ndarray:
    """:func:`estimate_channel_freq`'s response along the last axis, from
    the pilot on every c1'-th of the N subcarriers (c1' = N / M)."""
    n = y_freq.shape[-1]
    h0 = y_freq[..., ::n // len(pilot)] / pilot
    h_time = np.fft.ifft(h0)                    # <= M time taps
    if max_delay is not None:
        # receiver prior: taps beyond the design delay spread are noise
        h_time[..., max_delay + 1:] = 0.0
    return np.fft.fft(h_time, n=n)              # re-expanded to N subcarriers


def _pilot_subcarriers(cfg: FrameConfig, max_delay: int | None) -> np.ndarray:
    """The pilot on the class-0 subcarriers that :func:`_ls_freq` divides by
    (a read-only view), once the frame and the delay bound pass its checks."""
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

    bins: np.ndarray
    delays: np.ndarray
    dopplers: np.ndarray
    is_candidate: np.ndarray
    pilot_gain: np.ndarray
    floor: np.ndarray | None


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
    bins = offsets % n
    # the DAFT's image of the pilot through a unit tap (l, k): its c2 chirp
    # at the bin times the phase exp(j pi (c1' l^2 - 2 k l) / N)
    gain = (np.sqrt(cfg.phi_pilot) * _chirps(n, c1p, cfg.affine.c2)[3][bins]
            * _unit(c1p * delays * delays - 2 * dopplers * delays, n))
    cand, rest = np.flatnonzero(is_candidate), np.flatnonzero(~is_candidate)
    zone = _PeakZone(bins, delays, dopplers, is_candidate, gain,
                     cand if len(cand) >= 6 else rest if len(rest) >= 4 else None)
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
    :func:`_affine_tap_groups` on one row, its taps in zone order (by
    ascending pilot shift k - c1' l).

    ``max_delay``/``max_doppler`` restrict the candidate search to the
    receiver's design assumptions; an above-threshold shift that cannot
    come from any (l >= 0, 0 <= k < c1') either raises (strict) or is
    skipped.
    """
    y = _check(y_affine, Domain.AFFINE, cfg.n)[None]
    [(_, ls, ks, hs)] = _affine_tap_groups(y, _peak_zone(cfg, max_delay, max_doppler),
                                           noise_var, strict)
    taps = tuple(ChannelTap(complex(h), l, k) for l, k, h in zip(ls, ks, hs[0]))
    return ChannelEstimate(Domain.AFFINE, taps=taps)


def _affine_tap_groups(y_aff: np.ndarray, zone: _PeakZone, noise_var: float,
                       strict: bool = False) -> list:
    """The affine estimator's peak search over ``zone`` on each row of a
    (rows, N) affine block: the taps found as groups of ``(rows, delays, dopplers, gains)``,
    the block rows that keep the same zone entries, their delay and Doppler
    lists and the (rows, taps) gains, each list in zone order.

    The detection floor is the lower quartile of the candidate bins: the
    guard keeps channel-shifted data off those, but not off the rest of the
    zone.  The remaining zone bins or the known noise level stand in when
    the candidate set is too small (``_PeakZone.floor``).  A row's estimate
    is the set of zone entries it keeps, so rows are grouped by sorting
    their packed masks, with no loop over the rows.
    """
    cand = zone.is_candidate
    peaks = y_aff[:, zone.bins]
    mags = np.abs(peaks)
    floor = (np.sqrt(max(noise_var, 0.0)) if zone.floor is None
             else _lower_quartile(mags[:, zone.floor]))
    # keep numerical leakage out of the peak list even at zero noise
    threshold = np.maximum(THRESHOLD_SCALE * floor, 1e-9 * mags.max(axis=-1))

    above = mags > threshold[:, None]
    stray = above & ~cand
    if strict and stray.any():
        # the strongest stray of the first row that has one (the zone holds
        # shifts -G..G)
        row = stray.nonzero()[0][0]
        raise UnresolvableDoppler(
            f"peak at shift {np.where(stray[row], mags[row], -1).argmax() - len(zone.bins) // 2} "
            f"has no (delay >= 0, Doppler < c1') decomposition within the search bounds")
    keep = above & cand
    # a row that keeps no peak keeps its strongest resolvable one, so the
    # receiver always has a channel to work with, however deep the noise
    none = (~keep.any(axis=-1)).nonzero()[0]
    strongest = np.where(cand, mags[none], -1).argmax(axis=-1)
    keep[none, strongest] = cand[strongest]
    gains = peaks / zone.pilot_gain
    size = np.hypot(gains.real, gains.imag)
    top = size.max(axis=-1, where=keep, initial=0.0)
    keep &= size > 1e-9 * top[:, None]

    # rows sorted by their packed masks (stable, so ascending within a
    # group); a group starts where the mask changes
    masks = np.packbits(keep, axis=-1)
    perm = np.lexsort(masks.T)
    masks = masks[perm]
    cuts = (masks[1:] != masks[:-1]).any(axis=-1).nonzero()[0] + 1
    groups = []
    for rows in np.split(perm, cuts):
        kept = keep[rows[0]]
        groups.append((rows, zone.delays[kept].tolist(), zone.dopplers[kept].tolist(),
                       gains.take(rows, axis=0).compress(kept, axis=1)))
    return groups


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
    eq_f = _equalize_planes(_affine_to_freq(data, cfg.affine), est, g)
    return Frame(_freq_to_affine(eq_f, cfg.affine), Domain.AFFINE)


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
    x = np.multiply(y, np.conj(h))
    power += g
    return np.divide(x, power, out=x)


def _tap_mmse(y_freq: np.ndarray, groups, g: float) -> np.ndarray:
    """MMSE solve for cyclic tap channels (ZF at g = 0): the equalized
    frequency plane of a received (rows, N) frequency plane.

    ``groups`` holds ``(rows, delays, dopplers, gains)``, the one block
    form of a tap estimate, as :func:`_affine_tap_groups` yields it and
    ``harness._taps_nmse`` scores it: the block rows that share one tap list,
    the taps' delays and Dopplers, and a (rows, taps) array of their gains.
    A tap (h, l, k) shifts a frame by k in unitary frequency and ramps it by
    its delay's phase, the spectrum of a shift by l (:func:`_spectra`), so
    every group solves there, from ``y_freq``, by the rule
    :func:`_solve_rule` picks: one tap per subcarrier at Doppler spread 0,
    one FFT pair for a collinear group (:func:`_chirp_mmse`), block cyclic
    reduction for a general one, which :func:`_shift_mmse` receives with its
    Doppler list.  The collinear groups share one stacked FFT pair and the
    general ones one cyclic reduction per block size.  Every step acts on
    the rows independently, so a row's plane does not depend on the groups
    that share its block.
    """
    n = y_freq.shape[-1]
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
            general.append((rows, hs[:, :, None] * _spectra(tuple(ls), n), ks))
    x = np.empty_like(y_freq)
    if flat:
        # H is a diagonal times a cyclic shift by the common Doppler s: the
        # one-tap rule, shifted back by s
        rows, h = _stack_rows(flat)
        eq = _one_tap(y_freq.take(rows, axis=0), h, g)
        for span, (part, *_, shift) in zip(_spans(flat), flat):
            x[part] = _ahead(eq[span], shift)
    _shift_mmse(x, y_freq, general, g)
    _chirp_mmse(x, y_freq, chirped, g)
    return x


def _stack_rows(parts) -> tuple[np.ndarray, np.ndarray]:
    """The block rows of ``parts``, one ``(rows, coefficients, spectra, ...)``
    per group, stacked in order, and each row's sum over the group's taps of
    its coefficient (a (rows, taps) array) times the tap's spectrum (a
    (taps, N) array), tap by tap from 0 as Python's ``sum`` adds them."""
    sums = [np.multiply(coefs[:, :, None], spectra).sum(axis=1) for _, coefs, spectra, _ in parts]
    if len(parts) == 1:
        return parts[0][0], sums[0]
    return np.concatenate([part[0] for part in parts]), np.concatenate(sums)


def _spans(parts) -> list[slice]:
    """The slice each group of ``parts``, ``(rows, ...)`` each, fills once their rows stack."""
    ends = np.cumsum([len(part[0]) for part in parts]).tolist()
    return [slice(end - len(part[0]), end) for part, end in zip(parts, ends)]


class _Chirp(NamedTuple):
    """A collinear tap list's channel in unitary frequency as
    ``H = D C P^H``: D and P unit-modulus diagonals, C the circulant with
    gain ``g_t = h_t phases[t]`` at shift s_t, whose eigenvalues are
    ``sum_t g_t`` times the :func:`_spectra` row of s_t."""

    unchirp: np.ndarray                # conj(D)
    chirp: np.ndarray                  # P
    phases: np.ndarray                 # (taps,)


# fig7 at its preset 400 frames/point meets 206 distinct tap lists (its
# spurious Doppler peaks), fig5-9 at their presets 223; a collinear entry
# holds only its phases beside a shared _chirp_pair
@lru_cache(maxsize=1024)
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


@lru_cache(maxsize=64)
def _chirp_pair(c: int, gamma: int, n: int) -> tuple[np.ndarray, np.ndarray]:
    """conj(D) and P of :class:`_Chirp` for chirp rate c and ramp gamma."""
    i = np.arange(n)
    pair = _unit(-(c * i * i + 2 * gamma * i), n), _unit(c * i * i, n)
    for arr in pair:
        arr.flags.writeable = False
    return pair


def _chirp_mmse(x: np.ndarray, y: np.ndarray, chirped, g: float) -> None:
    """MMSE of collinear groups into ``x``: ``chirped`` holds ``(rows,
    gains, spectra, chirp)``, the block rows of one channel ``H = D C P^H``
    (see :class:`_Chirp`), their (rows, taps) circulant gains g_t and its tap
    spectra.  D and P are unitary, so ``x = P C^H (C C^H + g I)^{-1}
    D^H y``, the one-tap rule on C's eigenvalues between one stacked FFT and
    its inverse; those eigenvalues squared are the eigenvalues of ``H H^H``,
    which the one-tap rule's zero-forcing test reads.  All rows solve in one
    buffer, each group unchirped and chirped back in place."""
    if not chirped:
        return
    rows, eig = _stack_rows(chirped)
    spans = _spans(chirped)
    z = y.take(rows, axis=0)
    for span, (*_, group) in zip(spans, chirped):
        z[span] *= group.unchirp
    z = np.fft.ifft(_one_tap(np.fft.fft(z), eig, g))
    for span, (*_, group) in zip(spans, chirped):
        z[span] *= group.chirp
    x[rows] = z


def _shift_mmse(x: np.ndarray, y: np.ndarray, solves, g: float) -> None:
    """MMSE ``x = H^H (H H^H + g I)^{-1} y`` into ``x`` for general channels
    ``(H x)(i) = sum_t a_t(i) x(i - s_t)``, along the last axis of a (rows, N)
    block.

    ``solves`` holds ``(rows, gains, shifts)``: the block rows of one
    channel, its per-sample tap gains a_t as a (rows, taps, N) array, and
    its tap shifts s_t, at least two distinct ones.  H H^H + g I is a cyclic
    band of half-width b = max s - min s; cut into blocks of size B, the
    smallest power of two >= b, it is cyclic block-tridiagonal.  The
    channels with the same B fill one band of half-width B, tap pair by tap
    pair in loop order, are scattered into one system and go through one
    block cyclic reduction; then each channel's H^H is applied tap by tap.
    """
    n = y.shape[-1]
    banded: dict[int, list] = {}
    for rows, gains, shifts in solves:
        b = max(shifts) - min(shifts)
        banded.setdefault(1 << (b - 1).bit_length(), []).append(
            (rows, gains, np.conj(gains), shifts))
    for bs, members in banded.items():
        rows = np.concatenate([part for part, *_ in members])
        # Gram diagonal d (row bs + d): entry (j, j + d) sums
        # a_t(j) conj(a_u(j + d)) over the tap pairs with s_u - s_t = d
        band = np.zeros((len(rows), 2 * bs + 1, n), dtype=np.complex128)
        spans = _spans(members)
        for span, (_, gains, conj, shifts) in zip(spans, members):
            member = band[span]
            for t, s_t in enumerate(shifts):
                for u, s_u in enumerate(shifts):
                    d = s_u - s_t
                    member[:, bs + d] += gains[:, t] * _ahead(conj[:, u], d)
        scale = band[:, bs].real.max(axis=-1)
        band[:, bs] += g
        # block row i holds [L_i | D_i | U_i | y_i], so entry (j, j + d) of
        # row j = i B + r sits in column B + r + d: the band of the rows with
        # one r fills columns r to r + 2B
        system = np.zeros((len(rows), n, 3 * bs + 1), dtype=np.complex128)
        for r in range(bs):
            system[:, r::bs, r:r + 2 * bs + 1] = band[:, :, r::bs].transpose(0, 2, 1)
        system[:, :, -1] = y.take(rows, axis=0)
        try:
            z = _cyclic_reduction(system.reshape(len(system), n // bs, bs, -1), g == 0, scale)
        except np.linalg.LinAlgError as exc:
            raise SingularChannel(f"tap channel block solve failed: {exc}") from exc
        z = z.reshape(len(system), n)
        for span, (part, _, conj, shifts) in zip(spans, members):
            # tap t's conj(a_t) z advanced by s_t, added up in tap order
            terms = [_ahead(np.multiply(conj[:, t], z[span]), s) for t, s in enumerate(shifts)]
            x[part] = sum(terms[1:], terms[0])


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


def _int64_bits(det: DetectionResult) -> DetectionResult:
    """``det`` with int64 bits: the block kernels keep the int8 bits of
    ``core._demodulate``, the public functions return int64 ones."""
    return replace(det, common_bits=det.common_bits.astype(np.int64),
                   private_bits=det.private_bits.astype(np.int64))


def detect_streams(planes: tuple[Frame, Frame], cfg: FrameConfig, est: ChannelEstimate,
                   mode: ReceiverMode = ReceiverMode.SIC_FREE,
                   noise_var: float = 0.0) -> DetectionResult:
    """Equalize once, then read the common stream from the affine plane and
    the private stream from the frequency plane, cleaning them in the mode's
    SIC rounds.  ``planes`` is the (frequency, affine) pair of one received
    frame that :func:`framing.extract_received_planes` returns; the
    equalizer reads its frequency plane."""
    if not isinstance(mode, ReceiverMode):
        raise ConfigError(f"mode must be a ReceiverMode, got {mode!r}")
    _check(planes[1], Domain.AFFINE, cfg.n)
    eq_f = _equalize_planes(_check(planes[0], Domain.FREQUENCY, cfg.n), est,
                            _noise_ratio(cfg, noise_var))
    return _int64_bits(_detect(eq_f, cfg, mode))


def _equalize_planes(y_freq: np.ndarray, est: ChannelEstimate, g: float) -> np.ndarray:
    """The equalized frequency plane of a received frequency plane, along
    the last axis: the one-tap rule for a response, :func:`_tap_mmse` with
    every row in one group for a tap list."""
    if est.domain is Domain.FREQUENCY:
        return _one_tap(y_freq, est.h_freq, g)
    y = y_freq.reshape(-1, y_freq.shape[-1])
    return _tap_mmse(y, [_tap_group(est.taps, len(y))], g).reshape(y_freq.shape)


def _tap_group(taps: tuple[ChannelTap, ...], rows: int) -> tuple:
    """A tap list as the one group ``(rows, delays, dopplers, gains)`` of a
    block of ``rows`` rows that :func:`_tap_mmse` and ``harness._taps_nmse``
    read."""
    hs = np.broadcast_to(np.array([t.h for t in taps], dtype=np.complex128), (rows, len(taps)))
    return np.arange(rows), [t.l for t in taps], [t.k for t in taps], hs


class ReceiverDesign(NamedTuple):
    """What a configuration fixes of its receiver, which every block reads:
    the estimator or genie, its bounds, search table and genie estimate."""
    kind: str          # "freq", "affine", "perfect-freq", "perfect-affine" or "baseline"
    max_delay: int     # the delay bound the configuration hands over
    max_doppler: int   # its Doppler bound, at most the c1' - 1 the pilot-shift law resolves
    search: np.ndarray | _PeakZone | None   # freq: its LS pilot; affine: its zone; else None
    genie: ChannelEstimate | None   # what the baseline and perfect-* equalize every frame with


def _receiver_design(cfg: FrameConfig, kind: str, max_delay: int, max_doppler: int,
                     truth: ChannelSpec, zero_forcing: bool) -> ReceiverDesign:
    """The :class:`ReceiverDesign` of estimator ``kind`` within the bounds
    ``max_delay`` and ``max_doppler``, or of a genie built from the true
    channel ``truth``, on frames of ``cfg``; raises what the estimator raises
    as it builds its search table and, at ``zero_forcing``, what equalizing
    one zero row through its genie raises, as the pivot tests read H alone."""
    search, genie = None, None
    if kind == "freq":
        search = _pilot_subcarriers(cfg, max_delay)
    elif kind == "affine":
        search = _peak_zone(cfg, max_delay, max_doppler)
    elif kind == "baseline":   # it runs no estimator
        genie = ChannelEstimate(Domain.FREQUENCY, h_freq=frequency_diagonal(truth, cfg.n))
    else:
        genie = perfect_estimate(truth, cfg, Domain.FREQUENCY if kind == "perfect-freq"
                                 else Domain.AFFINE)
    if genie is not None and zero_forcing:
        # zero forcing through an estimate the config fixes: every frame or none
        _equalize_planes(np.zeros((1, cfg.n), complex), genie, 0.0)
    return ReceiverDesign(kind, max_delay, max_doppler, search, genie)


def _receive(received: np.ndarray, cfg: FrameConfig, design: ReceiverDesign,
             noise_var: float) -> tuple[np.ndarray, list | np.ndarray | None]:
    """The equalized frequency plane of a (frames, N) block of CP-free time
    samples received at noise variance ``noise_var``, and the estimate it
    was equalized with (tap groups, LS responses, or None for a genie), as
    ``design`` fixes; the samples are dropped once the planes the estimator
    reads are made."""
    g = _noise_ratio(cfg, noise_var)
    y_freq = _dft(received)
    if design.kind == "affine":
        # only the affine estimator reads the affine plane; frames whose
        # estimates hold the same taps form a group, and one equalizer call
        # serves every group
        groups = _affine_tap_groups(_daft(received, cfg.affine), design.search, noise_var)
        del received
        return _tap_mmse(y_freq, groups, g), groups
    del received
    if design.genie is not None:
        return _equalize_planes(y_freq, design.genie, g), None
    h = _ls_freq(y_freq, design.search, design.max_delay)
    return _one_tap(y_freq, h, g), h


def _detect(eq_f: np.ndarray, cfg: FrameConfig, mode: ReceiverMode) -> DetectionResult:
    """:func:`detect_streams` after equalization, along the last axis; the
    affine plane is made here, as only the detector reads it."""
    rm = cfg.layout

    def read_common(plane_a):
        # the common symbols with their power removed, then the extra ones
        syms = np.take(plane_a, rm.common_stream, axis=-1) / rm.common_gain
        return syms, _demodulate(syms)

    def read_private(plane_f):
        return np.take(plane_f, rm.private_subcarriers, axis=-1) / np.sqrt(cfg.phi2)

    eq_a = _freq_to_affine(eq_f, cfg.affine)
    com, com_bits = read_common(eq_a)
    plane_f = eq_f
    for sic_round in range(_SIC_ROUNDS[mode]):
        if sic_round:
            # subtract the private image the previous round detected from
            # the affine plane and read the common stream again
            priv_bits = _demodulate(read_private(plane_f))
            del plane_f   # the previous round's plane, once its bits are read
            priv_hat = _private_plane(_modulate(priv_bits), cfg)
            com, com_bits = read_common(eq_a - _freq_to_affine(priv_hat, cfg.affine))
        # subtract the detected common image from the frequency plane
        plane_f = eq_f - _affine_to_freq(_common_plane(_modulate(com_bits), cfg), cfg.affine)
    priv = read_private(plane_f)
    return DetectionResult(com_bits, _demodulate(priv), com[..., :rm.n_common],
                           com[..., rm.n_common:], priv)
