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
cyclic Gram otherwise, so no N x N system is ever formed.  Detection reads
the common stream straight off the equalized affine plane and the private
stream straight off the equalized frequency plane; each SIC round
additionally rebuilds and subtracts the opposite stream's spread image
between reads.
"""
from __future__ import annotations

from dataclasses import dataclass
from enum import Enum

import numpy as np

from .channel import ChannelSpec, ChannelTap, freq_response, frequency_diagonal
from .core import Domain, Frame, demodulate_symbols, modulate_bits
from .errors import (ConfigError, DegeneratePilot, GuardViolation,
                     PilotContaminated, SingularChannel, UnresolvableDoppler)
from .framing import (Approach, FrameConfig, _common_plane, _private_plane,
                      frame_energy_budget, resource_map)
from .transforms import (AffineParams, _affine_to_freq, _check, _daft, _freq_to_affine,
                         _idaft)
# not called here; kept as attributes because linkbench/spans.py patches them
from .framing import (build_affine_common, build_affine_extra,  # noqa: F401
                      build_affine_pilot, build_freq_private, extract_received_planes)
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
    domain: Domain
    taps: tuple[ChannelTap, ...] | None = None
    h_freq: np.ndarray | None = None

    def __post_init__(self):
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
    if cfg.approach is not Approach.CLEAN_PILOT:
        raise PilotContaminated("embedded-pilot frames carry data on the pilot subcarriers")
    c1p, m = cfg.affine.c1_prime, cfg.affine.m
    if max_delay is not None and max_delay >= m:
        raise ConfigError(f"delay spread {max_delay} aliases: needs max delay < M={m}")
    p0 = cfg.layout.pilot_freq[::c1p]
    if np.min(np.abs(p0)) < 1e-12:
        raise DegeneratePilot("pilot subcarrier magnitude too small for LS division")
    h0 = y_freq.data[::c1p] / p0
    h_time = np.fft.ifft(h0)                    # <= M time taps
    if max_delay is not None:
        # receiver prior: taps beyond the design delay spread are noise
        h_time = h_time.copy()
        h_time[max_delay + 1:] = 0.0
    h_full = np.fft.fft(h_time, n=cfg.n)        # re-expanded to N subcarriers
    return ChannelEstimate(Domain.FREQUENCY, h_freq=h_full)


def estimate_channel_affine(y_affine: Frame, cfg: FrameConfig,
                            max_delay: int | None = None,
                            max_doppler: int | None = None,
                            noise_var: float = 0.0,
                            strict: bool = True) -> ChannelEstimate:
    """Peak-search tap estimate in the guard zone around affine index 0.

    ``max_delay``/``max_doppler`` restrict the candidate search to the
    receiver's design assumptions; an above-threshold shift that cannot
    come from any (l >= 0, 0 <= k < c1') either raises (strict) or is
    skipped.  The detection floor is the lower quartile of the candidate
    bins (the guard keeps shifted data off those, while the rest of the
    zone may hold data images), with zone-bin and known-noise fallbacks
    when the candidate set is small.
    """
    n, c1p, g = cfg.n, cfg.affine.c1_prime, cfg.guard
    if max_doppler is not None and max_doppler >= c1p:
        raise UnresolvableDoppler(f"Doppler range {max_doppler} >= c1'={c1p} is ambiguous")
    if max_delay is not None:
        span = c1p * max_delay + (max_doppler or 0)
        if span > g:
            raise GuardViolation(f"pilot shift span {span} exceeds guard {g}")

    offsets = np.arange(-g, g + 1)
    # signed pilot shift -> (delay, Doppler): offset = k - c1' * l
    dopplers = offsets % c1p
    delays = -((offsets - dopplers) // c1p)
    is_candidate = delays >= 0
    if max_delay is not None:
        is_candidate &= delays <= max_delay
    if max_doppler is not None:
        is_candidate &= dopplers <= max_doppler
    y = y_affine.data
    mags = np.abs(y[offsets % n])
    floor_mags = mags[~is_candidate]
    # The guard keeps channel-shifted data off the candidate bins but not
    # off the rest of the zone, so the candidate bins themselves (mostly
    # empty) give the cleanest floor; fall back to the remaining zone bins
    # or the known noise level when the candidate set is too small.
    if int(np.sum(is_candidate)) >= 6:
        threshold = THRESHOLD_SCALE * float(np.quantile(mags[is_candidate], 0.25))
    elif floor_mags.size >= 4:
        threshold = THRESHOLD_SCALE * float(np.quantile(floor_mags, 0.25))
    elif noise_var > 0:
        threshold = THRESHOLD_SCALE * float(np.sqrt(noise_var))
    else:
        threshold = 0.0
    if mags.size:
        # keep numerical leakage out of the peak list even at zero noise
        threshold = max(threshold, 1e-9 * float(np.max(mags)))

    c1 = cfg.affine.c1

    def _tap_at(j: int) -> ChannelTap:
        l, k = int(delays[j]), int(dopplers[j])
        bin_idx = int(offsets[j]) % n
        phase = np.exp(-2j * np.pi * cfg.affine.c2 * bin_idx * bin_idx) \
            * np.exp(2j * np.pi * (c1 * l * l - k * l / n))
        h = y[bin_idx] / (np.sqrt(cfg.phi_pilot) * phase)
        return ChannelTap(complex(h), l, k)

    taps: list[ChannelTap] = []
    order = np.argsort(mags)[::-1]
    for j in order:
        if mags[j] <= threshold:
            break
        if not is_candidate[j]:
            if strict:
                raise UnresolvableDoppler(
                    f"peak at shift {offsets[j]} has no (delay >= 0, Doppler < c1') "
                    f"decomposition within the search bounds")
            continue
        taps.append(_tap_at(j))
    if not taps:
        # keep the strongest resolvable peak so the receiver always has a
        # channel to work with, however deep the noise
        for j in order:
            if is_candidate[j]:
                taps.append(_tap_at(j))
                break
    if taps:
        top = max(abs(t.h) for t in taps)
        taps = [t for t in taps if abs(t.h) > 1e-9 * top]

    taps_t = tuple(taps)
    h_freq = None
    if taps_t and all(t.k == 0 for t in taps_t):
        h_freq = freq_response(ChannelSpec(taps_t), n)
    return ChannelEstimate(Domain.AFFINE, taps=taps_t, h_freq=h_freq)


def perfect_estimate(spec: ChannelSpec, cfg: FrameConfig, domain: Domain) -> ChannelEstimate:
    """Genie estimate from the true taps."""
    if domain is Domain.FREQUENCY:
        return ChannelEstimate(Domain.FREQUENCY, taps=spec.taps,
                               h_freq=freq_response(spec, cfg.n))
    return ChannelEstimate(Domain.AFFINE, taps=spec.taps)


def equalize(y: Frame, est: ChannelEstimate, cfg: FrameConfig,
             noise_var: float = 0.0) -> Frame:
    """MMSE-equalize a received plane against a channel estimate; at
    ``noise_var == 0`` this is zero forcing, and a null in the one-tap
    response raises :class:`SingularChannel`.

    Frequency-domain estimates (delay-only) use the one-tap per-subcarrier
    rule.  Affine-domain (tap) estimates solve the MMSE system of the cyclic
    tap channel in time or in unitary frequency, whichever has the narrower
    spread of tap shifts (delays l in time, Dopplers k in frequency); by
    unitarity this equals the full-matrix affine-domain solve.  At spread 0
    the channel is a diagonal times a cyclic shift and the one-tap rule
    applies; otherwise the banded Gram is solved by block cyclic reduction,
    and at zero noise a singular reduced pivot raises
    :class:`SingularChannel`.  The output is returned in the plane that
    came in.
    """
    g = noise_var / (frame_energy_budget(cfg) / cfg.n)

    if est.domain is Domain.FREQUENCY:
        if y.domain is not Domain.FREQUENCY:
            raise ConfigError("frequency-domain estimate needs a frequency plane")
        return Frame(_one_tap(y.data, est.h_freq, g), Domain.FREQUENCY)

    if y.domain is not Domain.AFFINE:
        raise ConfigError("affine-domain estimate needs an affine plane")
    if not est.taps:
        raise SingularChannel("empty tap estimate")
    return Frame(_tap_mmse(_check(y, Domain.AFFINE, cfg.n), est.taps, cfg.affine, g),
                 Domain.AFFINE)


def _one_tap(y: np.ndarray, h: np.ndarray, g: float) -> np.ndarray:
    """One-tap MMSE ``y h* / (|h|^2 + g)``; at ``g == 0`` this is zero
    forcing, and a null in ``h`` raises :class:`SingularChannel`."""
    if g == 0 and np.min(np.abs(h)) < 1e-12:
        raise SingularChannel("zero-forcing through a channel null")
    return y * np.conj(h) / (np.abs(h) ** 2 + g)


def _tap_mmse(y_aff: np.ndarray, taps, p: AffineParams, g: float) -> np.ndarray:
    """MMSE solve for a cyclic tap channel on an affine plane (ZF at g = 0).

    A tap (h, l, k) shifts a frame by l in time and by k in unitary
    frequency, so the channel is shift-structured in both domains; the solve
    runs in the one with the narrower spread of tap shifts (time on a tie).
    """
    n = p.n
    idx = np.arange(n)
    ls, ks = [t.l for t in taps], [t.k for t in taps]
    if max(ls) - min(ls) <= max(ks) - min(ks):
        # time: delay by l, then the Doppler ramp of the delayed sample
        gains = [t.h * np.exp(2j * np.pi * t.k * _ahead(idx, -t.l) / n) for t in taps]
        return _daft(_shift_mmse(_idaft(y_aff, p), ls, gains, g), p)
    # frequency: shift by k, then the delay's phase ramp
    gains = [t.h * np.exp(-2j * np.pi * (idx * t.l % n) / n) for t in taps]
    return _freq_to_affine(_shift_mmse(_affine_to_freq(y_aff, p), ks, gains, g), p)


def _shift_mmse(y: np.ndarray, shifts, gains, g: float) -> np.ndarray:
    """MMSE ``x = H^H (H H^H + g I)^{-1} y`` for ``(H x)(i) = sum_t a_t(i) x(i - s_t)``.

    With one common shift s, H is a diagonal times a cyclic shift, so the
    solve is the one-tap rule shifted back by s.  Otherwise H H^H + g I is a
    cyclic band of half-width b = max s - min s; cut into blocks of size B,
    the smallest power of two >= b, it is cyclic block-tridiagonal and is
    solved by block cyclic reduction before H^H is applied tap-wise.
    """
    s0 = min(shifts)
    b = max(shifts) - s0
    if b == 0:
        return _ahead(_one_tap(y, sum(gains), g), s0)
    n = y.size
    bs = 1 << (b - 1).bit_length()
    # Gram diagonal d: entry (j, j + d) sums a_t(j) conj(a_u(j + d)) over the
    # tap pairs with s_u - s_t = d
    band = np.zeros((n, 2 * b + 1), dtype=np.complex128)
    for s_t, a_t in zip(shifts, gains):
        for s_u, a_u in zip(shifts, gains):
            band[:, s_u - s_t + b] += a_t * _ahead(np.conj(a_u), s_u - s_t)
    scale = float(np.max(band[:, b].real))
    band[:, b] += g
    # block row i holds [L_i | D_i | U_i | y_i], so entry (j, j + d) of row
    # j = i B + r sits in column B + r + d
    rows = np.arange(n)[:, None]
    system = np.zeros((n, 3 * bs + 1), dtype=np.complex128)
    system[rows, bs + rows % bs + np.arange(-b, b + 1)] = band
    system[:, -1] = y
    try:
        z = _cyclic_reduction(system.reshape(n // bs, bs, -1), g == 0, scale).ravel()
    except np.linalg.LinAlgError as exc:
        raise SingularChannel(f"tap channel block solve failed: {exc}") from exc
    return sum(_ahead(np.conj(a) * z, s) for s, a in zip(shifts, gains))


def _ahead(v: np.ndarray, s: int) -> np.ndarray:
    """``v[(i + s) mod len(v)]`` along the first axis: ``np.roll(v, -s)``
    without its per-call overhead, and ``v`` itself when the shift is 0."""
    s %= len(v)
    return np.concatenate((v[s:], v[:s])) if s else v


# Zero-forcing pivot test: a reduced diagonal block whose smallest singular
# value is at most this fraction of the Gram's largest diagonal entry marks
# the channel as singular.  A pivot bounds the Gram's smallest eigenvalue
# from above, so only channels with cond(H H^H) >= 1e6 are refused; and
# while the earlier pivots pass, rounding moves a later one by about
# eps / 1e-6 ~ 2e-10 of that entry, so a singular channel's zero pivot stays
# far below the bound (at most 8.5e-8 over 329 sampled singular tap sets).
_PIVOT_RTOL = 1e-6


def _cyclic_reduction(system: np.ndarray, zf: bool, scale: float) -> np.ndarray:
    """Solve ``L_i x_{i-1} + D_i x_i + U_i x_{i+1} = y_i`` over P blocks of
    size B, block indices mod P and P a power of two.

    ``system`` has shape (P, B, 3B + 1) and holds block row i as
    ``[L_i | D_i | U_i | y_i]``; x comes back as (P, B, 1).  Each level
    solves the odd rows for their own blocks, ``x_{2i+1} = q_y - q_L x_{2i}
    - q_U x_{2i+2}`` with ``q = D^{-1} [L | D | U | y]``, and substitutes
    that into the even rows, halving P; at P = 1 both neighbours are the
    block itself and ``L + D + U`` is solved directly.  The pivots D are
    diagonal blocks of Schur complements of the Gram, so at g > 0 they are
    positive definite; at zero forcing (``zf``) each is tested against
    ``_PIVOT_RTOL * scale`` and a failing one raises :class:`SingularChannel`.
    """
    bs = system.shape[1]
    mul, inv = (np.multiply, np.reciprocal) if bs == 1 else (np.matmul, np.linalg.inv)
    lo, dg, up, rhs = (slice(0, bs), slice(bs, 2 * bs), slice(2 * bs, 3 * bs),
                       slice(3 * bs, None))

    def check(pivots):
        if zf:
            sv = np.abs(pivots) if bs == 1 else np.linalg.svd(pivots, compute_uv=False)
            if np.min(sv) <= _PIVOT_RTOL * scale:
                raise SingularChannel("zero-forcing through a singular tap channel")

    levels = []
    while len(system) > 1:
        even, odd = system[0::2], system[1::2]
        check(odd[..., dg])
        q = mul(inv(odd[..., dg]), odd)
        # even row 2i meets odd row 2i - 1 through L and odd row 2i + 1 through U
        left, right = mul(even[..., lo], _ahead(q, -1)), mul(even[..., up], q)
        system = np.concatenate((-left[..., lo],
                                 even[..., dg] - left[..., up] - right[..., lo],
                                 -right[..., up],
                                 even[..., rhs] - left[..., rhs] - right[..., rhs]), axis=-1)
        levels.append(q)
    last = system[..., lo] + system[..., dg] + system[..., up]
    check(last)
    x = mul(inv(last), system[..., rhs])
    for q in reversed(levels):
        x_odd = q[..., rhs] - mul(q[..., lo], x) - mul(q[..., up], _ahead(x, 1))
        x = np.concatenate((x, x_odd), axis=1).reshape(-1, bs, 1)
    return x


@dataclass(frozen=True)
class DetectionResult:
    """Hard bits and equalized symbols one receiver read off one frame."""

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
    y_freq, y_aff = planes
    if est.domain is Domain.FREQUENCY:
        eq_f = equalize(y_freq, est, cfg, noise_var).data
        eq_a = _freq_to_affine(eq_f, cfg.affine)
    else:
        eq_a = equalize(y_aff, est, cfg, noise_var).data
        eq_f = _affine_to_freq(eq_a, cfg.affine)

    rm = resource_map(cfg)

    def read_common(plane_a):
        com = plane_a[rm.common_indices] / np.sqrt(cfg.phi1)
        ext = plane_a[rm.extra_indices]
        return com, ext, demodulate_symbols(com), demodulate_symbols(ext)

    def read_private(plane_f):
        return plane_f[rm.private_subcarriers] / np.sqrt(cfg.phi2)

    com, ext, com_bits, ext_bits = read_common(eq_a)
    plane_f = eq_f
    for sic_round in range(_SIC_ROUNDS[mode]):
        if sic_round:
            # subtract the private image the previous round detected from
            # the affine plane and read the common stream again
            priv_bits = demodulate_symbols(read_private(plane_f))
            priv_hat = _private_plane(modulate_bits(priv_bits), cfg)
            com, ext, com_bits, ext_bits = read_common(
                eq_a - _freq_to_affine(priv_hat, cfg.affine))
        # subtract the detected common image from the frequency plane
        com_hat = _common_plane(
            modulate_bits(np.concatenate([com_bits, ext_bits])), cfg)
        plane_f = eq_f - _affine_to_freq(com_hat, cfg.affine)
    priv = read_private(plane_f)
    return DetectionResult(np.concatenate([com_bits, ext_bits]),
                           demodulate_symbols(priv), com, ext, priv)


def estimate_nmse(est: ChannelEstimate, true_spec: ChannelSpec, n: int) -> float:
    """Diagnostic estimate error.

    Frequency-domain estimates compare against H(m) (delay-only) or the
    diagonal of the true frequency-domain channel (Doppler; the off-diagonal
    ICI is invisible to a one-tap model).  Tap estimates compare tap-wise:
    matched taps contribute |h_hat - h|^2, missed and spurious taps their
    full power.
    """
    if est.h_freq is not None and not true_spec.has_doppler:
        h = freq_response(true_spec, n)
        return float(np.sum(np.abs(est.h_freq - h) ** 2) / np.sum(np.abs(h) ** 2))
    if est.h_freq is not None and est.taps is None:
        # integer-Doppler taps have zero frequency-domain diagonal, so the
        # one-tap reference is the response of the delay-only taps
        h = frequency_diagonal(true_spec, n)
        return float(np.sum(np.abs(est.h_freq - h) ** 2) / np.sum(np.abs(h) ** 2))
    true = {(t.l, t.k): t.h for t in true_spec.taps}
    got = {(t.l, t.k): t.h for t in (est.taps or ())}
    err = 0.0
    for key, h in true.items():
        err += abs(got.pop(key, 0.0) - h) ** 2
    err += sum(abs(h) ** 2 for h in got.values())
    ref = sum(abs(t.h) ** 2 for t in true_spec.taps)
    return float(err / ref)
