"""Dense and per-frame reference forms that the fast package paths are
checked against.

The per-frame engine (:func:`run_frame`), the loop peak search
(:func:`estimate_channel_affine`) and the dict-based tap NMSE
(:func:`estimate_nmse`) are the pre-block implementations, kept
independent of the package's row-wise kernels: the block engine must equal
them bit for bit.
"""
from functools import lru_cache

import numpy as np

from afdmrsma import (BITS_PER_SYMBOL, AffineParams, ChannelEstimate, ChannelSpec, ChannelTap,
                      ConfigError, Domain, Frame, FrameConfig, InvalidChannel, InvalidIndex,
                      SimConfig, UnresolvableDoppler, apply_channel, build_frame,
                      detect_streams, estimate_channel_freq, extract_received_planes,
                      frame_rng, frequency_diagonal, modulate_bits,
                      perfect_estimate, random_bits, required_bits_per_user, split_messages)
from afdmrsma.baseline import run_baseline_frame
from afdmrsma import harness
from afdmrsma.harness import _FrameRecord, _response_nmse, _score
from afdmrsma.receiver import _peak_zone
from afdmrsma.transforms import _chirps

# the peak threshold in multiples of the noise floor, kept apart from the
# package's constant so that a change to either shows as a mismatch
THRESHOLD_SCALE = 3.0


def tap_mmse_time(y_time: np.ndarray, taps, n: int, g: float) -> np.ndarray:
    """Time-domain MMSE ``x = H^H (H H^H + g I)^{-1} y`` for a cyclic tap
    channel (ZF at g = 0), with the N x N Gram H H^H filled from its cyclic
    diagonals and one dense solve.
    """
    idx = np.arange(n)
    gram = np.zeros((n, n), dtype=np.complex128)
    for r in taps:
        pr = r.h * np.exp(2j * np.pi * r.k * ((idx - r.l) % n) / n)
        for s in taps:
            ps = np.conj(s.h * np.exp(2j * np.pi * s.k * ((idx - r.l) % n) / n))
            # column where row n of H (at j = n - l_r) meets row m of H:
            # m = n - l_r + l_s (mod N)
            gram[idx, (idx - r.l + s.l) % n] += pr * ps
    gram[idx, idx] += g
    z = np.linalg.solve(gram, y_time)
    x = np.zeros(n, dtype=np.complex128)
    for t in taps:
        x += np.conj(t.h) * np.exp(-2j * np.pi * t.k * idx / n) * z[(idx + t.l) % n]
    return x


def kernel_phi(i: int, m: int, p: AffineParams) -> complex:
    """Closed-form spreading kernel phi^i(m).

    phi^i(m) = sum_{q=0}^{M-1} exp(j pi q^2 / M) exp(j 2 pi q (i-m) / N)
             = S_M exp(-j pi d^2 / M),   d = (i - m)/c1',
    where S_M = sum_q exp(j pi q^2 / M) is a quadratic Gauss sum, and the
    kernel vanishes unless i = m (mod c1').  Assembling

        Y(m) = (c1'/N) sum_{[i]=[m]} X(i) exp(j 2 pi c2 i^2) phi^i(m)

    reproduces ``affine_to_freq`` exactly (even M).
    """
    if not (0 <= i < p.n and 0 <= m < p.n):
        raise InvalidIndex(f"indices ({i}, {m}) outside [0, {p.n})")
    if (i - m) % p.c1_prime != 0:
        return 0.0 + 0.0j
    mm = p.m
    d = (i - m) // p.c1_prime
    s_m = _gauss_sum(mm)
    return complex(s_m * np.exp(-1j * np.pi * ((d * d) % (2 * mm)) / mm))


@lru_cache(maxsize=32)
def _gauss_sum(m: int) -> complex:
    q = np.arange(m, dtype=np.int64)
    return complex(np.sum(np.exp(1j * np.pi * ((q * q) % (2 * m)) / m)))


def idaft_matrix(p: AffineParams) -> np.ndarray:
    """Dense unitary synthesis matrix, the factorized product of the chirps
    and the inverse DFT."""
    tc, fc, _, _ = _chirps(p.n, p.c1_prime, p.c2)
    f_inv = np.fft.ifft(np.eye(p.n), axis=0) * np.sqrt(p.n)
    return (tc[:, None] * f_inv) * fc[None, :]


def daft_matrix(p: AffineParams) -> np.ndarray:
    """Dense unitary analysis matrix, the conjugate transpose of
    :func:`idaft_matrix`."""
    return idaft_matrix(p).conj().T


def channel_matrix(spec: ChannelSpec, ell: int) -> np.ndarray:
    """Dense length-ell matrix of the cyclic tap action of ``apply_channel``
    (noise-free)."""
    n = np.arange(ell)
    mat = np.zeros((ell, ell), dtype=np.complex128)
    for tap in spec.taps:
        if tap.l >= ell:
            raise InvalidChannel(f"delay {tap.l} >= frame length {ell}")
        idx = (n - tap.l) % ell
        mat[n, idx] += tap.h * np.exp(2j * np.pi * tap.k * idx / ell)
    return mat


def scatter(n: int, indices: np.ndarray, values: np.ndarray, scale) -> np.ndarray:
    """``scale * values`` set at ``indices`` of zero planes of length n along
    the last axis by a fancy-index assignment, the placement that
    ``framing._scatter`` makes by one gather."""
    values = np.asarray(values, complex)
    data = np.zeros(values.shape[:-1] + (n,), dtype=np.complex128)
    data[..., indices] = scale * values
    return data


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
    zone = _peak_zone(cfg, max_delay, max_doppler)
    is_candidate = zone.is_candidate
    y = y_affine.data
    mags = np.abs(y[zone.bins])
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

    def _tap_at(j: int) -> ChannelTap:
        h = y[zone.bins[j]] / zone.pilot_gain[j]
        return ChannelTap(complex(h), int(zone.delays[j]), int(zone.dopplers[j]))

    taps: list[ChannelTap] = []
    order = np.argsort(mags)[::-1]
    for j in order:
        if mags[j] <= threshold:
            break
        if not is_candidate[j]:
            if strict:
                raise UnresolvableDoppler(
                    f"peak at shift {j - cfg.guard} has no (delay >= 0, Doppler < c1') "
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
    # the package keeps a tap estimate in zone order: by pilot shift k - c1' l
    taps.sort(key=lambda t: t.k - cfg.affine.c1_prime * t.l)
    return ChannelEstimate(Domain.AFFINE, taps=tuple(taps))


def estimate_nmse(est: ChannelEstimate, true_spec: ChannelSpec, n: int) -> float:
    """Diagnostic estimate error.

    A frequency response, one or a (frames, N) block of them, compares
    against the diagonal of the true frequency-domain channel: integer-Doppler
    taps have a zero diagonal, so the one-tap reference is the response of
    the delay-only taps (H(m) itself on a delay-only channel).  Every tap
    list, delay-only or not, compares tap-wise: matched taps contribute
    |h_hat - h|^2, missed and spurious taps their full power.
    """
    if est.domain is Domain.FREQUENCY:
        return _response_nmse(est.h_freq, frequency_diagonal(true_spec, n))
    true = {(t.l, t.k): t.h for t in true_spec.taps}
    got = {(t.l, t.k): t.h for t in est.taps}
    err = 0.0
    for key, h in true.items():
        err += abs(got.pop(key, 0.0) - h) ** 2
    err += sum(abs(h) ** 2 for h in got.values())
    ref = sum(abs(t.h) ** 2 for t in true_spec.taps)
    return float(err / ref)


def _estimate(sim: SimConfig, planes: tuple[Frame, Frame], spec: ChannelSpec) -> ChannelEstimate:
    """The estimate ``sim.design`` fixes, with its bounds."""
    cfg, design = sim.frame, sim.design
    if design.kind == "perfect-freq":
        return perfect_estimate(spec, cfg, Domain.FREQUENCY)
    if design.kind == "perfect-affine":
        return perfect_estimate(spec, cfg, Domain.AFFINE)
    y_freq, y_aff = planes
    if design.kind == "freq":
        return estimate_channel_freq(y_freq, cfg, max_delay=design.max_delay)
    if design.kind == "affine":
        return estimate_channel_affine(y_aff, cfg, max_delay=design.max_delay,
                                       max_doppler=design.max_doppler,
                                       noise_var=spec.noise_var, strict=False)
    raise ConfigError(f"unknown estimator {design.kind!r}")


def run_frame(sim: SimConfig, point: int, frame_idx: int, noise_var: float) -> _FrameRecord:
    """One frame through the public per-frame functions, with this module's
    peak search and NMSE: the reference that every row of :func:`run_block`
    equals."""
    rng = frame_rng(sim.seed, point, frame_idx)
    spec = ChannelSpec(sim.taps, noise_var)
    cfg = sim.frame

    if sim.baseline:
        n_bits = cfg.n * BITS_PER_SYMBOL
        bits = random_bits(rng, n_bits), random_bits(rng, n_bits)
    else:
        r1, r2 = required_bits_per_user(cfg)
        msgs = split_messages(random_bits(rng, r1), random_bits(rng, r2), cfg)
        # even frames carry user 1's private stream, odd frames user 2's
        bits = msgs.common_bits, (msgs.private_bits_user2 if frame_idx % 2
                                  else msgs.private_bits_user1)
    syms = tuple(modulate_bits(b) for b in bits)

    if sim.baseline:
        det = run_baseline_frame(*syms, cfg, spec, rng)
        return _FrameRecord(*_score(sim, bits, syms, det, 0.0))
    planes = extract_received_planes(apply_channel(build_frame(*syms, cfg), spec, rng), cfg)
    est = _estimate(sim, planes, spec)
    det = detect_streams(planes, cfg, est, sim.mode, noise_var)
    return _FrameRecord(*_score(sim, bits, syms, det, estimate_nmse(est, spec, cfg.n)))


def run_block(sim: SimConfig, point: int, frames: range, noise_var: float) -> np.ndarray:
    """The records of the block of ``frames``: the harness's transmit half,
    then its receive half, outside the harness's block loop."""
    return harness._receive_block(sim, *harness._transmit_block(sim, point, frames, noise_var))
