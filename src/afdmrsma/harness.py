"""Monte Carlo link sweeps, metrics and result emission.

A :class:`SimConfig` fixes its receiver and refuses what its stages would
refuse when it is built (:func:`_receiver_design`); the sweep derives
neither again.

Each worker simulates its share of an SNR point's frames in blocks, as
(frames, N) arrays from the bit draws to the scores (:func:`_run_block`).
The tests hold a per-frame reference that runs one frame through the
public functions and an independent peak search and NMSE; every block row
equals it bit for bit.

Determinism contract: every frame draws its randomness from a Philox
generator keyed on the run seed and counted by (SNR point, frame index),
every step after the draws acts on a block's rows independently, and
per-point aggregation sums fixed-order per-frame records.  Results are
therefore byte-identical across runs, across worker counts and across
block boundaries.
"""
from __future__ import annotations

import json
import time
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass, field
from typing import NamedTuple

import numpy as np

from .baseline import _baseline_link, baseline_budget
from .channel import ChannelSpec, ChannelTap, _channel, snr_to_noise_var
from .core import BITS_PER_SYMBOL, Domain, _modulate, frame_draws
from .errors import ConfigError, SimulationError
from .framing import (Approach, FrameConfig, _frame_time, _planes, capacity_counts,
                      frame_energy_budget)
from .receiver import (ChannelEstimate, DetectionResult, ReceiverMode, _affine_tap_groups,
                       _detect, _equalize_planes, _ls_freq, _noise_ratio, _peak_zone,
                       _tap_mmse, _taps_nmse, estimate_nmse, perfect_estimate)
from .transforms import AffineParams
# not called here; kept as attributes because linkbench/spans.py patches them
from .baseline import run_baseline_frame  # noqa: F401
from .channel import apply_channel  # noqa: F401
from .core import frame_rng, modulate_bits, random_bits  # noqa: F401
from .framing import (build_frame, extract_received_planes, required_bits_per_user,  # noqa: F401
                      split_messages)
from .receiver import detect_streams, estimate_channel_affine, estimate_channel_freq  # noqa: F401

ESTIMATORS = ("auto", "freq", "affine", "perfect-freq", "perfect-affine")

CSV_COLUMNS = ("snr_db", "ber_common", "ber_private", "ber_total", "se",
               "channel_nmse", "frames")


@dataclass(frozen=True)
class SimConfig:
    frame: FrameConfig
    taps: tuple[ChannelTap, ...]
    snr_grid_db: tuple[float, ...]
    frames_per_point: int = 100
    mode: ReceiverMode = ReceiverMode.SIC_FREE
    estimator: str = "auto"   # one of ESTIMATORS
    seed: int = 1
    workers: int = 1
    se_cap_db: float = 30.0
    baseline: bool = False
    noise_override: float | None = None  # fixed sigma^2 instead of SNR-derived
    design: ReceiverDesign = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        if self.frames_per_point < 1:
            raise ConfigError("frames_per_point must be >= 1")
        if not self.snr_grid_db:
            raise ConfigError("SNR grid must be nonempty")
        if self.estimator not in ESTIMATORS:
            raise ConfigError(f"unknown estimator {self.estimator!r}; "
                              f"expected one of {', '.join(ESTIMATORS)}")
        object.__setattr__(self, "taps", tuple(self.taps))
        object.__setattr__(self, "snr_grid_db", tuple(float(s) for s in self.snr_grid_db))
        object.__setattr__(self, "design", _receiver_design(self))


class ReceiverDesign(NamedTuple):
    """The estimator a :class:`SimConfig` runs ("auto" resolved) and its bounds."""
    kind: str
    max_delay: int     # the channel's delay spread
    max_doppler: int   # its Doppler spread, clipped to the c1' - 1 the pilot-shift law resolves


def _receiver_design(sim: SimConfig) -> ReceiverDesign:
    """The :class:`ReceiverDesign` of ``sim``; refuses as :class:`ConfigError` what a
    stage it runs would refuse at every frame, by that stage's own check on an empty block."""
    cfg, kind = sim.frame, sim.estimator
    try:
        spec = ChannelSpec(sim.taps, sim.noise_override or 0.0)
        if kind == "auto":
            kind = ("freq" if cfg.approach is Approach.CLEAN_PILOT and not spec.has_doppler
                    else "affine")
        design = ReceiverDesign(kind, spec.max_delay,
                                min(spec.max_doppler, cfg.affine.c1_prime - 1))
        _channel(np.zeros((0, cfg.n + cfg.cp_len), complex), spec.with_noise(0.0), None)
        if sim.baseline:   # it runs no estimator
            return design
        if kind == "freq":
            # its NMSE reference, the delay-only taps' response, is zero without one
            if all(t.k for t in spec.taps):
                raise ConfigError("the freq estimator needs a delay-only (k = 0) tap")
            _ls_freq(np.zeros((0, cfg.n), complex), cfg, design.max_delay)
        elif kind == "affine":
            # the affine estimator reads a pilot shift as k - c1' l with 0 <= k < c1'
            if any(t.k < 0 for t in spec.taps):
                raise ConfigError("the affine estimator cannot resolve negative-Doppler taps")
            _peak_zone(cfg, design.max_delay, design.max_doppler)
        elif kind == "perfect-freq":
            perfect_estimate(spec, cfg, Domain.FREQUENCY)
    except ConfigError:
        raise
    except SimulationError as exc:
        raise ConfigError(str(exc)) from exc
    return design


@dataclass(frozen=True)
class LinkResult:
    snr_db: float
    ber_common: float
    ber_private: float
    ber_total: float
    se: float
    channel_nmse: float
    frames: int
    wall_time: float = 0.0
    se_stderr: float = 0.0
    ber_total_stderr: float = 0.0
    diagnostics: str = ""

    def row(self) -> dict:
        return {
            "snr_db": self.snr_db, "ber_common": self.ber_common,
            "ber_private": self.ber_private, "ber_total": self.ber_total,
            "se": self.se, "channel_nmse": self.channel_nmse,
            "frames": self.frames,
        }


def measure_se(stream_stats, frames: int, n: int, cap_db: float = 30.0):
    """EVM-based spectral efficiency.

    ``stream_stats`` holds (error energy, resource-element count) per
    stream, accumulated over ``frames`` frames of unit-energy symbols.
    Each stream contributes count/frames REs at log2(1 + SINR) with its
    measured SINR capped at ``cap_db``; pilot and guard carry nothing.
    An array of error energies per stream (one per frame of a block) gives
    an array of SEs.
    """
    cap = 10.0 ** (cap_db / 10.0)
    se = 0.0
    for err_energy, count in stream_stats:
        if count == 0:
            continue
        err = np.asarray(err_energy, dtype=np.float64)
        sinr = np.divide(count, err, out=np.full(err.shape, cap), where=~(err <= count / cap))
        se = se + (count / frames) * np.log2(1.0 + np.minimum(sinr, cap))
    return se / n


class _FrameRecord(NamedTuple):
    """Scores of one simulated frame.  The per-frame bit and resource-element
    counts are fixed by the configuration (see :func:`_stream_res`)."""

    common_errors: int
    private_errors: int
    common_err_energy: float
    extra_err_energy: float
    private_err_energy: float
    nmse: float
    se: float
    ber: float


def _stream_res(sim: SimConfig) -> tuple[int, int, int]:
    """Resource elements per frame of the common, extra and private streams."""
    if sim.baseline:
        return sim.frame.n, 0, sim.frame.n   # both streams on every subcarrier
    c = capacity_counts(sim.frame)
    return c.n_common, c.n_extra, c.n_private


def _score(sim: SimConfig, bits: tuple, syms: tuple, det: DetectionResult,
           nmse) -> np.ndarray:
    """Score frames against the (common, private) bits and symbols they
    sent: the :class:`_FrameRecord` fields along the last axis, with one row
    per frame of a block."""
    res = _stream_res(sim)
    (common_bits, private_bits), (tx_common, tx_private) = bits, syms
    energies = (np.sum(np.abs(det.common_syms - tx_common[..., :res[0]]) ** 2, axis=-1),
                np.sum(np.abs(det.extra_syms - tx_common[..., res[0]:]) ** 2, axis=-1),
                np.sum(np.abs(det.private_syms - tx_private) ** 2, axis=-1))
    ec = np.sum(det.common_bits != common_bits, axis=-1)
    ep = np.sum(det.private_bits != private_bits, axis=-1)
    se = measure_se(zip(energies, res), 1, sim.frame.n, sim.se_cap_db)
    ber = (ec + ep) / max(common_bits.shape[-1] + private_bits.shape[-1], 1)
    fields = np.broadcast_arrays(ec, ep, *energies, nmse, se, ber)
    return np.stack(fields, axis=-1).astype(np.float64)


# Frames simulated together, as (frames, N) arrays of about this many samples
_BLOCK_SAMPLES = 4096


def _run_chunk(args) -> np.ndarray:
    """Records of frames [start, stop) of one SNR point as a C-ordered
    (frames, fields) array, simulated in blocks of ``_BLOCK_SAMPLES // N``
    frames."""
    sim, point, start, stop, noise_var = args
    step = max(1, _BLOCK_SAMPLES // sim.frame.n)
    return np.concatenate([_run_block(sim, point, range(a, min(a + step, stop)), noise_var)
                           for a in range(start, stop, step)])


def _run_block(sim: SimConfig, point: int, frames: range, noise_var: float) -> np.ndarray:
    """The records of ``frames``, simulated as (frames, N) arrays.

    Row i equals the per-frame reference (``tests/oracles.py``) for frame
    ``frames[i]`` bit for bit: each frame keeps its own Philox draws, and
    every other step acts on the rows independently.
    """
    cfg = sim.frame
    spec = ChannelSpec(sim.taps, noise_var)
    if sim.baseline:
        n_bits = 2 * cfg.n * BITS_PER_SYMBOL
    else:
        (r1, r2), (u1c, u2c) = cfg.layout.bits_per_user, cfg.layout.common_split
        n_bits = r1 + r2
    drawn, normals = frame_draws(sim.seed, point, frames, n_bits,
                                 2 * (cfg.n + cfg.cp_len) if noise_var > 0 else 0)
    if sim.baseline:
        bits = drawn[:, :n_bits // 2], drawn[:, n_bits // 2:]
    else:
        # even frames carry user 1's private stream, odd frames user 2's
        odd = (np.array(frames) % 2 == 1)[:, None]
        bits = (np.concatenate([drawn[:, :u1c], drawn[:, r1:r1 + u2c]], axis=1),
                np.where(odd, drawn[:, r1 + u2c:], drawn[:, u1c:r1]))
    syms = tuple(_modulate(b) for b in bits)

    if sim.baseline:
        return _score(sim, bits, syms, _baseline_link(*syms, cfg, spec, normals), 0.0)
    received = _channel(_frame_time(*syms, cfg), spec, normals)[:, cfg.cp_len:]
    eq_f, eq_a, nmse = _receive_block(sim, _planes(received, cfg), spec, noise_var)
    return _score(sim, bits, syms, _detect(eq_f, eq_a, cfg, sim.mode), nmse)


def _receive_block(sim: SimConfig, planes: tuple[np.ndarray, np.ndarray], spec: ChannelSpec,
                   noise_var: float):
    """Estimate, equalize and score the estimate on (frames, N) planes, as
    ``sim.design`` fixes: the equalized (frequency, affine) planes and each
    frame's estimate NMSE."""
    cfg, (kind, max_delay, max_doppler) = sim.frame, sim.design
    y_freq, y_aff = planes
    g = _noise_ratio(cfg, noise_var)
    if kind == "affine":
        # frames whose estimates hold the same taps form a group, scored
        # group by group; one equalizer call serves every group, with one
        # domain change per domain and one cyclic reduction per block size
        groups = list(_affine_tap_groups(y_aff, cfg, max_delay, max_doppler, noise_var))
        nmse = np.empty(len(y_aff))
        for rows, ls, ks, hs in groups:
            nmse[rows] = _taps_nmse(ls, ks, hs, spec, cfg.n)
        return (*_tap_mmse(y_freq, y_aff, groups, cfg.affine, g), nmse)
    if kind == "freq":
        est = ChannelEstimate(Domain.FREQUENCY, h_freq=_ls_freq(y_freq, cfg, max_delay))
    else:
        # a genie estimate, the same for every frame
        est = perfect_estimate(spec, cfg, Domain.FREQUENCY if kind == "perfect-freq"
                               else Domain.AFFINE)
    return (*_equalize_planes(y_freq, y_aff, est, cfg, g), estimate_nmse(est, spec, cfg.n))


def _point_noise_var(sim: SimConfig, snr_db: float) -> float:
    """Channel noise variance of an SNR point."""
    if sim.noise_override is not None:
        return sim.noise_override
    budget = baseline_budget(sim.frame) if sim.baseline else frame_energy_budget(sim.frame)
    return snr_to_noise_var(snr_db, budget / sim.frame.n)


def run_point(sim: SimConfig, point: int, snr_db: float,
              pool: ProcessPoolExecutor | None = None) -> LinkResult:
    cfg = sim.frame
    noise_var = _point_noise_var(sim, snr_db)

    t0 = time.perf_counter()
    frames = sim.frames_per_point
    if pool is None or sim.workers <= 1:
        rows = _run_chunk((sim, point, 0, frames, noise_var))
    else:
        bounds = np.linspace(0, frames, sim.workers + 1).astype(int)
        tasks = [(sim, point, int(a), int(b), noise_var)
                 for a, b in zip(bounds[:-1], bounds[1:]) if b > a]
        rows = np.concatenate(list(pool.map(_run_chunk, tasks)))
    wall = time.perf_counter() - t0

    # a C-ordered (frames, fields) array summed over axis 0 adds each field
    # in frame order, which keeps the sums independent of the worker count
    # and of the block bounds
    total = _FrameRecord(*rows.sum(axis=0))
    per_frame = _FrameRecord(*rows.T)
    res = _stream_res(sim)
    bc = frames * (res[0] + res[1]) * BITS_PER_SYMBOL
    bp = frames * res[2] * BITS_PER_SYMBOL
    ec, ep = total.common_errors, total.private_errors
    energies = (total.common_err_energy, total.extra_err_energy, total.private_err_energy)
    se = measure_se([(e, frames * r) for e, r in zip(energies, res)], frames, cfg.n,
                    sim.se_cap_db)
    return LinkResult(
        snr_db=float(snr_db),
        ber_common=float(ec / bc) if bc else 0.0,
        ber_private=float(ep / bp) if bp else 0.0,
        ber_total=float((ec + ep) / (bc + bp)) if (bc + bp) else 0.0,
        se=float(se),
        channel_nmse=float(total.nmse / frames),
        frames=frames,
        wall_time=wall,
        se_stderr=float(np.std(per_frame.se) / np.sqrt(frames)),
        ber_total_stderr=float(np.std(per_frame.ber) / np.sqrt(frames)),
    )


def run_sweep(sim: SimConfig) -> list[LinkResult]:
    """One LinkResult per SNR point; a point that raises is recorded as a
    diagnostic row instead of aborting the sweep."""
    results = []
    pool = None
    try:
        if sim.workers > 1:
            pool = ProcessPoolExecutor(max_workers=sim.workers)
        for point, snr in enumerate(sim.snr_grid_db):
            try:
                results.append(run_point(sim, point, snr, pool))
            except (SimulationError, np.linalg.LinAlgError) as exc:
                results.append(LinkResult(float(snr), float("nan"), float("nan"),
                                          float("nan"), float("nan"), float("nan"),
                                          0, diagnostics=f"{type(exc).__name__}: {exc}"))
    finally:
        if pool is not None:
            pool.shutdown()
    return results


def _fmt(x) -> str:
    if isinstance(x, (int, np.integer)):
        return str(int(x))
    return f"{float(x):.10g}"


def render_csv(results, extra_key: str | None = None) -> str:
    cols = ((extra_key,) if extra_key else ()) + CSV_COLUMNS
    lines = [",".join(cols)]
    for item in results:
        if extra_key:
            label, res = item
            lines.append(",".join([str(label)] + [_fmt(res.row()[c]) for c in CSV_COLUMNS]))
        else:
            lines.append(",".join(_fmt(item.row()[c]) for c in CSV_COLUMNS))
    return "\n".join(lines) + "\n"


def emit_results(results, fmt: str, path) -> None:
    """Write per-point results; CSV columns are fixed and floats carry 10
    significant digits."""
    fmt = fmt.lower()
    if fmt == "csv":
        text = render_csv(results)
    elif fmt == "json":
        text = json.dumps([r.row() for r in results], indent=2) + "\n"
    else:
        raise ConfigError(f"unknown output format {fmt!r}")
    try:
        with open(path, "w", encoding="utf-8") as f:
            f.write(text)
    except OSError as exc:
        raise IOError(f"cannot write results to {path}: {exc}") from exc


def frame_config_from_dict(d: dict) -> FrameConfig:
    try:
        affine = AffineParams(int(d["n"]), int(d["c1_prime"]), float(d.get("c2", 0.0)))
        if "phi_pilot" in d:
            pilot = float(d["phi_pilot"])
        else:
            pilot = 10.0 ** (float(d.get("pilot_power_db", 10.0)) / 10.0)
        cpc = d.get("common_per_class")
        return FrameConfig(
            affine=affine, guard=int(d["guard"]), phi_pilot=pilot,
            phi1=float(d["phi1"]), phi2=float(d["phi2"]),
            approach=Approach(int(d.get("approach", 1))),
            cp_len=int(d.get("cp_len", 0)),
            common_per_class=None if cpc is None else int(cpc),
        )
    except (KeyError, ValueError, TypeError) as exc:
        raise ConfigError(f"bad frame config: {exc}") from exc


def sim_config_from_dict(d: dict) -> SimConfig:
    try:
        frame = frame_config_from_dict(d["frame"])
        ch = d.get("channel", {})
        taps = tuple(ChannelTap(complex(re, im), int(l), int(k))
                     for re, im, l, k in ch.get("taps", [[1.0, 0.0, 0, 0]]))
        if ch.get("normalize", False):
            taps = ChannelSpec(taps, normalize=True).taps
        sw = d.get("sweep", {})
        mode = ReceiverMode(sw.get("mode", "sicfree"))
        # a noiseless sweep takes precedence over channel.noise_var
        nv = 0.0 if sw.get("zero_noise", False) else ch.get("noise_var")
        return SimConfig(
            frame=frame, taps=taps,
            snr_grid_db=tuple(sw.get("snr_db", [0, 5, 10, 15, 20, 25])),
            frames_per_point=int(sw.get("frames_per_point", 100)),
            mode=mode, estimator=sw.get("estimator", "auto"),
            seed=int(sw.get("seed", 1)), workers=int(sw.get("workers", 1)),
            se_cap_db=float(sw.get("se_cap_db", 30.0)),
            baseline=bool(sw.get("baseline", False)),
            noise_override=None if nv is None else float(nv),
        )
    except ConfigError:
        raise
    except (KeyError, ValueError, TypeError) as exc:
        raise ConfigError(f"bad simulation config: {exc}") from exc


def load_config(path) -> tuple[SimConfig, dict]:
    try:
        with open(path, "r", encoding="utf-8") as f:
            raw = json.load(f)
    except (OSError, json.JSONDecodeError) as exc:
        raise ConfigError(f"cannot load config {path}: {exc}") from exc
    return sim_config_from_dict(raw), raw.get("output", {})
