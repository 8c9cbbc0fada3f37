"""Monte Carlo link sweeps, metrics and result emission.

A :class:`SimConfig` fixes its receiver and refuses what its stages would
refuse when it is built (:func:`_receiver_design`); the sweep derives
neither again.

:func:`run_sweeps` runs each (configuration, SNR point) as one task, in
process or on one process pool; a task simulates its frames in blocks, as
(frames, N) arrays from the bit draws to the scores (:func:`_run_block`).
The tests hold a per-frame reference that runs one frame through the
public functions and an independent peak search and NMSE; every block row
equals it bit for bit.

Determinism contract: every frame draws its randomness from a Philox
generator keyed on the run seed and counted by (SNR point, frame index),
every step after the draws acts on a block's rows independently, and
per-point aggregation sums fixed-order per-frame records.  Results are
therefore byte-identical across runs, across worker counts, and across
task and block bounds.
"""
from __future__ import annotations

import json
import numbers
import os
import time
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass, field, fields
from functools import lru_cache
from typing import NamedTuple

import numpy as np

from .baseline import _baseline_link, baseline_budget
from .channel import ChannelSpec, ChannelTap, _channel, frequency_diagonal, snr_to_noise_var
from .core import BITS_PER_SYMBOL, Domain, _modulate, frame_draws
from .errors import ConfigError, SimulationError
from .framing import (Approach, FrameConfig, _frame_time, capacity_counts,
                      frame_energy_budget)
from .receiver import (ChannelEstimate, DetectionResult, ReceiverMode, _affine_tap_groups,
                       _detect, _equalize_planes, _ls_freq, _noise_ratio, _peak_zone,
                       _tap_mmse, _taps_nmse, estimate_nmse, perfect_estimate)
from .transforms import AffineParams, _daft, _dft
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

SE_CAP_DB = 30.0   # the cap of the SINR that measure_se measures


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
    baseline: bool = False
    noise_override: float | None = None  # fixed sigma^2 instead of SNR-derived
    design: ReceiverDesign = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        if self.frames_per_point < 1:
            raise ConfigError("frames_per_point must be >= 1")
        if self.workers < 1:
            raise ConfigError("workers must be >= 1")
        if not self.snr_grid_db:
            raise ConfigError("SNR grid must be nonempty")
        if self.estimator not in ESTIMATORS:
            raise ConfigError(f"unknown estimator {self.estimator!r}; "
                              f"expected one of {', '.join(ESTIMATORS)}")
        object.__setattr__(self, "taps", tuple(self.taps))
        object.__setattr__(self, "snr_grid_db", tuple(float(s) for s in self.snr_grid_db))
        object.__setattr__(self, "design", _receiver_design(self))


class ReceiverDesign(NamedTuple):
    """The estimator a :class:`SimConfig` runs ("auto" resolved), its bounds and its genie."""
    kind: str
    max_delay: int     # the channel's delay spread
    max_doppler: int   # its Doppler spread, clipped to the c1' - 1 the pilot-shift law resolves
    genie: ChannelEstimate | None   # what the baseline and perfect-* equalize every frame with
    genie_nmse: float   # perfect-*'s estimate NMSE, which the config fixes (0.0 for the rest)


def _receiver_design(sim: SimConfig) -> ReceiverDesign:
    """The :class:`ReceiverDesign` of ``sim``; refuses as :class:`ConfigError` what a
    stage it runs would refuse at every frame, by that stage's own check on an empty block
    (on one zero row for zero forcing, whose pivot tests read the channel alone)."""
    cfg, kind = sim.frame, sim.estimator
    try:
        spec = ChannelSpec(sim.taps, sim.noise_override or 0.0)
        if kind == "auto":
            kind = ("freq" if cfg.approach is Approach.CLEAN_PILOT and not spec.has_doppler
                    else "affine")
        max_delay, max_doppler = spec.max_delay, min(spec.max_doppler, cfg.affine.c1_prime - 1)
        _channel(np.zeros((0, cfg.n + cfg.cp_len), complex), spec.with_noise(0.0), None)
        genie, genie_nmse = None, 0.0
        if sim.baseline:   # it runs no estimator
            genie = ChannelEstimate(Domain.FREQUENCY, h_freq=frequency_diagonal(spec, cfg.n))
        elif kind == "freq":
            # its NMSE reference, the delay-only taps' response, is zero without one
            if all(t.k for t in spec.taps):
                raise ConfigError("the freq estimator needs a delay-only (k = 0) tap")
            _ls_freq(np.zeros((0, cfg.n), complex), cfg, max_delay)
        elif kind == "affine":
            # the affine estimator reads a pilot shift as k - c1' l with 0 <= k < c1'
            if any(t.k < 0 for t in spec.taps):
                raise ConfigError("the affine estimator cannot resolve negative-Doppler taps")
            _peak_zone(cfg, max_delay, max_doppler)
        else:
            genie = perfect_estimate(spec, cfg, Domain.FREQUENCY if kind == "perfect-freq"
                                     else Domain.AFFINE)
            genie_nmse = estimate_nmse(genie, spec, cfg.n)
        if genie is not None and sim.noise_override == 0:
            # zero forcing through an estimate the config fixes: every frame or none
            _equalize_planes(np.zeros((1, cfg.n), complex), genie, cfg, 0.0)
    except ConfigError:
        raise
    except SimulationError as exc:
        raise ConfigError(str(exc)) from exc
    return ReceiverDesign(kind, max_delay, max_doppler, genie, genie_nmse)


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
        return {c: getattr(self, c) for c in CSV_COLUMNS}


def measure_se(stream_stats, frames: int, n: int):
    """EVM-based spectral efficiency.

    ``stream_stats`` holds (error energy, resource-element count) per
    stream, accumulated over ``frames`` frames of unit-energy symbols.
    Each stream contributes count/frames REs at log2(1 + SINR) with its
    measured SINR capped at :data:`SE_CAP_DB`; pilot and guard carry
    nothing.  An array of error energies per stream (one per frame of a
    block) gives an array of SEs.
    """
    stats = [(err, count) for err, count in stream_stats if count]
    if not stats:
        return 0.0
    # one row per stream that carries resource elements
    err = np.array([err for err, _ in stats], dtype=np.float64)
    count, floor, weight = _se_counts(tuple(count for _, count in stats), frames, err.ndim)
    sinr = np.divide(count, err, out=np.full(err.shape, _SE_CAP), where=~(err <= floor))
    se = 0.0
    for term in weight * np.log2(1.0 + np.minimum(sinr, _SE_CAP)):
        se = se + term
    return se / n


_SE_CAP = 10.0 ** (SE_CAP_DB / 10.0)


@lru_cache(maxsize=64)
def _se_counts(counts: tuple[int, ...], frames: int, ndim: int):
    """The resource-element counts of :func:`measure_se`'s streams as a
    column for ``ndim``-dimensional error energies, the error energy below
    which each stream's SINR is capped, and each stream's REs per frame."""
    count = np.array(counts).reshape((-1,) + (1,) * (ndim - 1))
    out = (count, count / _SE_CAP, count / frames)
    for arr in out:
        arr.flags.writeable = False
    return out


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
    # a stream with no resource element has no error
    energies = tuple((np.abs(got - sent) ** 2).sum(axis=-1) if count else 0.0
                     for count, got, sent in zip(res, (det.common_syms, det.extra_syms,
                                                       det.private_syms),
                                                 (tx_common[..., :res[0]],
                                                  tx_common[..., res[0]:], tx_private)))
    ec = (det.common_bits != common_bits).sum(axis=-1)
    ep = (det.private_bits != private_bits).sum(axis=-1)
    se = measure_se(zip(energies, res), 1, sim.frame.n)
    ber = (ec + ep) / max(common_bits.shape[-1] + private_bits.shape[-1], 1)
    scores = (ec, ep, *energies, nmse, se, ber)
    out = np.empty(np.shape(ec) + (len(scores),))
    for i, score in enumerate(scores):
        out[..., i] = score
    return out


# Frames simulated together, as (frames, N) arrays of about this many samples
_BLOCK_SAMPLES = 4096


def _run_block(sim: SimConfig, point: int, frames: range, noise_var: float) -> np.ndarray:
    """The records of ``frames``, consecutive frame indices, simulated as
    (frames, N) arrays.

    Row i equals the per-frame reference (``tests/oracles.py``) for frame
    ``frames[i]`` bit for bit: each frame keeps its own Philox draws, and
    every other step acts on the rows independently.
    """
    cfg = sim.frame
    spec = _point_spec(sim.taps, noise_var)
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
        # even frames carry user 1's private stream, odd frames user 2's:
        # every other row, from the first odd frame
        odd = slice((frames.start + 1) % 2, None, 2)
        private = drawn[:, u1c:r1].copy()
        private[odd] = drawn[odd, r1 + u2c:]
        bits = np.concatenate([drawn[:, :u1c], drawn[:, r1:r1 + u2c]], axis=1), private
    syms = tuple(_modulate(b) for b in bits)

    if sim.baseline:
        det = _baseline_link(*syms, cfg, spec, sim.design.genie.h_freq, normals)
        return _score(sim, bits, syms, det, 0.0)
    received = _channel(_frame_time(*syms, cfg), spec, normals)[:, cfg.cp_len:]
    # only the affine estimator reads the affine plane
    planes = _dft(received), (_daft(received, cfg.affine) if sim.design.kind == "affine"
                              else None)
    eq_f, eq_a, nmse = _receive_block(sim, planes, spec, noise_var)
    return _score(sim, bits, syms, _detect(eq_f, eq_a, cfg, sim.mode), nmse)


@lru_cache(maxsize=64)
def _point_spec(taps: tuple[ChannelTap, ...], noise_var: float) -> ChannelSpec:
    """The channel of an SNR point, checked once per tap list and noise level."""
    return ChannelSpec(taps, noise_var)


def _receive_block(sim: SimConfig, planes: tuple[np.ndarray, np.ndarray | None],
                   spec: ChannelSpec, noise_var: float):
    """Estimate, equalize and score the estimate on (frames, N) planes, as
    ``sim.design`` fixes: the equalized (frequency, affine) planes and each
    frame's estimate NMSE.  The affine plane is None unless the design's
    estimator is ``affine``."""
    cfg, (kind, max_delay, max_doppler, genie, genie_nmse) = sim.frame, sim.design
    y_freq, y_aff = planes
    g = _noise_ratio(cfg, noise_var)
    if kind == "affine":
        # frames whose estimates hold the same taps form a group, scored
        # group by group; one equalizer call serves every group, with one
        # FFT pair for the collinear groups, one cyclic reduction per block
        # size and one change to the affine plane
        est = _affine_tap_groups(y_aff, cfg, max_delay, max_doppler, noise_var)
        return (*_tap_mmse(y_freq, est.groups, cfg.affine, g), _taps_nmse(est, spec, cfg.n))
    if genie is not None:
        return (*_equalize_planes(y_freq, genie, cfg, g), genie_nmse)
    est = ChannelEstimate(Domain.FREQUENCY, h_freq=_ls_freq(y_freq, cfg, max_delay))
    return (*_equalize_planes(y_freq, est, cfg, g), estimate_nmse(est, spec, cfg.n))


def _point_noise_var(sim: SimConfig, snr_db: float) -> float:
    """Channel noise variance of an SNR point."""
    if sim.noise_override is not None:
        return sim.noise_override
    budget = baseline_budget(sim.frame) if sim.baseline else frame_energy_budget(sim.frame)
    return snr_to_noise_var(snr_db, budget / sim.frame.n)


def _run_task(task) -> tuple[np.ndarray | str, float]:
    """Frame range ``cut`` of ``cuts`` of SNR point ``point``, in blocks of
    ``_BLOCK_SAMPLES // N`` frames: its records as a C-ordered (frames, fields)
    array, or the reason the point aborted; and the compute seconds."""
    sim, point, cut, cuts = task
    t0 = time.perf_counter()
    start, stop = sim.frames_per_point * cut // cuts, sim.frames_per_point * (cut + 1) // cuts
    noise_var = _point_noise_var(sim, sim.snr_grid_db[point])
    step = max(1, _BLOCK_SAMPLES // sim.frame.n)
    try:
        out = np.concatenate([_run_block(sim, point, range(a, min(a + step, stop)), noise_var)
                              for a in range(start, stop, step)])
    except (SimulationError, np.linalg.LinAlgError) as exc:
        out = f"{type(exc).__name__}: {exc}"
    return out, time.perf_counter() - t0


def _point_result(sim: SimConfig, point: int, outputs) -> LinkResult:
    """The :class:`LinkResult` of SNR point ``point`` from the outputs of its
    tasks in frame order; a task that aborted makes it a diagnostic row."""
    snr_db, wall = sim.snr_grid_db[point], sum(seconds for _, seconds in outputs)
    failed = [out for out, _ in outputs if isinstance(out, str)]
    if failed:
        return LinkResult(snr_db, *[float("nan")] * 5, 0, wall_time=wall, diagnostics=failed[0])
    # a C-ordered (frames, fields) array summed over axis 0 adds each field
    # in frame order, which keeps the sums independent of the task and
    # block bounds
    rows = np.concatenate([out for out, _ in outputs])
    frames = len(rows)
    total = _FrameRecord(*rows.sum(axis=0))
    per_frame = _FrameRecord(*rows.T)
    res = _stream_res(sim)
    bc = frames * (res[0] + res[1]) * BITS_PER_SYMBOL
    bp = frames * res[2] * BITS_PER_SYMBOL
    ec, ep = total.common_errors, total.private_errors
    energies = (total.common_err_energy, total.extra_err_energy, total.private_err_energy)
    se = measure_se([(e, frames * r) for e, r in zip(energies, res)], frames, sim.frame.n)
    return LinkResult(
        snr_db=snr_db,
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


def run_point(sim: SimConfig, point: int) -> LinkResult:
    """SNR point ``point`` of ``sim`` as one task in this process."""
    return _point_result(sim, point, [_run_task((sim, point, 0, 1))])


def run_sweeps(sims) -> list[list[LinkResult]]:
    """One LinkResult per SNR point of each configuration (a diagnostic row
    if it raises), in this process at one worker, else on one process pool of
    the largest ``workers``; points are cut only if fewer than the workers."""
    workers = max((sim.workers for sim in sims), default=1)
    if workers <= 1:
        return [[run_point(sim, p) for p in range(len(sim.snr_grid_db))] for sim in sims]
    points = [(sim, p) for sim in sims for p in range(len(sim.snr_grid_db))]
    # no frame range may be empty
    cuts = (min(workers, *(sim.frames_per_point for sim in sims)) if len(points) < workers
            else 1)
    with ProcessPoolExecutor(max_workers=workers) as pool:
        outputs = iter(pool.map(_run_task, [(sim, p, cut, cuts) for sim, p in points
                                            for cut in range(cuts)]))
        results = iter([_point_result(sim, p, [next(outputs) for _ in range(cuts)])
                        for sim, p in points])
    return [[next(results) for _ in sim.snr_grid_db] for sim in sims]


def run_sweep(sim: SimConfig) -> list[LinkResult]:
    """:func:`run_sweeps` of one configuration."""
    return run_sweeps([sim])[0]


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


# the formats emit_results writes, matched case-insensitively
OUTPUT_FORMATS = ("csv", "json")


def _output_format(fmt: str) -> str:
    """``fmt`` in lower case; one that :func:`emit_results` cannot write is refused."""
    fmt = fmt.lower()
    if fmt not in OUTPUT_FORMATS:
        raise ConfigError(f"unknown output format {fmt!r}")
    return fmt


def emit_results(results, fmt: str, path) -> None:
    """Write per-point results in one of :data:`OUTPUT_FORMATS`; CSV columns
    are fixed and floats carry 10 significant digits."""
    if _output_format(fmt) == "csv":
        text = render_csv(results)
    else:
        text = json.dumps([r.row() for r in results], indent=2) + "\n"
    try:
        with open(path, "w", encoding="utf-8") as f:
            f.write(text)
    except OSError as exc:
        raise IOError(f"cannot write results to {path}: {exc}") from exc


DEFAULT_TAPS = [[1.0, 0.0, 0, 0]]   # a config without "taps": [re(h), im(h), delay, Doppler]


def _integer(value) -> int:
    """A JSON integer: an integer, or a number with no fractional part; a
    bool, a string or a fraction is refused."""
    if isinstance(value, numbers.Integral) and not isinstance(value, bool):
        return int(value)
    if isinstance(value, float) and value.is_integer():
        return int(value)
    raise ConfigError(f"expected an integer, got {value!r}")


def _boolean(value) -> bool:
    """A JSON true or false; anything else is refused."""
    if not isinstance(value, bool):
        raise ConfigError(f"expected true or false, got {value!r}")
    return value


def _taps(rows) -> tuple[ChannelTap, ...]:
    return tuple(ChannelTap(complex(re, im), _integer(l), _integer(k)) for re, im, l, k in rows)


def _optional(convert):
    return lambda value: None if value is None else convert(value)


# the keys of each part of a JSON config: key -> (the field it sets, its
# conversion); a missing key leaves the field's dataclass default
_CONFIG_PARTS = {
    "frame": {   # n, c1_prime and c2 set AffineParams, the others FrameConfig
        "n": ("n", _integer), "c1_prime": ("c1_prime", _integer), "c2": ("c2", float),
        "guard": ("guard", _integer), "phi1": ("phi1", float), "phi2": ("phi2", float),
        "pilot_power_db": ("phi_pilot", lambda db: 10.0 ** (float(db) / 10.0)),
        "approach": ("approach", lambda a: Approach(_integer(a))),
        "cp_len": ("cp_len", _integer),
        "common_per_class": ("common_per_class", _optional(_integer)),
    },
    "channel": {   # normalize scales the taps; the others set SimConfig
        "taps": ("taps", _taps), "normalize": ("normalize", _boolean),
        "noise_var": ("noise_override", _optional(float)),
    },
    "sweep": {   # SimConfig
        "snr_db": ("snr_grid_db", tuple), "frames_per_point": ("frames_per_point", _integer),
        "mode": ("mode", ReceiverMode), "estimator": ("estimator", str),
        "seed": ("seed", _integer), "workers": ("workers", _integer),
        "baseline": ("baseline", _boolean),
    },
    "output": {"path": ("path", os.fspath), "format": ("format", _output_format)},
}

# keys read when missing, as their fields have no default, or another name or unit
_READER_DEFAULTS = {
    "frame": {"pilot_power_db": 10.0},
    "channel": {"taps": DEFAULT_TAPS, "normalize": False},
    "sweep": {"snr_db": [0, 5, 10, 15, 20, 25]},
}


def _read_part(d: dict, part: str) -> dict:
    """The fields that the keys of config part ``part`` set; a key outside its
    table is refused, and so is a value its conversion refuses (a bool key
    takes only true or false, an integer key only an integral number)."""
    keys, given = _CONFIG_PARTS[part], {**_READER_DEFAULTS.get(part, {}), **d.get(part, {})}
    fields_set = {}
    for key, value in given.items():
        if key not in keys:
            raise ConfigError(f"unknown config key {part}.{key}")
        name, convert = keys[key]
        try:
            fields_set[name] = convert(value)
        except ConfigError as exc:
            raise ConfigError(f"config key {part}.{key}: {exc}") from exc
    return fields_set


def sim_config_from_dict(d: dict) -> SimConfig:
    """The :class:`SimConfig` of a JSON config, read by the tables of
    ``_CONFIG_PARTS``; a key that nothing reads and an ``output`` that
    :func:`emit_results` cannot write are refused."""
    try:
        for part in d:
            if part not in _CONFIG_PARTS:
                raise ConfigError(f"unknown config key {part}")
        frame, channel, sweep, _ = (_read_part(d, part) for part in _CONFIG_PARTS)
        affine = AffineParams(**{f.name: frame.pop(f.name) for f in fields(AffineParams)
                                 if f.name in frame})
        taps = channel.pop("taps")
        if channel.pop("normalize"):
            taps = ChannelSpec(taps, normalize=True).taps
        return SimConfig(frame=FrameConfig(affine=affine, **frame), taps=taps, **channel,
                         **sweep)
    except ConfigError:
        raise
    except (AttributeError, ValueError, TypeError) as exc:
        raise ConfigError(f"bad simulation config: {exc}") from exc


def load_config(path) -> dict:
    """The JSON config at ``path``, for :func:`sim_config_from_dict`."""
    try:
        with open(path, "r", encoding="utf-8") as f:
            return json.load(f)
    except (OSError, json.JSONDecodeError) as exc:
        raise ConfigError(f"cannot load config {path}: {exc}") from exc
