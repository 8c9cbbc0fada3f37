"""Monte Carlo link sweeps, metrics and result emission.

A :class:`SimConfig` fixes its receiver, with the search table of its
estimator (``receiver.ReceiverDesign``), and refuses what its stages would
refuse when it is built; the sweep derives neither again.  Only this
module reads the true channel, apart from the receiver's genies: it picks
the estimator, hands over its bounds and scores its estimates.

:func:`run_sweeps` simulates each (configuration, SNR point) in blocks of
frames, as (frames, N) arrays from the bit draws to the scores, each block
a transmit half (:func:`_transmit_block`) and a receive half
(:func:`_receive_block`).  One loop, :func:`_run_blocks`, walks the blocks
of every caller and sends each one a block ahead of its receive: at one
worker on a helper thread, so that the next block's transmit overlaps this
one's receive on a second core; in a pool task and in :func:`run_point` on
the calling thread, only as the block is received, as the pool already
fills the cores (a helper per pool task made a two-worker run 9.5 % slower).
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

import ctypes
import json
import math
import numbers
import os
import time
from concurrent.futures import ProcessPoolExecutor, ThreadPoolExecutor
from dataclasses import dataclass, field, fields
from functools import partial
from typing import NamedTuple

import numpy as np

from .baseline import _baseline_detect, _baseline_time, baseline_budget
from .channel import ChannelSpec, ChannelTap, _channel, frequency_diagonal, snr_to_noise_var
from .core import BITS_PER_SYMBOL, Domain, _modulate, frame_draws
from .errors import ConfigError, SimulationError, _refuse_non_integers, _refuse_non_numbers
from .framing import (Approach, FrameConfig, _frame_time, capacity_counts,
                      frame_energy_budget)
from .receiver import (DetectionResult, ReceiverDesign, ReceiverMode, _detect, _receive,
                       _receiver_design, _tap_group)
from .transforms import AffineParams
# not called here; kept as attributes because linkbench/spans.py patches them
from .baseline import run_baseline_frame  # noqa: F401
from .channel import apply_channel  # noqa: F401
from .core import frame_rng, modulate_bits, random_bits  # noqa: F401
from .framing import (build_frame, extract_received_planes, required_bits_per_user,  # noqa: F401
                      split_messages)
from .receiver import (detect_streams, estimate_channel_affine,  # noqa: F401
                       estimate_channel_freq)

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
        _refuse_non_integers(ConfigError, frames_per_point=self.frames_per_point, seed=self.seed,
                             workers=self.workers)
        if self.noise_override is not None:
            _refuse_non_numbers(ConfigError, noise_override=self.noise_override)
        if not 0 <= self.seed < 1 << 64:
            raise ConfigError(f"seed must be in [0, 2**64), got {self.seed}")
        if self.frames_per_point < 1:
            raise ConfigError("frames_per_point must be >= 1")
        if self.workers < 1:
            raise ConfigError("workers must be >= 1")
        if not self.snr_grid_db:
            raise ConfigError("SNR grid must be nonempty")
        if not isinstance(self.mode, ReceiverMode):
            raise ConfigError(f"mode must be a ReceiverMode, got {self.mode!r}")
        if not isinstance(self.baseline, bool):
            raise ConfigError(f"baseline must be a bool, got {self.baseline!r}")
        if self.estimator not in ESTIMATORS:
            raise ConfigError(f"unknown estimator {self.estimator!r}; "
                              f"expected one of {', '.join(ESTIMATORS)}")
        object.__setattr__(self, "taps", tuple(self.taps))
        grid = tuple(self.snr_grid_db)
        _refuse_non_numbers(ConfigError, **{f"snr_grid_db[{i}]": s for i, s in enumerate(grid)})
        object.__setattr__(self, "snr_grid_db", tuple(float(s) for s in grid))
        if not all(math.isfinite(s) for s in self.snr_grid_db):
            raise ConfigError(f"SNR grid must hold finite numbers, got {self.snr_grid_db}")
        if self.noise_override is None:
            for point, snr_db in enumerate(self.snr_grid_db):
                try:
                    noise_var = _point_noise_var(self, snr_db)
                except (OverflowError, ZeroDivisionError):
                    noise_var = math.nan
                if not 0 < noise_var < math.inf:
                    raise ConfigError(f"SNR point {point} at {snr_db:g} dB has no positive "
                                      f"finite noise variance")
        # what a stage would refuse at every frame, by its own check: the
        # channel's on an empty block, then the estimator's, on the true
        # taps here and on its bounds as the receiver makes its design
        cfg = self.frame
        try:
            spec = ChannelSpec(self.taps, self.noise_override or 0.0)
            _channel(np.zeros((0, cfg.n + cfg.cp_len), complex), spec.with_noise(0.0), None)
            # a delay of N or more wraps onto another on the N-sample window
            for i, tap in enumerate(self.taps):
                if tap.l >= cfg.n:
                    raise ConfigError(f"tap {i} at delay {tap.l} aliases: delays must be "
                                      f"< N = {cfg.n}")
            # "auto" is freq on clean-pilot frames over a channel declared Doppler-free
            kind = "baseline" if self.baseline else self.estimator
            if kind == "auto":
                kind = ("freq" if cfg.approach is Approach.CLEAN_PILOT and not spec.has_doppler
                        else "affine")
            # freq's NMSE reference, the delay-only taps' response, is zero
            # without one; affine reads a pilot shift as k - c1' l, 0 <= k < c1'
            if kind == "freq" and all(t.k for t in spec.taps):
                raise ConfigError("the freq estimator needs a delay-only (k = 0) tap")
            if kind == "affine" and any(t.k < 0 for t in spec.taps):
                raise ConfigError("the affine estimator cannot resolve negative-Doppler taps")
            # the true spreads still tell the receiver where the taps are;
            # bounds read off the frame would replace these two arguments
            object.__setattr__(self, "design", _receiver_design(
                cfg, kind, spec.max_delay, min(spec.max_doppler, cfg.affine.c1_prime - 1),
                spec, self.noise_override == 0))
        except ConfigError:
            raise
        except SimulationError as exc:
            raise ConfigError(str(exc)) from exc


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
    count = np.array([count for _, count in stats]).reshape((-1,) + (1,) * (err.ndim - 1))
    sinr = np.divide(count, err, out=np.full(err.shape, _SE_CAP), where=~(err <= count / _SE_CAP))
    # summed stream by stream in order, as a loop over the rows adds them
    return (count / frames * np.log2(1.0 + np.minimum(sinr, _SE_CAP))).sum(axis=0) / n


_SE_CAP = 10.0 ** (SE_CAP_DB / 10.0)


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


def estimate_nmse(est, true_spec: ChannelSpec, n: int) -> float:
    """Diagnostic error of a channel estimate (``receiver.ChannelEstimate``).

    A response, or a (frames, N) block of them, compares against the
    diagonal of the true frequency-domain channel: H(m) on a delay-only
    channel, the delay-only taps' response under Doppler (the off-diagonal
    ICI is invisible to a one-tap model).  A tap list, delay-only or not,
    compares tap by tap (:func:`_taps_nmse` on one row); on a delay-only
    list and channel this equals its response's error by Parseval, up to
    rounding.
    """
    if est.domain is Domain.FREQUENCY:
        return _block_nmse(est.h_freq, true_spec, n)
    return float(_block_nmse([_tap_group(est.taps, 1)], true_spec, n)[0])


def _block_nmse(estimate, spec: ChannelSpec, n: int):
    """:func:`estimate_nmse` of each frame of a block, from the estimate
    ``receiver._receive`` hands back; a genie's (None) is not scored."""
    if estimate is None:
        return 0.0
    if isinstance(estimate, np.ndarray):
        return _response_nmse(estimate, frequency_diagonal(spec, n))
    return _taps_nmse(estimate, spec)


def _response_nmse(h_est: np.ndarray, h: np.ndarray) -> np.ndarray:
    """Squared error of a frequency response over the power of the true
    one, along the last axis."""
    return np.sum(np.abs(h_est - h) ** 2, axis=-1) / np.sum(np.abs(h) ** 2)


def _taps_nmse(groups, true_spec: ChannelSpec) -> np.ndarray:
    """:func:`estimate_nmse` of the tap estimates of a block, one per row,
    from its ``(rows, delays, dopplers, gains)`` groups as
    ``receiver._tap_mmse`` reads them.  Matched taps contribute |h_hat - h|^2,
    missed and spurious taps their full power, and each row's error is
    formed in the order and with the rounding of a Python loop over the
    taps: a Python ``x ** 2`` is ``np.float_power``, ``abs`` of a complex
    ``np.hypot``."""
    def power(v):
        return np.float_power(np.hypot(v.real, v.imag), 2)

    ref = sum(abs(t.h) ** 2 for t in true_spec.taps)
    nmse = np.empty(sum(len(rows) for rows, *_ in groups))
    for rows, ls, ks, hs in groups:
        got = {key: col for col, key in enumerate(zip(ls, ks))}
        err = 0
        for t in true_spec.taps:
            col = got.pop((t.l, t.k), None)
            err = err + (abs(0.0 - t.h) ** 2 if col is None else power(hs[:, col] - t.h))
        spurious = 0
        for col in got.values():
            spurious = spurious + power(hs[:, col])
        nmse[rows] = (err + spurious) / ref
    return nmse


# The most samples a block of frames holds: a point's frames run in as
# few blocks as fit this budget, of sizes that differ by at most one frame
# (:func:`_block_plan`).  At N = 256 a 100-frame point runs as two blocks of
# 50 frames and a 400-frame point as seven of 57 or 58.  A full block of
# 64 frames of 256 samples peaks under tracemalloc at 7.0 (fig8's SIC-free
# series) to 9.97 complex (frames, N) planes, the most in fig6's full-SIC
# rounds (2.49 MiB); a fig9 block at 7.7 to 8.5 planes (2.1 MiB at most).
_BLOCK_SAMPLES = 16384

# glibc hands the free top of its heap back to the kernel beyond a trim
# threshold of twice the largest mmap-served buffer freed so far, by default
# a few hundred KiB, so every block would fault its pages in again.  Freeing
# one mmap-served buffer of this size, once per process at import, raises
# glibc's mmap threshold to it and its trim threshold to twice it (mallopt(3),
# "dynamic mmap threshold"): later blocks come from the heap and keep its
# pages.  glibc raises the thresholds only for a buffer below its dynamic cap
# of 32 MiB, so this size is fixed, and well over a block's peak, rather
# than derived from the block budget.  Other allocators only allocate and
# free it.
_HEAP_KEEP_BYTES = 8 << 20
np.empty(_HEAP_KEEP_BYTES, np.uint8)

# A one-worker sweep starts a helper thread, and glibc gives a new thread a
# new malloc arena whenever the last helper's is not yet back on its free
# list (the exiting thread frees it after the join returns).  Under the trim
# threshold raised above, every arena keeps its high-water mark, about
# 2.5 MB at 50-frame blocks, so a process running many sweeps would gain
# one such arena each time that race is lost, up to 8 arenas per core.  Capping
# glibc at two arenas (mallopt(3), M_ARENA_MAX) keeps the caller's and one
# helper's; a later thread shares one of them.
_ARENA_MAX = 2


def _glibc() -> bool:
    """Whether this process runs on glibc."""
    try:
        return os.confstr("CS_GNU_LIBC_VERSION").startswith("glibc")
    except (AttributeError, ValueError, OSError):   # no confstr, no such name, or None
        return False


if _glibc():
    ctypes.CDLL(None).mallopt(-8, _ARENA_MAX)   # -8 is M_ARENA_MAX


def _transmit_block(sim: SimConfig, point: int, frames: range,
                    noise_var: float) -> tuple[ChannelSpec, tuple, tuple, list]:
    """The transmit half of the block of ``frames``, consecutive frame
    indices: its channel, the (common, private) bits and symbols it sends,
    and its CP-free received samples in a one-item list, which
    :func:`_receive_block` empties.

    Row i of the two halves' records equals the per-frame reference
    (``tests/oracles.py``) for frame ``frames[i]`` bit for bit: each frame
    keeps its own Philox draws, and every other step acts on the rows
    independently.
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
        # even frames carry user 1's private stream, odd frames user 2's:
        # every other row, from the first odd frame
        odd = slice((frames.start + 1) % 2, None, 2)
        private = drawn[:, u1c:r1].copy()
        private[odd] = drawn[odd, r1 + u2c:]
        bits = np.concatenate([drawn[:, :u1c], drawn[:, r1:r1 + u2c]], axis=1), private
    del drawn
    syms = tuple(_modulate(b) for b in bits)
    # each stage's arrays are dropped once the next stage has read them
    sent = (_baseline_time if sim.baseline else _frame_time)(*syms, cfg)
    received = _channel(sent, spec, normals)[:, cfg.cp_len:]
    return spec, bits, syms, [received]


def _receive_block(sim: SimConfig, spec: ChannelSpec, bits: tuple, syms: tuple,
                   received: list) -> np.ndarray:
    """The receive half of a block: detect and score what
    :func:`_transmit_block` sent, and score the receive step's estimate
    against the block's channel ``spec``.  The received samples are popped
    off their list, so that the receive step holds their only reference and
    drops them once it has made its planes."""
    cfg = sim.frame
    if sim.baseline:
        det, nmse = _baseline_detect(received.pop(), cfg, spec.noise_var,
                                     sim.design.genie.h_freq), 0.0
    else:
        eq_f, estimate = _receive(received.pop(), cfg, sim.design, spec.noise_var)
        nmse = _block_nmse(estimate, spec, cfg.n)
        del estimate   # before the detector runs
        det = _detect(eq_f, cfg, sim.mode)
        del eq_f
    return _score(sim, bits, syms, det, nmse)


def _point_noise_var(sim: SimConfig, snr_db: float) -> float:
    """Channel noise variance of an SNR point."""
    if sim.noise_override is not None:
        return sim.noise_override
    budget = baseline_budget(sim.frame) if sim.baseline else frame_energy_budget(sim.frame)
    return snr_to_noise_var(snr_db, budget / sim.frame.n)


def _block_plan(start: int, stop: int, n: int) -> list[range]:
    """Frames ``start`` to ``stop`` of length-``n`` frames as contiguous
    blocks: as few as hold at most ``_BLOCK_SAMPLES`` samples each (one frame
    a block if one frame alone is more), with sizes that differ by at most
    one frame."""
    frames = stop - start
    count = -(-frames // max(1, _BLOCK_SAMPLES // n))
    return [range(start + frames * i // count, start + frames * (i + 1) // count)
            for i in range(count)]


def _run_blocks(tasks, defer) -> list[tuple[np.ndarray | str, float]]:
    """Each task (sim, point, cut, cuts), frame range ``cut`` of ``cuts`` of
    SNR point ``point``, in the blocks of :func:`_block_plan`: its records as
    a C-ordered (frames, fields) array, or the reason it aborted; and its
    seconds, this thread's time from the end of the previous task (for the
    first, the start of the call) to the end of this one.

    Every block is sent one block ahead of its receive, the next task's first
    after a task's last: ``defer(_transmit_block, *args)`` returns a
    zero-argument callable that gives the transmit, and the loop calls it as
    it receives the block.  A task whose transmit or receive raises gets its
    diagnostic string; its later blocks are never sent (a transmit already
    sent is not read), and the next task runs.
    """
    last = time.perf_counter()
    noise_vars = [_point_noise_var(sim, sim.snr_grid_db[point]) for sim, point, _, _ in tasks]
    plans = [_block_plan(sim.frames_per_point * cut // cuts,
                         sim.frames_per_point * (cut + 1) // cuts, sim.frame.n)
             for sim, _, cut, cuts in tasks]
    blocks = [(k, frames) for k, plan in enumerate(plans) for frames in plan]

    def send(j):
        """Block ``j``, deferred; None past the last block."""
        if j == len(blocks):
            return None
        k, frames = blocks[j]
        sim, point, _, _ = tasks[k]
        return defer(_transmit_block, sim, point, frames, noise_vars[k])

    outputs, j, sent = [], 0, send(0)
    for k, (sim, *_) in enumerate(tasks):
        end, records = j + len(plans[k]), []
        try:
            while j < end:
                block, j = sent, j + 1
                sent = send(j)
                records.append(_receive_block(sim, *block()))
            out = np.concatenate(records)
        except (SimulationError, np.linalg.LinAlgError) as exc:
            out = f"{type(exc).__name__}: {exc}"
            if j < end:
                j = end
                sent = send(j)
        now = time.perf_counter()
        outputs.append((out, now - last))
        last = now
    return outputs


def _run_task(task) -> tuple[np.ndarray | str, float]:
    """One task of :func:`_run_blocks` on this thread, each block transmitted
    only as it is received: a pool task's, or :func:`run_point`'s."""
    [output] = _run_blocks([task], partial)
    return output


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
    if it raises), from the tasks of :func:`_run_blocks`: at one worker in
    this process, with the next block transmitted on a helper thread; else
    as tasks on one process pool of the largest ``workers``, but no more
    processes than tasks, each task sending its blocks on its own thread.
    A point is cut into several tasks only if the points are fewer than the
    workers."""
    workers = max((sim.workers for sim in sims), default=1)
    points = [(sim, p) for sim in sims for p in range(len(sim.snr_grid_db))]
    # no frame range may be empty
    cuts = (min([workers, *(sim.frames_per_point for sim in sims)]) if len(points) < workers
            else 1)
    tasks = [(sim, p, cut, cuts) for sim, p in points for cut in range(cuts)]
    if workers <= 1:
        with ThreadPoolExecutor(1) as helper:
            outputs = iter(_run_blocks(tasks, lambda *call: helper.submit(*call).result))
    else:
        # a forked pool starts all its processes at the first task
        with ProcessPoolExecutor(max_workers=min(workers, len(tasks))) as pool:
            outputs = iter(list(pool.map(_run_task, tasks)))
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
    are fixed and floats carry 10 significant digits.  JSON has no NaN, so
    an aborted point's fields are written as null."""
    if _output_format(fmt) == "csv":
        text = render_csv(results)
    else:
        rows = [{key: value if math.isfinite(value) else None for key, value in r.row().items()}
                for r in results]
        text = json.dumps(rows, indent=2, allow_nan=False) + "\n"
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


def _real(value) -> float:
    """A JSON number as a float; a bool or a string is refused."""
    _refuse_non_numbers(ConfigError, value=value)
    return float(value)


def _boolean(value) -> bool:
    """A JSON true or false; anything else is refused."""
    if not isinstance(value, bool):
        raise ConfigError(f"expected true or false, got {value!r}")
    return value


def _taps(rows) -> tuple[ChannelTap, ...]:
    return tuple(ChannelTap(complex(_real(re), _real(im)), _integer(l), _integer(k))
                 for re, im, l, k in rows)


def _optional(convert):
    return lambda value: None if value is None else convert(value)


# the keys of each part of a JSON config: key -> (the field it sets, its
# conversion); a missing key leaves the field's dataclass default
_CONFIG_PARTS = {
    "frame": {   # n, c1_prime and c2 set AffineParams, the others FrameConfig
        "n": ("n", _integer), "c1_prime": ("c1_prime", _integer), "c2": ("c2", _real),
        "guard": ("guard", _integer), "phi1": ("phi1", _real), "phi2": ("phi2", _real),
        "pilot_power_db": ("phi_pilot", lambda db: 10.0 ** (_real(db) / 10.0)),
        "approach": ("approach", lambda a: Approach(_integer(a))),
        "cp_len": ("cp_len", _integer),
        "common_per_class": ("common_per_class", _optional(_integer)),
    },
    "channel": {   # normalize scales the taps; the others set SimConfig
        "taps": ("taps", _taps), "normalize": ("normalize", _boolean),
        "noise_var": ("noise_override", _optional(_real)),
    },
    "sweep": {   # SimConfig
        "snr_db": ("snr_grid_db", lambda db: tuple(map(_real, db))),
        "frames_per_point": ("frames_per_point", _integer),
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
    takes only true or false, an integer key only an integral number) or
    cannot hold (a JSON number beyond float range in a real key)."""
    keys, given = _CONFIG_PARTS[part], {**_READER_DEFAULTS.get(part, {}), **d.get(part, {})}
    fields_set = {}
    for key, value in given.items():
        if key not in keys:
            raise ConfigError(f"unknown config key {part}.{key}")
        name, convert = keys[key]
        try:
            fields_set[name] = convert(value)
        except (ConfigError, OverflowError) as exc:
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
    except (AttributeError, ValueError, TypeError, OverflowError) as exc:
        raise ConfigError(f"bad simulation config: {exc}") from exc


def load_config(path) -> dict:
    """The JSON config at ``path``, for :func:`sim_config_from_dict`."""
    try:
        with open(path, "r", encoding="utf-8") as f:
            return json.load(f)
    except (OSError, json.JSONDecodeError) as exc:
        raise ConfigError(f"cannot load config {path}: {exc}") from exc
