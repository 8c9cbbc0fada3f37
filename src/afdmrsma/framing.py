"""Message splitting, resource mapping and frame assembly.

A frame superposes three components:

* a pilot at affine index 0 with power ``phi_pilot``,
* the shared (common) stream on affine indices outside residue class 0 and
  outside a two-sided guard around the pilot, scaled by sqrt(phi1),
* the per-user (private) stream on the frequency subcarriers outside
  residue class 0, scaled by sqrt(phi2).

The embedded-pilot variant additionally places unit-power common symbols on
the class-0 affine indices inside the data region; they overlap the pilot
in frequency but never in the affine domain, and never touch the private
subcarriers in either domain.

The guard is two-sided (indices <= G and >= N - G are kept empty) because
channel-induced pilot shifts are cyclic and can land on either side of
index 0.
"""
from __future__ import annotations

from dataclasses import dataclass, field
from enum import Enum

import numpy as np

from .core import BITS_PER_SYMBOL, Domain, Frame
from .errors import ConfigError, InvalidLength
from .transforms import AffineParams, _affine_to_freq, _daft, _dft, _idft, affine_to_freq
# not called here; kept as attributes because linkbench/spans.py patches them
from .core import modulate_bits  # noqa: F401
from .transforms import daft, dft, idft  # noqa: F401


class Approach(Enum):
    CLEAN_PILOT = 1
    PILOT_AND_DATA = 2


@dataclass(frozen=True)
class FrameConfig:
    affine: AffineParams
    guard: int
    phi_pilot: float
    phi1: float
    phi2: float
    approach: Approach = Approach.CLEAN_PILOT
    cp_len: int = 0
    # Common symbols placed per nonzero residue class; None fills every
    # eligible index.  The scheme needs sparse common loads to keep the
    # spread common image below the private stream (see README).
    common_per_class: int | None = None
    layout: ResourceMap = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        if self.affine.c1_prime < 1:
            raise ConfigError("framing needs a real chirp slope (c1_prime >= 1)")
        if not (self.phi1 > self.phi2 > 0):
            raise ConfigError(f"need phi1 > phi2 > 0, got {self.phi1}, {self.phi2}")
        if self.phi_pilot <= 0:
            raise ConfigError("pilot power must be positive")
        if not (0 <= self.guard and 2 * self.guard + 1 < self.affine.n):
            raise ConfigError(f"guard {self.guard} incompatible with N={self.affine.n}")
        if self.cp_len < 0:
            raise ConfigError("cp_len must be >= 0")
        if self.common_per_class is not None and self.common_per_class < 0:
            raise ConfigError("common_per_class must be >= 0")
        object.__setattr__(self, "layout", _layout(self))

    @property
    def n(self) -> int:
        return self.affine.n


@dataclass(frozen=True)
class ResourceMap:
    """The frame layout one FrameConfig fixes: where each stream sits, the
    pilot's frequency image, each user's share of the common bits, each
    user's bit budget and the expected frame energy."""

    common_indices: np.ndarray
    extra_indices: np.ndarray
    private_subcarriers: np.ndarray
    pilot_freq: np.ndarray   # a read-only Frame payload
    common_split: tuple[int, int]
    bits_per_user: tuple[int, int]
    energy_budget: float
    # each symbol's amplitude along the whole common stream: sqrt(phi1) for
    # the common symbols, then 1 for the extra ones
    common_gain: np.ndarray
    # the affine indices of the whole common stream in symbol order
    common_stream: np.ndarray = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        for name in ("common_indices", "extra_indices", "private_subcarriers"):
            arr = np.asarray(getattr(self, name), dtype=np.int64)
            arr.flags.writeable = False
            object.__setattr__(self, name, arr)
        object.__setattr__(self, "common_stream",
                           np.concatenate([self.common_indices, self.extra_indices]))
        self.common_stream.flags.writeable = self.common_gain.flags.writeable = False

    @property
    def n_common(self) -> int:
        return self.common_indices.size

    @property
    def n_extra(self) -> int:
        return self.extra_indices.size

    @property
    def n_private(self) -> int:
        return self.private_subcarriers.size


def _layout(cfg: FrameConfig) -> ResourceMap:
    n, c1p, g = cfg.n, cfg.affine.c1_prime, cfg.guard
    idx = np.arange(n)
    in_data_region = (idx > g) & (idx < n - g)
    cls = idx % c1p

    common = idx[in_data_region & (cls != 0)]
    if cfg.common_per_class is not None:
        kept = []
        for alpha in range(1, c1p):
            members = common[common % c1p == alpha]
            kept.append(members[: cfg.common_per_class])
        common = np.sort(np.concatenate(kept)) if kept else common[:0]

    if cfg.approach is Approach.PILOT_AND_DATA:
        extra = idx[in_data_region & (cls == 0)]
    else:
        extra = idx[:0]

    private = idx[cls != 0]
    common_bits = (common.size + extra.size) * BITS_PER_SYMBOL
    split = ((common_bits + 1) // 2, common_bits // 2)
    energy = (cfg.phi_pilot + cfg.phi1 * common.size + 1.0 * extra.size
              + cfg.phi2 * private.size)
    pilot_freq = affine_to_freq(build_affine_pilot(cfg), cfg.affine).data
    return ResourceMap(common, extra, private, pilot_freq, split,
                       tuple(u + private.size * BITS_PER_SYMBOL for u in split), energy,
                       np.concatenate([np.full(common.size, np.sqrt(cfg.phi1)),
                                       np.ones(extra.size)]))


def resource_map(cfg: FrameConfig) -> ResourceMap:
    return cfg.layout


# callers read the map's n_common / n_extra / n_private
capacity_counts = resource_map


@dataclass(frozen=True)
class RsmaMessages:
    """Split user messages: one merged common stream, one private stream
    per user."""

    common_bits: np.ndarray
    private_bits_user1: np.ndarray
    private_bits_user2: np.ndarray


def required_bits_per_user(cfg: FrameConfig) -> tuple[int, int]:
    """Exact bit budget each user must supply to fill one frame per user."""
    return cfg.layout.bits_per_user


def split_messages(user1_bits: np.ndarray, user2_bits: np.ndarray,
                   cfg: FrameConfig) -> RsmaMessages:
    """Split each user's bits into a common part and a private part and
    merge the common parts into one stream (user 1's first)."""
    user1_bits = np.asarray(user1_bits, dtype=np.int64).reshape(-1)
    user2_bits = np.asarray(user2_bits, dtype=np.int64).reshape(-1)
    r1, r2 = required_bits_per_user(cfg)
    if user1_bits.size != r1 or user2_bits.size != r2:
        raise InvalidLength(
            f"need ({r1}, {r2}) bits per user, got "
            f"({user1_bits.size}, {user2_bits.size})")
    u1c, u2c = cfg.layout.common_split
    common = np.concatenate([user1_bits[:u1c], user2_bits[:u2c]])
    return RsmaMessages(common, user1_bits[u1c:], user2_bits[u2c:])


def _scatter(n: int, indices: np.ndarray, values: np.ndarray,
             scale: float) -> np.ndarray:
    """``scale * values`` placed at ``indices`` of zero planes of length n,
    along the last axis."""
    values = np.asarray(values, complex)
    if values.ndim == 0:
        values = values.reshape(1)
    if values.shape[-1] != indices.size:
        raise InvalidLength(f"expected {indices.size} symbols, got {values.shape[-1]}")
    data = np.zeros(values.shape[:-1] + (n,), dtype=np.complex128)
    data[..., indices] = scale * values
    return data


def _common_plane(symbols: np.ndarray, cfg: FrameConfig) -> np.ndarray:
    """The affine plane of one common stream: sqrt(phi1)-scaled symbols on
    the common indices, then unit-power symbols on the extra indices.  A
    (frames, symbols) block gives a (frames, N) block."""
    rm, symbols = cfg.layout, np.asarray(symbols, complex)
    if symbols.shape[-1] != rm.n_common + rm.n_extra:
        raise InvalidLength(
            f"common stream carries {symbols.shape[-1]} symbols, frame needs "
            f"{rm.n_common + rm.n_extra}")
    plane = np.zeros(symbols.shape[:-1] + (cfg.n,), dtype=np.complex128)
    plane[..., rm.common_stream] = rm.common_gain * symbols
    return plane


def _private_plane(symbols: np.ndarray, cfg: FrameConfig) -> np.ndarray:
    """The frequency plane of one private stream: sqrt(phi2)-scaled symbols
    on the nonzero-class subcarriers."""
    return _scatter(cfg.n, cfg.layout.private_subcarriers, symbols, np.sqrt(cfg.phi2))


def build_affine_common(symbols: np.ndarray, cfg: FrameConfig) -> Frame:
    """sqrt(phi1)-scaled common symbols on the common affine indices."""
    return Frame(_scatter(cfg.n, cfg.layout.common_indices, symbols, np.sqrt(cfg.phi1)),
                 Domain.AFFINE)


def build_affine_extra(symbols: np.ndarray, cfg: FrameConfig) -> Frame:
    """Unit-power extra common symbols on the class-0 affine indices
    (embedded-pilot variant only; empty otherwise)."""
    return Frame(_scatter(cfg.n, cfg.layout.extra_indices, symbols, 1.0), Domain.AFFINE)


def build_affine_pilot(cfg: FrameConfig) -> Frame:
    """Single pilot symbol 1+0j at affine index 0, scaled by sqrt(phi_pilot)."""
    data = np.zeros(cfg.n, dtype=np.complex128)
    data[0] = np.sqrt(cfg.phi_pilot)
    return Frame(data, Domain.AFFINE)


def build_freq_private(symbols: np.ndarray, cfg: FrameConfig) -> Frame:
    """sqrt(phi2)-scaled private symbols on the nonzero-class subcarriers."""
    return Frame(_private_plane(symbols, cfg), Domain.FREQUENCY)


def add_cp(time_frame: Frame | np.ndarray, cp_len: int) -> Frame:
    data = time_frame.data if isinstance(time_frame, Frame) else np.asarray(time_frame)
    return Frame(_add_cp(data, cp_len), Domain.TIME)


def _add_cp(x: np.ndarray, cp_len: int) -> np.ndarray:
    """The last cp_len samples put in front, along the last axis; ``x``
    itself at cp_len = 0."""
    if not cp_len:
        return x
    return np.concatenate([x[..., x.shape[-1] - cp_len:], x], axis=-1)


def remove_cp(y: np.ndarray, n: int, cp_len: int) -> np.ndarray:
    y = np.asarray(y).reshape(-1)
    if y.size != n + cp_len:
        raise InvalidLength(f"expected {n + cp_len} samples, got {y.size}")
    return y[cp_len:]


def build_frame(common_syms: np.ndarray, private_syms: np.ndarray,
                cfg: FrameConfig) -> Frame:
    """One user's frame from its common and private symbols: the affine
    plane (pilot, common, extra) spread into frequency, plus the private
    subcarriers, then time + CP."""
    return Frame(_frame_time(common_syms, private_syms, cfg), Domain.TIME)


def _frame_time(common_syms: np.ndarray, private_syms: np.ndarray,
                cfg: FrameConfig) -> np.ndarray:
    """:func:`build_frame` on arrays: (frames, symbols) blocks give a
    (frames, N + cp_len) block of time samples."""
    affine = _common_plane(common_syms, cfg)
    affine[..., 0] = np.sqrt(cfg.phi_pilot)
    freq = _affine_to_freq(affine, cfg.affine) + _private_plane(private_syms, cfg)
    return _add_cp(_idft(freq), cfg.cp_len)


def extract_received_planes(y_time: Frame | np.ndarray, cfg: FrameConfig) -> tuple[Frame, Frame]:
    """CP removal followed by the two receiver branches: (frequency plane,
    affine plane) of the same N samples."""
    data = y_time.data if isinstance(y_time, Frame) else np.asarray(y_time)
    y_freq, y_aff = _planes(remove_cp(data, cfg.n, cfg.cp_len), cfg)
    return Frame(y_freq, Domain.FREQUENCY), Frame(y_aff, Domain.AFFINE)


def _planes(y: np.ndarray, cfg: FrameConfig) -> tuple[np.ndarray, np.ndarray]:
    """(frequency plane, affine plane) of CP-free samples, along the last axis."""
    return _dft(y), _daft(y, cfg.affine)


def frame_energy_budget(cfg: FrameConfig) -> float:
    """Expected frame energy (CP excluded) for unit-energy symbols."""
    return cfg.layout.energy_budget

