"""Conventional power-domain RSMA reference link.

A single OFDM waveform carries both streams superposed on every subcarrier
(common at sqrt(phi1), private at sqrt(phi2)) and the receiver performs
textbook SIC: decode the common stream treating the private one as noise,
remodulate, subtract, then decode the private stream.  The receiver is
given genie channel knowledge, which makes comparisons against it
conservative.  This is a labelled stand-in for the conventional-RSMA curves,
not a reimplementation of any specific published baseline.
"""
from __future__ import annotations

import numpy as np

from .channel import ChannelSpec, _channel, frequency_diagonal
from .core import _demodulate, _modulate
from .framing import FrameConfig, _add_cp
from .receiver import DetectionResult, _one_tap
from .transforms import _dft, _idft
# not called here; kept as attributes because linkbench/spans.py patches them
from .channel import apply_channel  # noqa: F401
from .core import demodulate_symbols, modulate_bits  # noqa: F401
from .transforms import dft, idft  # noqa: F401


def baseline_budget(cfg: FrameConfig) -> float:
    return (cfg.phi1 + cfg.phi2) * cfg.n


def run_baseline_frame(common_syms: np.ndarray, private_syms: np.ndarray,
                       cfg: FrameConfig, spec: ChannelSpec,
                       rng: np.random.Generator) -> DetectionResult:
    """Send ``cfg.n`` symbols of each stream superposed on every subcarrier
    and detect them with genie one-tap equalization and SIC."""
    normals = rng.standard_normal(2 * (cfg.n + cfg.cp_len)) if spec.noise_var > 0 else None
    return _baseline_link(common_syms, private_syms, cfg, spec, normals)


def _baseline_link(common_syms: np.ndarray, private_syms: np.ndarray, cfg: FrameConfig,
                   spec: ChannelSpec, normals: np.ndarray | None) -> DetectionResult:
    """:func:`run_baseline_frame` along the last axis, with the channel
    noise made from ``normals`` (see ``channel._channel``)."""
    s = np.sqrt(cfg.phi1) * common_syms + np.sqrt(cfg.phi2) * private_syms

    rx = _channel(_add_cp(_idft(s), cfg.cp_len), spec, normals)
    y_f = _dft(rx[..., cfg.cp_len:])

    # Conventional OFDM processing: one tap per subcarrier with genie
    # knowledge.  Under Doppler the one-tap reference is the diagonal of
    # the true frequency-domain channel; the off-diagonal ICI is noise to
    # this receiver.
    p_avg = baseline_budget(cfg) / cfg.n
    h = frequency_diagonal(spec, cfg.n)
    g = spec.noise_var / p_avg
    eq = _one_tap(y_f, h, g)

    # SIC: common first, subtract, then private
    com_est = eq / np.sqrt(cfg.phi1)
    bits_c_hat = _demodulate(com_est)
    com_remod = _modulate(bits_c_hat)
    residual = eq - np.sqrt(cfg.phi1) * com_remod
    priv_est = residual / np.sqrt(cfg.phi2)
    bits_p_hat = _demodulate(priv_est)
    return DetectionResult(bits_c_hat, bits_p_hat, com_est, com_est[..., :0], priv_est)
