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
from .receiver import DetectionResult, _int64_bits, _one_tap
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
    # Conventional OFDM processing: one tap per subcarrier with genie
    # knowledge.  Under Doppler the one-tap reference is the diagonal of
    # the true frequency-domain channel; the off-diagonal ICI is noise to
    # this receiver.
    h = frequency_diagonal(spec, cfg.n)
    received = _channel(_baseline_time(common_syms, private_syms, cfg), spec, normals)
    return _int64_bits(_baseline_detect(received[..., cfg.cp_len:], cfg, spec.noise_var, h))


def _baseline_time(common_syms: np.ndarray, private_syms: np.ndarray,
                   cfg: FrameConfig) -> np.ndarray:
    """The streams superposed on every subcarrier, as time samples with the
    CP in front, along the last axis."""
    s = np.sqrt(cfg.phi1) * common_syms + np.sqrt(cfg.phi2) * private_syms
    return _add_cp(_idft(s), cfg.cp_len)


def _baseline_detect(received: np.ndarray, cfg: FrameConfig, noise_var: float,
                     h: np.ndarray) -> DetectionResult:
    """Genie one-tap equalization with ``h`` and SIC on received CP-free
    time samples, along the last axis."""
    g = noise_var / (baseline_budget(cfg) / cfg.n)
    eq = _one_tap(_dft(received), h, g)

    # SIC: common first, subtract, then private
    com_est = eq / np.sqrt(cfg.phi1)
    bits_c_hat = _demodulate(com_est)
    com_remod = _modulate(bits_c_hat)
    residual = eq - np.sqrt(cfg.phi1) * com_remod
    priv_est = residual / np.sqrt(cfg.phi2)
    bits_p_hat = _demodulate(priv_est)
    return DetectionResult(bits_c_hat, bits_p_hat, com_est, com_est[..., :0], priv_est)
