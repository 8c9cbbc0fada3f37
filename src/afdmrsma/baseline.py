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

from .channel import ChannelSpec, apply_channel, frequency_diagonal
from .core import demodulate_symbols, modulate_bits
from .framing import FrameConfig, add_cp, remove_cp
from .receiver import DetectionResult, _one_tap
from .transforms import _dft, _idft
# not called here; kept as attributes because linkbench/spans.py patches them
from .transforms import dft, idft  # noqa: F401


def baseline_budget(cfg: FrameConfig) -> float:
    return (cfg.phi1 + cfg.phi2) * cfg.n


def run_baseline_frame(common_syms: np.ndarray, private_syms: np.ndarray,
                       cfg: FrameConfig, spec: ChannelSpec,
                       rng: np.random.Generator) -> DetectionResult:
    """Send ``cfg.n`` symbols of each stream superposed on every subcarrier
    and detect them with genie one-tap equalization and SIC."""
    s = np.sqrt(cfg.phi1) * common_syms + np.sqrt(cfg.phi2) * private_syms

    rx = apply_channel(add_cp(_idft(s), cfg.cp_len), spec, rng)
    y_f = _dft(remove_cp(rx.data, cfg.n, cfg.cp_len))

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
    bits_c_hat = demodulate_symbols(com_est)
    com_remod = modulate_bits(bits_c_hat)
    residual = eq - np.sqrt(cfg.phi1) * com_remod
    priv_est = residual / np.sqrt(cfg.phi2)
    bits_p_hat = demodulate_symbols(priv_est)
    return DetectionResult(bits_c_hat, bits_p_hat, com_est, com_est[:0], priv_est)
