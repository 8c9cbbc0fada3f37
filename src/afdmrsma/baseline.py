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
from .core import Domain, Frame, demodulate_symbols, modulate_bits
from .framing import FrameConfig, add_cp, remove_cp
from .receiver import DetectionResult
from .transforms import dft, idft


def baseline_budget(cfg: FrameConfig) -> float:
    return (cfg.phi1 + cfg.phi2) * cfg.n


def run_baseline_frame(common_bits: np.ndarray, private_bits: np.ndarray,
                       cfg: FrameConfig, spec: ChannelSpec,
                       rng: np.random.Generator) -> DetectionResult:
    """Send ``cfg.n`` symbols of each stream superposed on every subcarrier
    and detect them with genie one-tap equalization and SIC."""
    con = cfg.constellation
    sym_c = modulate_bits(common_bits, con)
    sym_p = modulate_bits(private_bits, con)
    s = np.sqrt(cfg.phi1) * sym_c + np.sqrt(cfg.phi2) * sym_p

    tx = add_cp(idft(Frame(s, Domain.FREQUENCY)), cfg.cp_len)
    rx = apply_channel(tx, spec, rng)
    y = Frame(remove_cp(rx.data, cfg.n, cfg.cp_len), Domain.TIME)
    y_f = dft(y).data

    # Conventional OFDM processing: one tap per subcarrier with genie
    # knowledge.  Under Doppler the one-tap reference is the diagonal of
    # the true frequency-domain channel; the off-diagonal ICI is noise to
    # this receiver.
    p_avg = baseline_budget(cfg) / cfg.n
    h = frequency_diagonal(spec, cfg.n)
    eq = y_f * np.conj(h) / (np.abs(h) ** 2 + spec.noise_var / p_avg)

    # SIC: common first, subtract, then private
    com_est = eq / np.sqrt(cfg.phi1)
    bits_c_hat = demodulate_symbols(com_est, con)
    com_remod = modulate_bits(bits_c_hat, con)
    residual = eq - np.sqrt(cfg.phi1) * com_remod
    priv_est = residual / np.sqrt(cfg.phi2)
    bits_p_hat = demodulate_symbols(priv_est, con)
    return DetectionResult(bits_c_hat, bits_p_hat, com_est, com_est[:0], priv_est)
