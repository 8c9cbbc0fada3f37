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

from .channel import ChannelSpec, _channel
from .core import _demodulate, _modulate
from .framing import FrameConfig, _add_cp
from .receiver import DetectionResult, _int64_bits, _receive, _receiver_design
from .transforms import _idft
# not called here; kept as attributes because linkbench/spans.py patches them
from .channel import apply_channel  # noqa: F401
from .core import demodulate_symbols, modulate_bits  # noqa: F401
from .transforms import dft, idft  # noqa: F401


def run_baseline_frame(common_syms: np.ndarray, private_syms: np.ndarray,
                       cfg: FrameConfig, spec: ChannelSpec,
                       rng: np.random.Generator) -> DetectionResult:
    """Send ``cfg.n`` symbols of each stream superposed on every subcarrier
    and detect them with genie one-tap equalization and SIC."""
    normals = rng.standard_normal(2 * (cfg.n + cfg.cp_len)) if spec.noise_var > 0 else None
    # Conventional OFDM processing: one tap per subcarrier with genie
    # knowledge.  Under Doppler the baseline design's one-tap reference is
    # the diagonal of the true frequency-domain channel; the off-diagonal
    # ICI is noise to this receiver.
    design = _receiver_design(cfg, "baseline", spec.max_delay, spec.max_doppler, spec, False)
    received = _channel(_baseline_time(common_syms, private_syms, cfg), spec, normals)
    eq_f, _ = _receive(received[..., cfg.cp_len:], cfg, design, spec.noise_var)
    return _int64_bits(_baseline_detect(eq_f, cfg))


def _baseline_time(common_syms: np.ndarray, private_syms: np.ndarray,
                   cfg: FrameConfig) -> np.ndarray:
    """The streams superposed on every subcarrier, as time samples with the
    CP in front, along the last axis."""
    s = np.sqrt(cfg.phi1) * common_syms + np.sqrt(cfg.phi2) * private_syms
    return _add_cp(_idft(s), cfg.cp_len)


def _baseline_detect(eq: np.ndarray, cfg: FrameConfig) -> DetectionResult:
    """SIC on the equalized frequency plane ``receiver._receive`` hands back,
    along the last axis: common stream first, subtract, then private."""
    com_est = eq / np.sqrt(cfg.phi1)
    bits_c_hat = _demodulate(com_est)
    com_remod = _modulate(bits_c_hat)
    residual = eq - np.sqrt(cfg.phi1) * com_remod
    priv_est = residual / np.sqrt(cfg.phi2)
    bits_p_hat = _demodulate(priv_est)
    return DetectionResult(bits_c_hat, bits_p_hat, com_est, com_est[..., :0], priv_est)
