"""Bundled experiment presets.

Five sweeps cover the standard evaluation plots; ``--emit-plot-data``
writes them as fig5.csv .. fig9.csv (long format: one row per series and
SNR point).

* fig5: SE of clean-pilot vs embedded-pilot signalling and the power-domain
  reference, two-path Doppler channel.
* fig6: SE impact of SIC variants on the same link.
* fig7: embedded-pilot SE against the chirp spreading factor c1'; the
  Doppler spread deliberately exceeds what c1' = 8 can resolve.
* fig8: BER under a two-path delay channel, pilot power 10 vs 15 dB, with
  and without SIC, against the power-domain reference.
* fig9: same sweep with Doppler enabled on the second path.

Tap gains/delays/Dopplers are package defaults (reimplementation choices),
configurable through the JSON config; SE presets run full common loads, the
BER presets a sparse common load of one symbol per chirp class so the
spread common image stays below the private stream.
"""
from __future__ import annotations

import os
from dataclasses import replace

from .channel import two_tap
from .framing import Approach, FrameConfig
from .harness import LinkResult, ReceiverMode, SimConfig, render_csv, run_sweeps
from .transforms import AffineParams

SE_SNR_GRID = (0.0, 5.0, 10.0, 13.0, 16.0, 20.0, 25.0)
BER_SNR_GRID = (0.0, 5.0, 10.0, 15.0, 20.0, 25.0)


def _se_frame(c1_prime: int, approach: Approach, guard: int) -> FrameConfig:
    return FrameConfig(
        affine=AffineParams(256, c1_prime),
        guard=guard, phi_pilot=10.0 ** 2.48,  # 24.8 dB
        phi1=30.0, phi2=1.0, approach=approach, cp_len=0,
    )


def _ber_frame(pilot_db: float) -> FrameConfig:
    return FrameConfig(
        affine=AffineParams(256, 4),
        guard=9, phi_pilot=10.0 ** (pilot_db / 10.0),
        phi1=2.0, phi2=1.0, approach=Approach.CLEAN_PILOT, cp_len=4,
        common_per_class=1,
    )


def fig5_sweeps(frames: int = 200, seed: int = 501) -> list[tuple[str, SimConfig]]:
    taps = two_tap(0.16, l2=0, k2=1).taps
    a1 = _se_frame(64, Approach.CLEAN_PILOT, guard=1)
    a2 = _se_frame(64, Approach.PILOT_AND_DATA, guard=1)
    common = dict(taps=taps, snr_grid_db=SE_SNR_GRID, frames_per_point=frames, seed=seed)
    return [
        ("clean-pilot", SimConfig(frame=a1, estimator="freq", **common)),
        ("embedded-pilot", SimConfig(frame=a2, estimator="affine", **common)),
        ("conventional-rsma", SimConfig(frame=a1, baseline=True, **common)),
    ]


def fig6_sweeps(frames: int = 200, seed: int = 601) -> list[tuple[str, SimConfig]]:
    taps = two_tap(0.16, l2=0, k2=1).taps
    a1 = _se_frame(64, Approach.CLEAN_PILOT, guard=1)
    a2 = _se_frame(64, Approach.PILOT_AND_DATA, guard=1)
    common = dict(taps=taps, snr_grid_db=SE_SNR_GRID, frames_per_point=frames, seed=seed)
    return [
        ("clean-pilot", SimConfig(frame=a1, estimator="freq", **common)),
        ("no-sic", SimConfig(frame=a2, estimator="affine", **common)),
        ("clean-pilot-sic", SimConfig(frame=a1, estimator="freq",
                                      mode=ReceiverMode.SIC_CLEAN_PILOT, **common)),
        ("full-sic", SimConfig(frame=a2, estimator="affine",
                               mode=ReceiverMode.SIC_FULL, **common)),
    ]


def fig7_sweeps(frames: int = 400, seed: int = 701) -> list[tuple[str, SimConfig]]:
    taps = two_tap(0.45, l2=0, k2=9).taps
    out = []
    for c1p in (8, 32, 64, 128):
        frame = _se_frame(c1p, Approach.PILOT_AND_DATA, guard=9)
        out.append((f"c1p-{c1p}", SimConfig(
            frame=frame, taps=taps, snr_grid_db=SE_SNR_GRID,
            frames_per_point=frames, estimator="affine", seed=seed)))
    return out


def _ber_sweeps(doppler: bool, frames: int, seed: int) -> list[tuple[str, SimConfig]]:
    taps = two_tap(0.36 / 1.36, l2=2, k2=1 if doppler else 0).taps
    grid = dict(taps=taps, snr_grid_db=BER_SNR_GRID, frames_per_point=frames, seed=seed)
    curves = [("conventional", SimConfig(frame=_ber_frame(10.0),
                                         baseline=True, **grid))]
    for pilot_db in (10.0, 15.0):
        f = _ber_frame(pilot_db)
        curves.append((f"sicfree-pilot{pilot_db:.0f}",
                       SimConfig(frame=f, estimator="auto", **grid)))
        curves.append((f"sic-pilot{pilot_db:.0f}",
                       SimConfig(frame=f, estimator="auto",
                                 mode=ReceiverMode.SIC_CLEAN_PILOT, **grid)))
    return curves


def fig8_sweeps(frames: int = 400, seed: int = 801) -> list[tuple[str, SimConfig]]:
    return _ber_sweeps(False, frames, seed)


def fig9_sweeps(frames: int = 400, seed: int = 901) -> list[tuple[str, SimConfig]]:
    return _ber_sweeps(True, frames, seed)


FIGURES = {
    "fig5": fig5_sweeps,
    "fig6": fig6_sweeps,
    "fig7": fig7_sweeps,
    "fig8": fig8_sweeps,
    "fig9": fig9_sweeps,
}


def figure_series(names, frames: int | None = None, seed: int | None = None,
                  workers: int = 1) -> list[tuple[str, str, SimConfig]]:
    """(figure, label, config) of every series of the named figures."""
    kwargs = {k: v for k, v in (("frames", frames), ("seed", seed)) if v is not None}
    return [(name, label, replace(sim, workers=workers))
            for name in names for label, sim in FIGURES[name](**kwargs)]


def run_figure(name: str, frames: int | None = None, seed: int | None = None,
               workers: int = 1) -> list[tuple[str, LinkResult]]:
    series = figure_series([name], frames, seed, workers)
    results = run_sweeps([sim for *_, sim in series])
    return [(label, res) for (_, label, _), sweep in zip(series, results) for res in sweep]


def emit_plot_data(directory: str, frames: int | None = None,
                   workers: int = 1) -> list[str]:
    """Run every figure in one call of the runner and write fig5.csv .. fig9.csv."""
    series = figure_series(FIGURES, frames, workers=workers)
    os.makedirs(directory, exist_ok=True)
    rows: dict[str, list[tuple[str, LinkResult]]] = {}
    for (name, label, _), sweep in zip(series, run_sweeps([sim for *_, sim in series])):
        rows.setdefault(name, []).extend((label, res) for res in sweep)
    for name, figure_rows in rows.items():
        with open(os.path.join(directory, f"{name}.csv"), "w", encoding="utf-8") as f:
            f.write(render_csv(figure_rows, extra_key="series"))
    return [os.path.join(directory, f"{name}.csv") for name in rows]
