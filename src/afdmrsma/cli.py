"""Command-line entry point.

    simulate --config sim.json [--snr-min 0 --snr-max 25 --snr-step 5]
             [--frames N] [--approach {1,2}] [--mode {sicfree,sic-clean,sic-full}]
             [--c1prime C] [--pilot-db P] [--doppler {on,off}] [--seed S]
             [--out PATH] [--format {csv,json}] [--workers W]
             [--emit-plot-data [DIR]]

Without --config, --emit-plot-data runs only the bundled presets, which
read --frames and --workers alone; any other option is refused (exit 1).

Exit codes: 0 success, 1 configuration error (including options that
would be ignored), 2 runtime error, including an SNR point that aborted
(its row holds NaN and the reason goes to stderr).
"""
from __future__ import annotations

import argparse
import sys
from dataclasses import replace

from .channel import ChannelTap
from .errors import ConfigError, SimulationError
from .experiments import emit_plot_data
from .framing import Approach, FrameConfig
from .harness import ReceiverMode, emit_results, load_config, run_sweep
from .transforms import AffineParams


def build_parser() -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(
        prog="simulate",
        description="Link-level sweeps for the dual-domain AFDM/OFDM "
                    "rate-splitting scheme.")
    p.add_argument("--config", help="JSON simulation config")
    p.add_argument("--snr-min", type=float)
    p.add_argument("--snr-max", type=float)
    p.add_argument("--snr-step", type=float)
    p.add_argument("--frames", type=int)
    p.add_argument("--approach", type=int, choices=(1, 2))
    p.add_argument("--mode", choices=[m.value for m in ReceiverMode])
    p.add_argument("--c1prime", type=int)
    p.add_argument("--pilot-db", type=float)
    p.add_argument("--doppler", choices=("on", "off"))
    p.add_argument("--seed", type=int)
    p.add_argument("--out", help="result path (default results.csv)")
    p.add_argument("--format", choices=("csv", "json"))
    p.add_argument("--workers", type=int)
    p.add_argument("--emit-plot-data", nargs="?", const=".", metavar="DIR",
                   help="also write the bundled experiment sweeps as "
                        "fig5.csv .. fig9.csv into DIR")
    return p


# options that only a --config sweep reads (the presets take --frames and
# --workers alone)
_SWEEP_OPTIONS = ("--out", "--format", "--seed", "--mode", "--snr-min", "--snr-max",
                  "--snr-step", "--approach", "--c1prime", "--pilot-db", "--doppler")


def _override_frame(frame: FrameConfig, args) -> FrameConfig:
    kw = {}
    if args.approach is not None:
        kw["approach"] = Approach(args.approach)
    if args.c1prime is not None:
        kw["affine"] = AffineParams(frame.affine.n, args.c1prime, frame.affine.c2)
    if args.pilot_db is not None:
        kw["phi_pilot"] = 10.0 ** (args.pilot_db / 10.0)
    return replace(frame, **kw) if kw else frame


def _override_sim(sim, args):
    kw = {}
    if None not in (args.snr_min, args.snr_max, args.snr_step):
        grid, v = [], args.snr_min
        while v <= args.snr_max + 1e-9:
            grid.append(round(v, 9))
            v += args.snr_step
        kw["snr_grid_db"] = tuple(grid)
    if args.frames is not None:
        kw["frames_per_point"] = args.frames
    if args.mode is not None:
        kw["mode"] = ReceiverMode(args.mode)
    if args.seed is not None:
        kw["seed"] = args.seed
    if args.workers is not None:
        kw["workers"] = args.workers
    frame = _override_frame(sim.frame, args)
    if frame is not sim.frame:
        kw["frame"] = frame
    if args.doppler == "off":
        kw["taps"] = tuple(ChannelTap(t.h, t.l, 0) for t in sim.taps)
    elif args.doppler == "on" and not any(t.k for t in sim.taps):
        taps = list(sim.taps)
        taps[-1] = ChannelTap(taps[-1].h, taps[-1].l, 1)
        kw["taps"] = tuple(taps)
    return replace(sim, **kw) if kw else sim


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    if args.config is None and args.emit_plot_data is None:
        print("error: need --config and/or --emit-plot-data", file=sys.stderr)
        return 1
    if args.config is None:
        ignored = [opt for opt in _SWEEP_OPTIONS
                   if getattr(args, opt[2:].replace("-", "_")) is not None]
        if ignored:
            print(f"error: --emit-plot-data without --config ignores {', '.join(ignored)}",
                  file=sys.stderr)
            return 1
    status = 0
    try:
        if args.config is not None:
            sim, out_opts = load_config(args.config)
            sim = _override_sim(sim, args)
            results = run_sweep(sim)
            path = args.out or out_opts.get("path", "results.csv")
            fmt = args.format or out_opts.get("format", "csv")
            emit_results(results, fmt, path)
            for r in results:
                if r.diagnostics:
                    print(f"point {r.snr_db} dB aborted: {r.diagnostics}", file=sys.stderr)
                    status = 2
            print(f"wrote {path}")
        if args.emit_plot_data is not None:
            for p in emit_plot_data(args.emit_plot_data, frames=args.frames,
                                    workers=args.workers or 1):
                print(f"wrote {p}")
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 1
    except (SimulationError, OSError) as exc:
        print(f"runtime error: {exc}", file=sys.stderr)
        return 2
    return status


if __name__ == "__main__":
    sys.exit(main())
