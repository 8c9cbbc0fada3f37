"""Command-line entry point.

    simulate --config sim.json [--snr-min 0 --snr-max 25 --snr-step 5]
             [--frames N] [--approach {1,2}] [--mode {sicfree,sic-clean,sic-full}]
             [--c1prime C] [--pilot-db P] [--doppler {on,off}] [--seed S]
             [--out PATH] [--format {csv,json}] [--workers W]
             [--emit-plot-data [DIR]]

With --config, each option sets the key of the JSON config it stands for
before the config is parsed.  Without --config, --emit-plot-data runs only
the bundled presets, which read --frames and --workers alone; any other
option is refused (exit 1).

Exit codes: 0 success, 1 configuration error (including usage errors, options
that would be ignored, a partial --snr-* set, a non-finite --snr-* value, an
--snr-step <= 0, and unknown config keys and values, which the config reader
alone checks), 2 runtime error, including an SNR point that aborted (its row
holds NaN and the reason goes to stderr).
"""
from __future__ import annotations

import argparse
import math
import sys

from .errors import ConfigError, SimulationError
from .experiments import emit_plot_data
from .harness import (DEFAULT_TAPS, OUTPUT_FORMATS, Approach, ReceiverMode, emit_results,
                      load_config, run_sweep, sim_config_from_dict)


# option dest -> (the section and key of the JSON config it sets, its
# argparse arguments); the option is --dest with "-" for "_"
_OPTION_KEYS = {
    "frames": ("sweep", "frames_per_point", dict(type=int)),
    "approach": ("frame", "approach",
                 dict(type=int, metavar="{%s}" % ",".join(str(a.value) for a in Approach))),
    "mode": ("sweep", "mode", dict(metavar="{%s}" % ",".join(m.value for m in ReceiverMode))),
    "c1prime": ("frame", "c1_prime", dict(type=int)),
    "pilot_db": ("frame", "pilot_power_db", dict(type=float)),
    "seed": ("sweep", "seed", dict(type=int)),
    "out": ("output", "path", dict(help="result path (default results.csv)")),
    "format": ("output", "format", dict(metavar="{%s}" % ",".join(OUTPUT_FORMATS))),
    "workers": ("sweep", "workers", dict(type=int)),
}
_SNR_OPTIONS = ("snr_min", "snr_max", "snr_step")   # set sweep.snr_db together


def _option(dest: str) -> str:
    return "--" + dest.replace("_", "-")


class _Parser(argparse.ArgumentParser):
    def error(self, message):   # a usage error is a configuration error: exit 1, not 2
        self.exit(1, f"{self.format_usage()}{self.prog}: error: {message}\n")


def build_parser() -> argparse.ArgumentParser:
    p = _Parser(
        prog="simulate",
        description="Link-level sweeps for the dual-domain AFDM/OFDM "
                    "rate-splitting scheme.")
    p.add_argument("--config", help="JSON simulation config")
    for dest in _SNR_OPTIONS:
        p.add_argument(_option(dest), type=float)
    for dest, (*_, arguments) in _OPTION_KEYS.items():
        p.add_argument(_option(dest), **arguments)
    p.add_argument("--doppler", choices=("on", "off"))
    p.add_argument("--emit-plot-data", nargs="?", const=".", metavar="DIR",
                   help="also write the bundled experiment sweeps as "
                        "fig5.csv .. fig9.csv into DIR")
    return p


def _set_flag_keys(raw: dict, args) -> None:
    """Write each option given into the key of the JSON config ``raw`` it sets."""
    values = {(section, key): getattr(args, dest)
              for dest, (section, key, _) in _OPTION_KEYS.items()}
    if args.snr_min is not None:   # main refuses a partial --snr-* set
        grid, v = [], args.snr_min
        while v <= args.snr_max + 1e-9:
            grid.append(round(v, 9))
            v += args.snr_step
        values["sweep", "snr_db"] = grid
    if args.doppler is not None:
        # off: every tap delay-only; on: the last tap gets Doppler 1 if none has any
        taps = [[re, im, l, k if args.doppler == "on" else 0]
                for re, im, l, k in raw.get("channel", {}).get("taps", DEFAULT_TAPS)]
        if args.doppler == "on" and not any(k for *_, k in taps):
            taps[-1][3] = 1
        values["channel", "taps"] = taps
    for (section, key), value in values.items():
        if value is not None:
            raw.setdefault(section, {})[key] = value


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    if args.config is None and args.emit_plot_data is None:
        print("error: need --config and/or --emit-plot-data", file=sys.stderr)
        return 1
    if args.config is None:
        # the presets read --frames and --workers alone
        ignored = [_option(dest) for dest, value in vars(args).items()
                   if value is not None and dest not in ("emit_plot_data", "frames", "workers")]
        if ignored:
            print(f"error: --emit-plot-data without --config ignores {', '.join(ignored)}",
                  file=sys.stderr)
            return 1
    missing = [_option(dest) for dest in _SNR_OPTIONS if getattr(args, dest) is None]
    if 0 < len(missing) < len(_SNR_OPTIONS):
        print(f"error: the --snr-* options set the grid together; missing {', '.join(missing)}",
              file=sys.stderr)
        return 1
    for dest in _SNR_OPTIONS:
        value = getattr(args, dest)
        # an infinite bound or step never ends the grid, a NaN one cuts it short
        if value is not None and not math.isfinite(value):
            print(f"error: {_option(dest)} must be finite, got {value}", file=sys.stderr)
            return 1
    if args.snr_step is not None and args.snr_step <= 0:
        print(f"error: --snr-step must be > 0, got {args.snr_step:g}", file=sys.stderr)
        return 1
    status = 0
    try:
        if args.config is not None:
            raw = load_config(args.config)
            try:
                _set_flag_keys(raw, args)
            except (AttributeError, IndexError, TypeError, ValueError) as exc:
                raise ConfigError(f"cannot apply the options to {args.config}: {exc}") from exc
            results = run_sweep(sim_config_from_dict(raw))
            output = raw.get("output", {})
            path = output.get("path", "results.csv")
            emit_results(results, output.get("format", "csv"), path)
            for r in results:
                if r.diagnostics:
                    print(f"point {r.snr_db} dB aborted: {r.diagnostics}", file=sys.stderr)
                    status = 2
            print(f"wrote {path}")
        if args.emit_plot_data is not None:
            for p in emit_plot_data(args.emit_plot_data, frames=args.frames,
                                    workers=1 if args.workers is None else args.workers):
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
