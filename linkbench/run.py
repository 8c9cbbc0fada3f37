#!/usr/bin/env python3
"""Link-simulator benchmark: frames/s of the bundled figure presets.

Run from the repository root:

    python3 linkbench/run.py --workload se-sweep --seed 1 --seconds 50 --trace 0

The seed is handed to the presets (``FIGURES[name](frames=..., seed=...)``);
the simulator sees only the ``SimConfig``s they generate.  ``--trace 0``
runs the workload with nothing patched and prints the end-to-end metrics;
``--trace 1`` runs it with every call into a public function traced and
prints the per-layer metrics (see ``measure.py``).  Each metric is printed
as ``name value unit``; the last line of stdout is one JSON object with the
keys ``correct``, ``attempted``, ``failed`` and ``metrics``.  The report,
with the run manifest, goes to ``linkbench/out/``.

BLAS is pinned to one thread per process before numpy loads, so the
two-worker passes run 2 processes x 1 thread on a 2-core host.

Exit codes: 0 when the run completed (failed output checks show in the
JSON), 2 when the simulator sources under ``src/`` are missing.
"""
from __future__ import annotations

import argparse
import os
import sys

from workloads import BLAS_THREAD_ENV, SRC, WORKLOADS


def parse_args(argv=None) -> argparse.Namespace:
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True,
                   help="measurement time of one run")
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--frames", type=int, default=None,
                   help="frames per SNR point (default: the benchmark's fixed "
                        "count; smaller values are for smoke tests)")
    args = p.parse_args(argv)
    if args.seed < 0 or args.seconds <= 0 or (args.frames is not None and args.frames < 1):
        p.error("--seed must be >= 0, --seconds > 0 and --frames >= 1")
    return args


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (SRC / "afdmrsma" / "__init__.py").is_file():
        print(f"error: simulator sources not found under {SRC}", file=sys.stderr)
        return 2
    for var in BLAS_THREAD_ENV:
        os.environ[var] = "1"
    sys.path.insert(0, str(SRC))
    import measure   # loads numpy, so only after the thread pin
    return measure.run(args)


if __name__ == "__main__":
    sys.exit(main())
