"""What the link benchmark runs, and where the simulator sources are.

Workload and metric names, units and descriptions live in ``BENCHMARK.json``
(``SPEC``); this module adds only the presets each workload runs.
Standard library only: ``run.py`` imports this before numpy is loaded.
"""
from __future__ import annotations

import json
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
BLAS_THREAD_ENV = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")

# SimConfig's default.  The presets' own counts (200 or 400) make one pass
# about 21 s (se-sweep) or 51 s (ber-sweep), too long to repeat in a run.
FRAMES_PER_POINT = 100

# Keys of afdmrsma.experiments.FIGURES run by each workload of SPEC.
FIGURES_OF = {
    "se-sweep": ("fig5", "fig6", "fig7"),
    "ber-sweep": ("fig8", "fig9"),
}
WORKLOADS = {w["name"]: FIGURES_OF[w["name"]] for w in SPEC["workloads"]}
