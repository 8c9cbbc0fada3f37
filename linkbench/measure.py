"""Timed passes, output checks and metrics of the link benchmark.

A *pass* runs every series of a workload's presets once through
``harness.run_sweep``, at the workload's frames per SNR point and the run's
seed.  All passes of a run simulate the same frames, so they must render
the same CSV, and so must a pass on ``POOL_WORKERS`` worker processes.

End-to-end run (``--trace 0``): whole one-worker passes repeat until
``--seconds`` is used up, with ``SETUP_REPS`` set-ups measured along the
way, then one untimed two-worker pass is checked against them.  Each timing
is taken per pass and reported as the median over the passes:

* ``frames_per_s``: frames of the pass / wall time of the pass;
* ``frame_us_p50``, ``frame_us_tail``: median, and highest whole
  percentile with ten points beyond it, of the pass's per-point wall
  time / frames;
* ``setup_s``: median of the set-ups, each a fresh-interpreter import plus
  preset construction and warm-up from a cold chirp cache;
* ``peak_rss_mb``: peak RSS of the benchmark process, read before the
  two-worker check pass;
* ``ok_point_share``: share of SNR points that pass ``point_problem``.

Traced run (``--trace 1``): plain and traced one-worker passes alternate
series by series (the ratio of their median wall times is the tracing
overhead), one
two-worker pass traces the parent's pool spans, then the transform
microbenchmark runs.
"""
from __future__ import annotations

import hashlib
import json
import math
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass, replace
from pathlib import Path

import numpy as np

from afdmrsma import harness, transforms
from afdmrsma.core import Domain
from afdmrsma.experiments import FIGURES
from afdmrsma.harness import LinkResult, SimConfig, render_csv

import spans
from workloads import BLAS_THREAD_ENV, FRAMES_PER_POINT, ROOT, SPEC, SRC, WORKLOADS

OUT = Path(__file__).resolve().parent / "out"
POOL_WORKERS = 2
SETUP_REPS = 9

END_TO_END = {m["name"]: m["unit"] for m in SPEC["end_to_end"]}
PER_LAYER = {m["name"]: m["unit"] for m in SPEC["per_layer"]}


@dataclass(frozen=True)
class Series:
    figure: str
    label: str
    sim: SimConfig


def build_series(figures: tuple[str, ...], frames: int, seed: int,
                 workers: int) -> list[Series]:
    return [Series(fig, f"{fig}/{label}", replace(sim, workers=workers))
            for fig in figures
            for label, sim in FIGURES[fig](frames=frames, seed=seed)]


@dataclass(frozen=True)
class Pass:
    wall_s: float
    series_s: list[float]               # wall time of each series' run_sweep
    rows: list[tuple[Series, LinkResult]]   # one per SNR point

    @property
    def frames(self) -> int:
        return sum(res.frames for _, res in self.rows)

    def point_us(self) -> list[float]:
        return [res.wall_time / max(res.frames, 1) * 1e6 for _, res in self.rows]

    def csv(self) -> str:
        return render_csv([(s.label, res) for s, res in self.rows], extra_key="series")


def run_pass(series: list[Series]) -> Pass:
    rows, series_s = [], []
    start = time.perf_counter()
    for s in series:
        t0 = time.perf_counter()
        results = harness.run_sweep(s.sim)
        series_s.append(time.perf_counter() - t0)
        rows.extend((s, r) for r in results)
    return Pass(time.perf_counter() - start, series_s, rows)


def run_pair(series: list[Series], tracer: spans.Tracer) -> tuple[Pass, Pass]:
    """A plain and a traced pass, interleaved series by series so that both
    meet the same host load."""
    plain, traced = [], []
    for s in series:
        plain.append(run_pass([s]))
        tracer.patch()
        try:
            traced.append(run_pass([s]))
        finally:
            tracer.restore()

    def joined(parts: list[Pass]) -> Pass:
        return Pass(sum(p.wall_s for p in parts), [t for p in parts for t in p.series_s],
                    [row for p in parts for row in p.rows])
    return joined(plain), joined(traced)


def median_of(passes: list[Pass], stat) -> float:
    """Median over ``passes`` of ``stat(pass)``."""
    return float(statistics.median(stat(p) for p in passes))


def warm_up(series: list[Series]) -> None:
    """First SNR point of every series at one frame: fills the chirp cache
    for each frame geometry."""
    for s in series:
        harness.run_sweep(replace(s.sim, snr_grid_db=s.sim.snr_grid_db[:1],
                                  frames_per_point=1))


def import_seconds() -> float:
    """Import time of the simulator in a fresh interpreter."""
    code = ("import time; t = time.perf_counter(); import afdmrsma.experiments; "
            "print(time.perf_counter() - t)")
    out = subprocess.run([sys.executable, "-c", code], cwd=ROOT, capture_output=True,
                         text=True, timeout=120, check=True,
                         env={**os.environ, "PYTHONPATH": str(SRC)})
    return float(out.stdout.split()[-1])


def set_up(figures: tuple[str, ...], frames: int, seed: int) -> tuple[float, list[Series]]:
    """One set-up from a cold chirp cache: preset construction and warm-up."""
    transforms._chirps.cache_clear()
    t0 = time.perf_counter()
    series = build_series(figures, frames, seed, 1)
    warm_up(series)
    return time.perf_counter() - t0, series


# -- output checks ---------------------------------------------------------

def point_problem(res: LinkResult, frames: int) -> str | None:
    """What is wrong with one SNR point's result, or None."""
    if res.diagnostics:
        return res.diagnostics
    if res.frames != frames:
        return f"frames {res.frames} != {frames}"
    values = (res.snr_db, res.ber_common, res.ber_private, res.ber_total, res.se,
              res.channel_nmse, res.wall_time, res.se_stderr, res.ber_total_stderr)
    if not all(math.isfinite(v) for v in values):
        return "non-finite field"
    if not all(0.0 <= b <= 1.0 for b in (res.ber_common, res.ber_private, res.ber_total)):
        return "BER outside [0, 1]"
    if res.se < 0 or res.channel_nmse < 0:
        return "negative SE or NMSE"
    return None


class Checks:
    """Every SNR point and every CSV comparison is one attempted operation;
    a point whose result fails a check, or a CSV that differs from the
    first pass's, is a failed one."""

    def __init__(self, passes: dict[str, Pass]):
        self.points = self.failed_points = self.csv_compared = self.csv_failed = 0
        self.problems: list[str] = []
        reference = None
        for what, p in passes.items():
            for s, res in p.rows:
                self.points += 1
                problem = point_problem(res, s.sim.frames_per_point)
                if problem:
                    self.failed_points += 1
                    self.problems.append(f"{what}: {s.label} @ {res.snr_db} dB: {problem}")
            csv = p.csv()
            if reference is None:
                reference = csv
                continue
            self.csv_compared += 1
            if csv != reference:
                self.csv_failed += 1
                self.problems.append(f"{what}: CSV differs from the first pass")
        self.csv_sha256 = hashlib.sha256(reference.encode()).hexdigest()

    @property
    def attempted(self) -> int:
        return self.points + self.csv_compared

    @property
    def failed(self) -> int:
        return self.failed_points + self.csv_failed


# -- end-to-end run --------------------------------------------------------

def tail_percentile(samples: int) -> int:
    """Highest whole percentile with at least ten of ``samples`` beyond it."""
    return max(0, (100 * samples - 1000) // samples)


def run_end_to_end(figures: tuple[str, ...], frames: int, seed: int,
                   seconds: float) -> tuple[dict, dict, Checks]:
    """Whole passes while the next one is expected to fit in ``seconds``.
    The set-up samples are spread over the run, so that they meet the same
    mix of host load as the passes."""
    def setup_sample() -> tuple[float, list[Series]]:
        imp = import_seconds()
        warm, series = set_up(figures, frames, seed)
        return imp + warm, series

    first, series = setup_sample()
    setup, passes, elapsed = [first], [], 0.0
    while not passes or elapsed * (len(passes) + 1) / len(passes) <= seconds:
        passes.append(run_pass(series))
        elapsed += passes[-1].wall_s
        if len(setup) < SETUP_REPS and elapsed >= len(setup) * seconds / SETUP_REPS:
            setup.append(setup_sample()[0])
    while len(setup) < SETUP_REPS:
        setup.append(setup_sample()[0])
    peak_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    pooled = run_pass(build_series(figures, frames, seed, POOL_WORKERS))   # untimed check

    checks = Checks({**{f"pass {i}": p for i, p in enumerate(passes)},
                     f"{POOL_WORKERS}-worker pass": pooled})
    pct = tail_percentile(len(passes[0].rows))
    metrics = {
        "frames_per_s": median_of(passes, lambda p: p.frames / p.wall_s),
        "frame_us_p50": median_of(passes, lambda p: np.median(p.point_us())),
        "frame_us_tail": median_of(passes, lambda p: np.percentile(p.point_us(), pct)),
        "setup_s": float(statistics.median(setup)),
        "peak_rss_mb": peak_mb,
        "ok_point_share": 1.0 - checks.failed_points / checks.points,
    }
    info = {
        "passes": len(passes),
        "frames": sum(p.frames for p in passes),
        "measured_s": sum(p.wall_s for p in passes),
        "frames_per_s_all_passes": sum(p.frames for p in passes) / sum(p.wall_s for p in passes),
        "frame_us_tail_percentile": pct,
        "frame_us_tail_samples": len(passes[0].rows),
        "failed_point_share": checks.failed_points / checks.points,
        "setup_s_samples": setup,
        "pass_series_s": [p.series_s for p in passes],
        "pass_point_us": [p.point_us() for p in passes],
    }
    return metrics, info, checks


# -- traced run ------------------------------------------------------------

def tap_scores(estimates) -> tuple[float, float]:
    """(matched true taps / true taps, spurious taps per estimate) over the
    affine tap estimates; a tap matches when its (delay, Doppler) is right."""
    matched = true_total = spurious = scored = 0
    for est, spec in estimates:
        if est.domain is not Domain.AFFINE or est.taps is None:
            continue
        truth = {(t.l, t.k) for t in spec.taps}
        found = {(t.l, t.k) for t in est.taps}
        scored += 1
        true_total += len(truth)
        matched += len(truth & found)
        spurious += len(found - truth)
    return matched / max(true_total, 1), spurious / max(scored, 1)


def run_traced(figures: tuple[str, ...], frames: int, seed: int, seconds: float,
               spans_path: Path) -> tuple[dict, dict, Checks]:
    series = build_series(figures, frames, seed, 1)
    warm_up(series)
    tracer = spans.Tracer()
    plain, traced = [], []
    elapsed = 0.0
    while not traced or elapsed * (len(traced) + 1) / len(traced) <= seconds:
        pair = run_pair(series, tracer)
        plain.append(pair[0])
        traced.append(pair[1])
        elapsed += plain[-1].wall_s + traced[-1].wall_s

    pool_tracer = spans.Tracer()
    pool_spans = spans.PoolSpans(pool_tracer)
    pool_spans.install()
    try:
        pooled = run_pass(build_series(figures, frames, seed, POOL_WORKERS))
    finally:
        pool_spans.uninstall()
    micro = {256: spans.daft_pair_us(256, 200), 4096: spans.daft_pair_us(4096, 20)}

    checks = Checks({**{f"plain pass {i}": p for i, p in enumerate(plain)},
                     **{f"traced pass {i}": p for i, p in enumerate(traced)},
                     f"{POOL_WORKERS}-worker pass": pooled})

    n_frames = sum(p.frames for p in traced)
    traced_s = sum(p.wall_s for p in traced)
    tot = tracer.totals()

    def per_frame(span: str, key: str = "total_s") -> float:
        return tot.get(span, {}).get(key, 0.0) / n_frames * 1e6

    layer_self: dict[str, float] = {}
    for span, t in tot.items():
        layer = span.split(".")[0]
        layer_self[layer] = layer_self.get(layer, 0.0) + t["self_s"]
    xf = [t for span, t in tot.items() if span.startswith("transforms.")]
    matched, spurious = tap_scores(tracer.estimates)
    pool_tot = pool_tracer.totals()
    plain_series_s = np.median([p.series_s for p in plain], axis=0)
    # traced time inside no span below run_point: run_point's own work and
    # everything outside run_point
    unaccounted_s = traced_s - tracer.covered_s("harness.run_point", lambda name: True)
    # detect_streams minus the equalize and transform spans inside it
    detect_self_s = tot.get("receiver.detect_streams", {}).get("total_s", 0.0) - tracer.covered_s(
        "receiver.detect_streams",
        lambda name: name == "receiver.equalize" or name.startswith("transforms."))

    metrics = {
        "core.frame_rng.us_per_frame": per_frame("core.frame_rng"),
        "core.modem.us_per_frame": per_frame("core.modem"),
        "core.frame_objects_per_frame": tracer.frames_built / n_frames,
        "transforms.calls_per_frame": sum(t["calls"] for t in xf) / n_frames,
        "transforms.us_per_frame": sum(t["total_s"] for t in xf) / n_frames * 1e6,
        "framing.resource_map.calls_per_frame":
            tot.get("framing.resource_map", {}).get("calls", 0) / n_frames,
        "framing.build_frame.us_per_frame": per_frame("framing.build_frame"),
        "framing.split_messages.us_per_frame": per_frame("framing.split_messages"),
        "framing.extract_received_planes.us_per_frame":
            per_frame("framing.extract_received_planes"),
        "channel.apply_channel.us_per_frame": per_frame("channel.apply_channel"),
        "receiver.estimate_channel_affine.us_per_frame":
            per_frame("receiver.estimate_channel_affine"),
        "receiver.estimate_channel_freq.us_per_frame":
            per_frame("receiver.estimate_channel_freq"),
        "receiver.equalize.us_per_frame": per_frame("receiver.equalize"),
        "receiver.detect_streams.self_us_per_frame":
            detect_self_s / n_frames * 1e6,
        "receiver.taps_matched_ratio": matched,
        "receiver.taps_spurious_per_frame": spurious,
        "baseline.run_baseline_frame.us_per_frame": per_frame("baseline.run_baseline_frame"),
        "harness.self_us_per_frame": per_frame("harness.run_point", "self_s"),
        "harness.pool_wait_us_per_frame":
            pool_tot.get("harness.pool_map", {}).get("self_s", 0.0) / pooled.frames * 1e6,
        "harness.pool_start_s": float(np.mean(pool_spans.start_s)),
        "trace.overhead_share": median_of(traced, lambda p: p.wall_s)
                                / median_of(plain, lambda p: p.wall_s) - 1.0,
        "trace.unaccounted_share": unaccounted_s / traced_s,
        "trace.max_layer_self_share": max(layer_self.values()) / traced_s,
    }
    for n, us in micro.items():
        flop, nbytes = spans.daft_pair_cost(n)
        metrics[f"transforms.daft_pair_us.n{n}"] = us
        metrics[f"transforms.daft_pair_flop.n{n}"] = flop
        metrics[f"transforms.daft_pair_bytes.n{n}"] = nbytes
    fig_s = dict.fromkeys(FIGURES, 0.0)
    fig_frames = dict.fromkeys(FIGURES, 0)
    for s, series_s in zip(series, plain_series_s):
        fig_s[s.figure] += float(series_s)
        fig_frames[s.figure] += s.sim.frames_per_point * len(s.sim.snr_grid_db)
    for fig in FIGURES:
        metrics[f"experiments.{fig}.us_per_frame"] = \
            fig_s[fig] / fig_frames[fig] * 1e6 if fig_frames[fig] else 0.0

    tracer.save(spans_path)
    info = {
        "plain_passes": len(plain),
        "traced_passes": len(traced),
        "traced_frames": n_frames,
        "traced_s": traced_s,
        "layer_self_share": {k: v / traced_s for k, v in
                             sorted(layer_self.items(), key=lambda kv: -kv[1])},
        "span_self_share": {k: t["self_s"] / traced_s for k, t in
                            sorted(tot.items(), key=lambda kv: -kv[1]["self_s"])},
        "presets_not_in_workload": [f for f in FIGURES if not fig_frames[f]],
        "pools_started": len(pool_spans.start_s),
        "spans_file": str(spans_path.relative_to(ROOT)),
    }
    return metrics, info, checks


# -- manifest and report ---------------------------------------------------

def git_revision() -> str | None:
    """HEAD commit read from ``.git`` without running git; None outside a
    git checkout."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return None


def source_sha256() -> str:
    h = hashlib.sha256()
    for path in sorted(SRC.rglob("*.py")):
        h.update(str(path.relative_to(SRC)).encode() + b"\0" + path.read_bytes())
    return h.hexdigest()


def blas_threads() -> int | None:
    """Thread count reported by the OpenBLAS that numpy loaded."""
    import ctypes
    libs = Path(np.__file__).parent.parent / "numpy.libs"
    for lib in sorted(libs.glob("lib*openblas*.so*")):
        handle = ctypes.CDLL(str(lib))
        for symbol in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                       "openblas_get_num_threads"):
            fn = getattr(handle, symbol, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                return int(fn())
    return None


def manifest(args, frames: int) -> dict:
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "git_revision": git_revision(),
        "source_sha256": source_sha256(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "nproc": len(os.sched_getaffinity(0)),
        "blas_threads": blas_threads(),
        "blas_thread_env": {var: os.environ.get(var) for var in BLAS_THREAD_ENV},
        "pool_workers": POOL_WORKERS,
        "workload": args.workload,
        "seed": args.seed,
        "frames_per_point": frames,
        "seconds": args.seconds,
        "trace": args.trace,
        "workloads": {w["name"]: {"figures": list(WORKLOADS[w["name"]]), "why": w["why"]}
                      for w in SPEC["workloads"]},
    }


def run(args) -> int:
    figures = WORKLOADS[args.workload]
    frames = args.frames or FRAMES_PER_POINT
    OUT.mkdir(exist_ok=True)
    stem = OUT / f"{args.workload}-seed{args.seed}-trace{args.trace}"
    if args.trace:
        metrics, info, checks = run_traced(figures, frames, args.seed, args.seconds,
                                           stem.with_name(stem.name + "-spans.npz"))
        units = PER_LAYER
    else:
        metrics, info, checks = run_end_to_end(figures, frames, args.seed, args.seconds)
        units = END_TO_END
    result = {
        "correct": checks.failed == 0,
        "attempted": checks.attempted,
        "failed": checks.failed,
        "metrics": {k: {"value": metrics[k], "unit": u} for k, u in units.items()},
    }
    info["csv_sha256"] = checks.csv_sha256
    report = stem.with_suffix(".json")
    with open(report, "w", encoding="utf-8") as f:
        json.dump({"manifest": manifest(args, frames), "result": result, "info": info,
                   "problems": checks.problems}, f, indent=2)
        f.write("\n")

    print(f"workload {args.workload} seed {args.seed} trace {args.trace} "
          f"frames/point {frames}")
    for key in ("csv_sha256", "passes", "frame_us_tail_percentile", "frame_us_tail_samples",
                "failed_point_share", "plain_passes", "traced_passes",
                "presets_not_in_workload"):
        if key in info:
            print(f"{key} {info[key]}")
    if args.trace:
        print("layer self share: " + ", ".join(
            f"{k} {v:.3f}" for k, v in info["layer_self_share"].items()))
        print("largest span self share: " + ", ".join(
            f"{k} {v:.3f}" for k, v in list(info["span_self_share"].items())[:5]))
    for problem in checks.problems[:20]:
        print(f"check failed: {problem}")
    for k, u in units.items():
        print(f"{k} {metrics[k]!r} {u}")
    print(f"report {report.relative_to(ROOT)}")
    print(json.dumps(result))
    return 0
