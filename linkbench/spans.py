"""In-memory span tracing of afdmrsma's public functions, from outside the package.

The simulator modules call each other through module attributes (for
example ``harness.build_frame`` or ``receiver.equalize``).  ``Tracer.patch``
replaces those attributes with wrappers that record one span per call:
name, start, end and the index of the enclosing span.  Spans live in flat
arrays while the run goes on and are written out once at the end.  Nothing
under ``src/`` changes; ``restore`` puts every original function back.

Span names are ``<layer>.<function>``, where the layer is the module that
defines the function (``core``, ``transforms``, ``framing``, ``channel``,
``receiver``, ``baseline``, ``harness``).
"""
from __future__ import annotations

import functools
import time
from array import array
from concurrent.futures import ProcessPoolExecutor

import numpy as np

from afdmrsma import baseline, core, framing, harness, receiver

# (module, the attributes its code looks other functions up by).  Every call
# into a public function from inside the package goes through one of these.
_TRANSFORMS = {"dft", "idft", "daft", "idaft", "affine_to_freq", "freq_to_affine"}
_MODEM = {"random_bits", "modulate_bits", "demodulate_symbols"}


def _span_name(attr: str, defining_module: str) -> str:
    if attr in _TRANSFORMS:
        return f"transforms.{attr}"
    if attr in _MODEM:
        return "core.modem"
    return f"{defining_module}.{attr}"


PATCH_POINTS = [
    (harness, ("run_point", "frame_rng", "random_bits", "modulate_bits",
               "split_messages", "build_frame", "required_bits_per_user",
               "capacity_counts", "extract_received_planes", "frame_energy_budget",
               "apply_channel", "estimate_channel_affine", "estimate_channel_freq",
               "detect_streams", "estimate_nmse", "run_baseline_frame")),
    (framing, ("resource_map", "capacity_counts", "required_bits_per_user",
               "modulate_bits", "dft", "idft", "daft", "affine_to_freq")),
    (receiver, ("equalize", "extract_received_planes", "resource_map",
                "frame_energy_budget", "build_affine_common", "build_affine_extra",
                "build_affine_pilot", "build_freq_private", "demodulate_symbols",
                "modulate_bits", "daft", "idaft", "affine_to_freq", "freq_to_affine")),
    (baseline, ("modulate_bits", "demodulate_symbols", "apply_channel", "dft", "idft")),
]


class Tracer:
    """Flat span store: names[i], start[i], end[i], parent[i] (-1 at top)."""

    def __init__(self):
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self.name_id = array("i")
        self.start = array("d")
        self.end = array("d")
        self.parent = array("i")
        self._stack = [-1]
        self._saved: list[tuple[object, str, object]] = []
        self.frames_built = 0
        self.estimates: list[tuple[object, object]] = []

    def _id(self, name: str) -> int:
        if name not in self._ids:
            self._ids[name] = len(self.names)
            self.names.append(name)
        return self._ids[name]

    def begin(self, name: str) -> int:
        i = len(self.start)
        self.name_id.append(self._id(name))
        self.parent.append(self._stack[-1])
        self.end.append(0.0)
        self._stack.append(i)
        self.start.append(time.perf_counter())
        return i

    def finish(self, i: int) -> None:
        self.end[i] = time.perf_counter()
        self._stack.pop()

    def wrap(self, name: str, fn):
        begin, finish = self.begin, self.finish

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            i = begin(name)
            try:
                return fn(*args, **kwargs)
            finally:
                finish(i)
        return traced

    def _set(self, owner, attr: str, value) -> None:
        self._saved.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, value)

    def patch(self) -> None:
        """Wrap every patch point, count Frame constructions and keep each
        (tap estimate, true channel) pair that reaches the NMSE scorer."""
        for module, attrs in PATCH_POINTS:
            for attr in attrs:
                fn = getattr(module, attr)
                self._set(module, attr, self.wrap(_span_name(attr, fn.__module__.split(".")[-1]), fn))

        nmse = harness.estimate_nmse
        estimates = self.estimates

        def scored(est, true_spec, n):
            estimates.append((est, true_spec))
            return nmse(est, true_spec, n)
        self._set(harness, "estimate_nmse", scored)

        post_init = core.Frame.__post_init__

        def counted(frame):
            self.frames_built += 1
            post_init(frame)
        self._set(core.Frame, "__post_init__", counted)

    def restore(self) -> None:
        while self._saved:
            owner, attr, value = self._saved.pop()
            setattr(owner, attr, value)

    def arrays(self) -> dict[str, np.ndarray]:
        return {"name_id": np.frombuffer(self.name_id, dtype=np.int32),
                "start": np.frombuffer(self.start), "end": np.frombuffer(self.end),
                "parent": np.frombuffer(self.parent, dtype=np.int32)}

    def totals(self) -> dict[str, dict[str, float]]:
        """Per span name: calls, total seconds and self seconds (duration
        minus the durations of its direct child spans)."""
        a = self.arrays()
        dur = a["end"] - a["start"]
        child = np.zeros_like(dur)
        inner = a["parent"] >= 0
        np.add.at(child, a["parent"][inner], dur[inner])
        k = len(self.names)
        calls = np.bincount(a["name_id"], minlength=k)
        total = np.bincount(a["name_id"], weights=dur, minlength=k)
        own = np.bincount(a["name_id"], weights=dur - child, minlength=k)
        return {name: {"calls": int(calls[i]), "total_s": float(total[i]),
                       "self_s": float(own[i])} for i, name in enumerate(self.names)}

    def covered_s(self, root: str, match) -> float:
        """Seconds spent inside spans whose name satisfies ``match`` and
        that lie below a span named ``root``; a matching span nested in
        another one below the same root is counted once, as part of the
        outer one.  Spans are stored in call order, so a parent always
        comes before its children."""
        names = self.names
        is_root = [n == root for n in names]
        is_match = [bool(match(n)) for n in names]
        # state per span: 0 not below root, 1 below root, 2 inside a counted span
        state: list[int] = []
        covered = 0.0
        for i, (nid, p) in enumerate(zip(self.name_id, self.parent)):
            up = state[p] if p >= 0 else 0
            if up == 1 and is_match[nid]:
                covered += self.end[i] - self.start[i]
                up = 2
            elif up == 0 and is_root[nid]:
                up = 1
            state.append(up)
        return covered

    def save(self, path) -> None:
        np.savez_compressed(path, names=np.array(self.names), **self.arrays())


class PoolSpans:
    """Stands in for ``harness.ProcessPoolExecutor`` and records, in the
    parent process, the spans ``harness.pool_start`` (the first submit,
    which forks the workers) and ``harness.pool_map`` (the parent waiting
    for a point's chunks), and each pool's start time (construction plus
    first submit)."""

    def __init__(self, tracer: Tracer):
        self.tracer = tracer
        self.start_s: list[float] = []

    def install(self) -> None:
        self._saved = harness.ProcessPoolExecutor
        harness.ProcessPoolExecutor = self.pool_class()

    def uninstall(self) -> None:
        harness.ProcessPoolExecutor = self._saved

    def pool_class(self):
        start_s, tracer = self.start_s, self.tracer

        class TracedPool(ProcessPoolExecutor):
            def __init__(self, *args, **kwargs):
                t0 = time.perf_counter()
                super().__init__(*args, **kwargs)
                self._init_s = time.perf_counter() - t0
                self._started = False

            def submit(self, fn, /, *args, **kwargs):
                if self._started:
                    return super().submit(fn, *args, **kwargs)
                self._started = True
                span = tracer.begin("harness.pool_start")
                try:
                    return super().submit(fn, *args, **kwargs)
                finally:
                    tracer.finish(span)
                    start_s.append(self._init_s + tracer.end[span] - tracer.start[span])

            def map(self, fn, *iterables, **kwargs):
                span = tracer.begin("harness.pool_map")
                try:
                    return list(super().map(fn, *iterables, **kwargs))
                finally:
                    tracer.finish(span)

        return TracedPool


def daft_pair_cost(n: int) -> tuple[float, float]:
    """Computed (flop, bytes) of one ``idaft`` + ``daft`` pair at length n.

    Flop: two FFTs at the nominal 5 N log2 N, four complex multiplies
    (6 N each), two real scalings (2 N each), two conjugations (N each).
    Bytes: every elementwise step and FFT in ``transforms.py`` reads its
    complex128 operands and writes its result once, plus the copy ``Frame``
    makes: 12 array passes for idaft and 16 for daft, 16 N bytes each.
    Cache effects are ignored.
    """
    flop = 2 * 5 * n * np.log2(n) + 4 * 6 * n + 2 * 2 * n + 2 * n
    return float(flop), float(28 * 16 * n)


def daft_pair_us(n: int, reps: int, rounds: int = 5) -> float:
    """Median over ``rounds`` of the mean µs per idaft + daft pair."""
    from afdmrsma import AffineParams, Domain, Frame, daft, idaft
    p = AffineParams(n, 64, 1 / 256.0)
    rng = np.random.default_rng(0)
    x = Frame(rng.normal(size=n) + 1j * rng.normal(size=n), Domain.AFFINE)
    daft(idaft(x, p), p)   # fill the chirp cache
    samples = []
    for _ in range(rounds):
        t0 = time.perf_counter()
        for _ in range(reps):
            daft(idaft(x, p), p)
        samples.append((time.perf_counter() - t0) / reps * 1e6)
    return float(np.median(samples))
