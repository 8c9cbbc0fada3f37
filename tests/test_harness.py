"""Metrics, sweeps, emission, configuration and the CLI."""
import itertools
import json
import os
import re
import subprocess
import sys
import tracemalloc
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest

from afdmrsma import (AffineParams, Approach, ChannelSpec, ChannelTap, ConfigError, FrameConfig,
                      Frame, LinkResult, ReceiverMode, SimConfig, emit_results, measure_se,
                      run_sweep, run_sweeps)
from afdmrsma import channel, cli, core, experiments, harness, receiver, transforms
from afdmrsma.experiments import FIGURES, _ber_frame, emit_plot_data, fig5_sweeps
from afdmrsma.harness import (ESTIMATORS, _point_noise_var, _run_block, _run_task,
                              load_config, render_csv, run_point, sim_config_from_dict)
from oracles import run_frame


def small_sim(**kw):
    frame = FrameConfig(affine=AffineParams(64, 4), guard=8, phi_pilot=10.0,
                        phi1=4.0, phi2=1.0, cp_len=4, common_per_class=1)
    base = dict(frame=frame,
                taps=(ChannelTap(0.857, 0, 0), ChannelTap(0.514, 2, 0)),
                snr_grid_db=(0.0, 5.0, 10.0, 15.0, 20.0, 25.0),
                frames_per_point=40, seed=7)
    base.update(kw)
    return SimConfig(**base)


def aborting_sim():
    """A point that aborts on a frame the configuration does not decide: on
    an embedded pilot at zero noise, data on the pilot's residue class leaks
    into the affine peak search, and frame 6 of point 0 (seed 7) gets a tap
    estimate that zero forcing refuses."""
    return small_sim(frame=replace(small_sim().frame, approach=Approach.PILOT_AND_DATA,
                                   guard=9),
                     taps=(ChannelTap(0.857, 0, 0), ChannelTap(0.514, 2, 1)),
                     estimator="affine", noise_override=0.0, frames_per_point=7,
                     snr_grid_db=(10.0,))


class TestMeasureSe:
    def test_cap_at_30db(self):
        # perfect equalization: the per-RE rate caps at ~9.97 bits
        assert harness.SE_CAP_DB == 30.0
        se = measure_se([(0.0, 256)], frames=1, n=256)
        assert se == pytest.approx(np.log2(1 + 1000.0), abs=1e-9)
        assert se == pytest.approx(9.9672, abs=1e-3)

    def test_idle_resources_zero(self):
        assert measure_se([], frames=1, n=256) == 0.0
        assert measure_se([(0.0, 0)], frames=1, n=256) == 0.0

    def test_pilot_and_guard_are_overhead(self):
        # only data REs enter; 128 of 256 REs at SINR 3 -> half the rate
        se = measure_se([(128 / 3.0, 128)], frames=1, n=256)
        assert se == pytest.approx(0.5 * np.log2(4.0), abs=1e-9)

    def test_monotone_in_snr(self):
        lo = measure_se([(100.0, 100)], frames=1, n=256)
        hi = measure_se([(10.0, 100)], frames=1, n=256)
        assert hi > lo


class TestEmit:
    def header(self):
        return "snr_db,ber_common,ber_private,ber_total,se,channel_nmse,frames"

    def test_empty_results(self, tmp_path):
        path = tmp_path / "out.csv"
        emit_results([], "csv", path)
        assert path.read_text() == self.header() + "\n"

    def test_single_result(self, tmp_path):
        r = LinkResult(10.0, 0.1, 0.01, 0.0123456789012, 3.25, 1e-3, 40)
        path = tmp_path / "out.csv"
        emit_results([r], "csv", path)
        lines = path.read_text().strip().split("\n")
        assert lines[0] == self.header()
        # floats carry 10 significant digits
        assert lines[1] == "10,0.1,0.01,0.0123456789,3.25,0.001,40"

    def test_json_round_trip(self, tmp_path):
        r = LinkResult(10.0, 0.1, 0.01, 0.05, 3.25, 1e-3, 40)
        path = tmp_path / "out.json"
        emit_results([r], "json", path)
        back = json.loads(path.read_text())
        assert back == [r.row()]

    def test_unwritable_path(self):
        with pytest.raises(IOError):
            emit_results([], "csv", "/nonexistent-dir/x.csv")


class TestRunSweep:
    def test_monotone_ber(self):
        res = run_sweep(small_sim(estimator="freq"))
        assert len(res) == 6
        for a, b in zip(res, res[1:]):
            tol = 2 * (a.ber_total_stderr + b.ber_total_stderr)
            assert b.ber_total <= a.ber_total + tol

    def test_zero_noise_perfect_csi_zero_ber(self):
        # the power ratio and spreading class size must keep the worst-case
        # cross-stream images inside the QPSK decision cells
        frame = FrameConfig(affine=AffineParams(256, 4), guard=8, phi_pilot=10.0,
                            phi1=25.0, phi2=1.0, cp_len=4, common_per_class=1)
        res = run_sweep(small_sim(frame=frame, estimator="perfect-freq",
                                  noise_override=0.0, frames_per_point=10))
        for r in res:
            assert r.ber_total == 0.0

    def test_determinism_two_runs(self):
        a = render_csv(run_sweep(small_sim(frames_per_point=5)))
        b = render_csv(run_sweep(small_sim(frames_per_point=5)))
        assert a == b

    def test_determinism_across_workers(self):
        a = render_csv(run_sweep(small_sim(frames_per_point=8, workers=1)))
        b = render_csv(run_sweep(small_sim(frames_per_point=8, workers=3)))
        assert a == b

    def test_determinism_doppler_path(self):
        # the affine-estimation + matrix-equalizer pipeline is equally
        # order-independent; guard 9 holds the (l=2, k=1) tap's shift span
        # of c1' l + k = 9, so every frame is scored
        frame = replace(small_sim().frame, guard=9)
        taps = (ChannelTap(0.857, 0, 0), ChannelTap(0.514, 2, 1))
        runs = [run_sweep(small_sim(frame=frame, taps=taps, frames_per_point=6,
                                    workers=w, snr_grid_db=(10.0, 20.0)))
                for w in (1, 2)]
        for res in runs:
            assert all(r.diagnostics == "" and r.frames == 6 for r in res)
        assert render_csv(runs[0]) == render_csv(runs[1])

    def test_diagnostic_row_on_failure(self):
        # one frame that zero forcing refuses aborts the point
        res = run_sweep(aborting_sim())
        assert len(res) == 1
        assert res[0].diagnostics.startswith("SingularChannel: ")
        assert np.isnan(res[0].ber_total)
        assert res[0].frames == 0

    def test_negative_doppler_refused_by_affine_estimator(self):
        frame = replace(small_sim().frame, guard=9)   # holds the k=+1 shift span
        for k, estimator in ((1, "affine"), (-1, "perfect-affine")):
            small_sim(frame=frame, taps=(ChannelTap(0.857, 0, 0), ChannelTap(0.514, 2, k)),
                      estimator=estimator)
        with pytest.raises(ConfigError):
            small_sim(frame=frame, taps=(ChannelTap(0.857, 0, 0), ChannelTap(0.514, 2, -1)),
                      estimator="affine")

    def test_baseline_runs_no_estimator(self):
        # the baseline estimates nothing, so the affine estimator's refusal of
        # negative Doppler does not reach it
        taps = (ChannelTap(0.857, 0, 0), ChannelTap(0.514, 2, -1))
        with pytest.raises(ConfigError, match="negative-Doppler"):
            small_sim(taps=taps)
        res = run_sweep(small_sim(taps=taps, baseline=True, frames_per_point=2,
                                  snr_grid_db=(10.0,)))
        assert res[0].diagnostics == "" and res[0].frames == 2

    def test_guard_too_small_for_affine_search_refused(self):
        # c1' l + k = 4 * 2 + 1 = 9 exceeds guard 8
        taps = (ChannelTap(0.857, 0, 0), ChannelTap(0.514, 2, 1))
        with pytest.raises(ConfigError, match="exceeds guard 8"):
            small_sim(taps=taps)
        # the baseline and the genie estimators never search the guard
        small_sim(taps=taps, baseline=True)
        small_sim(taps=taps, estimator="perfect-affine")
        # a delay of more than guard // c1' is refused too, not left out of the
        # search: c1' l = 4 * 3 = 12 exceeds guard 8
        with pytest.raises(ConfigError, match="span 12 .* exceeds guard 8"):
            small_sim(taps=(ChannelTap(0.857, 0, 0), ChannelTap(0.514, 3, 0)),
                      estimator="affine")
        # fig5's embedded-pilot series (c1' = 64, guard 1) cannot hold any delay
        embedded = fig5_sweeps(frames=10)[1][1]
        assert embedded.estimator == "affine" and embedded.frame.guard == 1
        with pytest.raises(ConfigError, match="span 64 .* exceeds guard 1"):
            replace(embedded, snr_grid_db=(25.0,),
                    taps=(ChannelTap(0.9, 0, 0), ChannelTap(0.43, 1, 0)))

    def test_freq_estimator_delay_bound(self):
        # c1' = 16 leaves M = 4 pilot subcarrier taps to resolve the delay spread
        frame = replace(small_sim().frame, affine=AffineParams(64, 16), cp_len=8)
        for l, ok in ((3, True), (4, False)):
            taps = (ChannelTap(0.8, 0, 0), ChannelTap(0.6, l, 0))
            if ok:
                small_sim(frame=frame, taps=taps, estimator="freq")
                continue
            with pytest.raises(ConfigError, match="needs max delay < M=4"):
                small_sim(frame=frame, taps=taps, estimator="freq")
            # the genie estimator and the baseline never estimate delays
            small_sim(frame=frame, taps=taps, estimator="perfect-freq")
            small_sim(frame=frame, taps=taps, estimator="freq", baseline=True)

    def test_freq_estimator_needs_a_delay_only_tap(self):
        # the freq estimate is scored against the response of the k = 0 taps;
        # without one that response is zero and the NMSE would read inf
        frame = small_sim().frame
        for taps in ((ChannelTap(1.0, 0, 1),),
                     (ChannelTap(0.8, 0, 1), ChannelTap(0.6, 2, 1))):
            with pytest.raises(ConfigError, match="needs a delay-only"):
                small_sim(frame=frame, taps=taps, estimator="freq")
            # the genie frequency response is refused too: it needs a
            # delay-only channel; the baseline estimates nothing
            with pytest.raises(ConfigError):
                small_sim(frame=frame, taps=taps, estimator="perfect-freq")
            small_sim(frame=frame, taps=taps, estimator="freq", baseline=True)
        small_sim(frame=frame, taps=(ChannelTap(0.8, 0, 0), ChannelTap(0.6, 2, 1)),
                  estimator="freq")

    def test_baseline_null_channel_is_refused(self):
        # an all-Doppler channel has a zero one-tap diagonal: zero forcing
        # through it would fail at every frame, so the config is refused
        with pytest.raises(ConfigError, match="zero-forcing through a channel null"):
            SimConfig(frame=_ber_frame(10.0), taps=(ChannelTap(1.0, 0, 1),),
                      snr_grid_db=(10.0,), frames_per_point=3, baseline=True,
                      noise_override=0.0)
        # at nonzero noise the one-tap MMSE runs through it
        sim = SimConfig(frame=_ber_frame(10.0), taps=(ChannelTap(1.0, 0, 1),),
                        snr_grid_db=(10.0,), frames_per_point=3, baseline=True)
        assert run_sweep(sim)[0].frames == 3

    def test_genie_estimates_are_built_at_construction(self, monkeypatch):
        # the baseline's diagonal and the perfect-* estimates and their NMSE
        # are fixed by the config, so no block builds or scores them again
        frame = replace(small_sim().frame, guard=9)
        sims = [small_sim(frames_per_point=5, snr_grid_db=(0.0, 20.0), **kw) for kw in (
            dict(estimator="perfect-freq"), dict(baseline=True),
            dict(estimator="perfect-affine", frame=frame,
                 taps=(ChannelTap(0.857, 0, 0), ChannelTap(0.514, 2, 1))))]
        want = run_sweeps(sims)

        def built(*args):
            raise AssertionError("a genie estimate was built or scored after construction")
        for name in ("harness.perfect_estimate", "harness.frequency_diagonal",
                     "baseline.frequency_diagonal", "harness.estimate_nmse"):
            monkeypatch.setattr(f"afdmrsma.{name}", built)
        _assert_same_records(run_sweeps(sims), want)

    def test_frame_objects_only_at_the_public_boundary(self, monkeypatch):
        # build_frame, apply_channel, the two received planes and equalize
        # return a Frame per scheme frame; add_cp and apply_channel per
        # baseline frame
        built = []
        post_init = Frame.__post_init__

        def counted(frame):
            built.append(frame.domain)
            post_init(frame)
        sims = {5: small_sim(frames_per_point=3, snr_grid_db=(10.0, 20.0)),
                2: small_sim(frames_per_point=3, snr_grid_db=(10.0, 20.0), baseline=True)}
        monkeypatch.setattr(Frame, "__post_init__", counted)
        for per_frame, sim in sims.items():
            built.clear()
            res = run_sweep(sim)
            assert [r.frames for r in res] == [3, 3]
            assert len(built) <= per_frame * 6

    def test_invalid_config(self):
        with pytest.raises(ConfigError):
            small_sim(frames_per_point=0)
        with pytest.raises(ConfigError):
            small_sim(snr_grid_db=())
        # refused at construction, not once per SNR point as a NaN row
        with pytest.raises(ConfigError, match="unknown estimator 'bogus'"):
            small_sim(estimator="bogus")


# channels of the construction grid below (N = 64, c1' = 4, cp_len = 4), as
# (h, delay, Doppler) taps
_GRID_TAPS = {
    "delay-only": ((0.857, 0, 0), (0.514, 2, 0)),
    "delay-doppler": ((0.857, 0, 0), (0.514, 2, 1)),
    "negative-doppler": ((0.857, 0, 0), (0.514, 2, -1)),
    "doppler-only": ((0.8, 0, 1), (0.6, 1, 2)),
    "beyond-frame": ((0.857, 0, 0), (0.514, 64 + 4, 0)),   # delay N + cp_len
}


def test_a_config_that_constructs_also_runs():
    # every estimator, pilot layout, baseline switch, guard and noise level
    # over each channel, in one run on two workers: SimConfig refuses the
    # configuration, or every point runs without a diagnostic and with finite
    # results
    sims, refused = [], 0
    for estimator, approach, baseline, guard, taps, noise in itertools.product(
            ESTIMATORS, Approach, (False, True), (1, 9), _GRID_TAPS.values(), (None, 0.0)):
        try:
            sims.append(small_sim(
                frame=replace(small_sim().frame, approach=approach, guard=guard),
                taps=tuple(ChannelTap(*t) for t in taps), estimator=estimator,
                baseline=baseline, frames_per_point=2, snr_grid_db=(10.0,),
                noise_override=noise, workers=2))
        except ConfigError:
            refused += 1
    for sim, res in zip(sims, run_sweeps(sims)):
        assert all(r.diagnostics == "" for r in res), (sim, res)
        assert all(np.isfinite(v) for r in res for v in r.row().values()), (sim, res)
    assert sims and refused


# configurations that a stage would refuse at every SNR point, as edits of
# TestConfigLoading's config, with the refusal's message
_REFUSED = {
    "perfect-freq-over-doppler": (
        {"channel": {"taps": [[0.857, 0.0, 0, 0], [0.514, 0.0, 2, 1]]},
         "sweep": {"estimator": "perfect-freq"}}, "defined for delay-only channels"),
    "freq-on-embedded-pilot": (
        {"frame": {"approach": 2}, "sweep": {"estimator": "freq"}},
        "embedded-pilot frames carry data on the pilot subcarriers"),
    **{f"delay-beyond-frame-{name}": (
        {"channel": {"taps": [[0.857, 0.0, 0, 0], [0.514, 0.0, 68, 0]]}, "sweep": sweep},
        "delay 68 >= frame length 68")
       for name, sweep in (("perfect-freq", {"estimator": "perfect-freq"}),
                           ("perfect-affine", {"estimator": "perfect-affine"}),
                           ("baseline", {"baseline": True}))},
    "no-taps": ({"channel": {"taps": [], "normalize": False}, "sweep": {"estimator": "freq"}},
                "need at least one tap"),
    "negative-noise": ({"channel": {"noise_var": -1.0}}, "noise variance must be >= 0"),
    # taps that cancel would leave the affine estimator no tap at zero noise
    "cancelling-taps": (
        {"channel": {"taps": [[1.0, 0.0, 0, 0], [-1.0, 0.0, 0, 0]], "normalize": False,
                     "noise_var": 0.0},
         "sweep": {"estimator": "affine"}},
        "two taps share one"),
    # scored against the last of the repeated taps, not against their sum
    "repeated-taps": (
        {"frame": {"guard": 9},
         "channel": {"taps": [[0.7, 0.0, 0, 0], [0.6, 0.0, 2, 1], [0.3, 0.0, 2, 1]]},
         "sweep": {"estimator": "affine"}}, "two taps share one"),
    "zero-power": ({"channel": {"taps": [[0.0, 0.0, 0, 0]]}}, "zero total power"),
    "no-workers": ({"sweep": {"workers": 0}}, "workers must be >= 1"),
    "unknown-key": ({"sweep": {"frames_per_pont": 5}},
                    "unknown config key sweep.frames_per_pont"),
    # the noiseless sweep is "channel": {"noise_var": 0}
    "zero-noise-key": ({"sweep": {"zero_noise": True}}, "unknown config key sweep.zero_noise"),
    "output-format": ({"output": {"format": "xml"}}, "unknown output format 'xml'"),
    # zero forcing through a genie response: equal taps at delays 0 and 1
    # null subcarrier N/2, and an all-Doppler channel has a zero diagonal
    "null-response-perfect-freq": (
        {"channel": {"taps": [[0.7, 0.0, 0, 0], [0.7, 0.0, 1, 0]], "noise_var": 0.0},
         "sweep": {"estimator": "perfect-freq"}}, "zero-forcing through a channel null"),
    "null-diagonal-baseline": (
        {"channel": {"taps": [[1.0, 0.0, 0, 1]], "noise_var": 0.0}, "sweep": {"baseline": True}},
        "zero-forcing through a channel null"),
    # the same null through the genie's taps: one shift, so a one-tap solve
    "null-response-perfect-affine": (
        {"channel": {"taps": [[0.7, 0.0, 0, 0], [0.7, 0.0, 1, 0]], "noise_var": 0.0},
         "sweep": {"estimator": "perfect-affine"}}, "zero-forcing through a channel null"),
}


def _refused_config(case):
    cfg = TestConfigLoading().config_dict()
    edits, message = _REFUSED[case]
    for section, values in edits.items():
        cfg[section].update(values)
    return cfg, message


@pytest.mark.parametrize("case", list(_REFUSED))
def test_refused_at_construction(case):
    cfg, message = _refused_config(case)
    with pytest.raises(ConfigError, match=message):
        sim_config_from_dict(cfg)


# LinkResult fields that depend on the frames alone, not on the clock
_RECORD_FIELDS = ("snr_db", "ber_common", "ber_private", "ber_total", "se", "channel_nmse",
                  "frames", "se_stderr", "ber_total_stderr")


def _assert_same_records(got, want):
    assert len(got) == len(want)
    for a, b in zip(got, want):
        assert [r.diagnostics for r in a] == [r.diagnostics for r in b]
        assert np.array_equal([[getattr(r, f) for f in _RECORD_FIELDS] for r in a],
                              [[getattr(r, f) for f in _RECORD_FIELDS] for r in b],
                              equal_nan=True)


class TestRunSweeps:
    failing = aborting_sim()
    single = small_sim(estimator="freq", frames_per_point=9, snr_grid_db=(10.0,))

    def mix(self):
        """Frame sizes 64 and 128, three estimators, the baseline and a
        failing point: 8 points in all."""
        frame = small_sim().frame
        return [
            small_sim(estimator="freq", frames_per_point=5, snr_grid_db=(0.0, 20.0)),
            small_sim(frame=replace(frame, affine=AffineParams(128, 4)), frames_per_point=4,
                      estimator="perfect-affine", snr_grid_db=(5.0, 15.0)),
            small_sim(frame=replace(frame, guard=9), estimator="affine", frames_per_point=7,
                      taps=(ChannelTap(0.857, 0, 0), ChannelTap(0.514, 2, 1)),
                      snr_grid_db=(10.0, 25.0)),
            small_sim(baseline=True, frames_per_point=3, snr_grid_db=(10.0,)),
            self.failing,
        ]

    def test_records_equal_at_every_worker_count(self, monkeypatch):
        cuts = []
        point_result = harness._point_result

        def counted(sim, point, outputs):
            cuts.append(len(outputs))
            return point_result(sim, point, outputs)
        monkeypatch.setattr(harness, "_point_result", counted)
        runs = {}
        for w in (1, 2, 3):
            cuts.clear()
            runs[w] = [run_sweeps([replace(sim, workers=w) for sim in sims])
                       for sims in (self.mix(), [self.single], [self.failing])]
            # the mix has more points than workers, so no point is cut; a
            # single point run alone is cut into one frame range per worker
            assert cuts == [1] * 8 + [w, w]
        assert runs[1][0][-1][0].diagnostics.startswith("SingularChannel: ")
        assert runs[1][0][-1][0].frames == 0
        assert runs[1][1][0][0].frames == 9
        for w in (2, 3):
            for got, want in zip(runs[w], runs[1]):
                _assert_same_records(got, want)

    def test_emit_plot_data_starts_one_pool(self, tmp_path, monkeypatch):
        pools = []

        class Counted(harness.ProcessPoolExecutor):
            def __init__(self, *args, **kwargs):
                pools.append(kwargs)
                super().__init__(*args, **kwargs)
        monkeypatch.setattr(harness, "ProcessPoolExecutor", Counted)
        paths = emit_plot_data(str(tmp_path), frames=1, workers=2)
        assert pools == [{"max_workers": 2}]
        assert [Path(p).name for p in paths] == [f"{name}.csv" for name in FIGURES]


# every series of the bundled figure presets, fig5 to fig9
PRESET_SERIES = [(f"{fig}/{label}", sim) for fig in sorted(FIGURES)
                 for label, sim in FIGURES[fig](frames=20)]


def _point_args(sim, point):
    return (_point_noise_var(sim, sim.snr_grid_db[point]),)


def _reference(sim, point, frames):
    """The records of ``frames`` from the per-frame reference,
    ``oracles.run_frame``."""
    args = _point_args(sim, point)
    return np.array([run_frame(sim, point, f, *args) for f in frames], dtype=np.float64)


class TestBlockEngine:
    """Each frame of a block keeps its own draws and is computed row by row
    with the reference's operations, so every field (error counts, energies,
    NMSE, SE, BER) equals the per-frame reference's bit for bit.  The
    reference has its own loop peak search and dict-based NMSE."""

    @pytest.mark.parametrize("sim", [s for _, s in PRESET_SERIES],
                             ids=[name for name, _ in PRESET_SERIES])
    def test_preset_records_equal_run_frame(self, sim):
        # one full block and a partial one, at whatever block size
        step = harness._BLOCK_SAMPLES // sim.frame.n
        frames = step + max(1, step // 4)
        assert 0 < frames - step < step
        sim = replace(sim, frames_per_point=frames)
        for point in (0, len(sim.snr_grid_db) - 1):
            got, _ = _run_task((sim, point, 0, 1))
            assert np.array_equal(got, _reference(sim, point, range(frames)))

    def test_only_the_affine_estimator_analyses_the_affine_plane(self, monkeypatch):
        # the affine plane feeds the affine peak search alone
        calls = []
        daft = harness._daft

        def counted(*args):
            calls.append(args)
            return daft(*args)
        monkeypatch.setattr(harness, "_daft", counted)
        frame = replace(small_sim().frame, guard=9)
        for estimator, want in (("freq", 0), ("perfect-affine", 0), ("affine", 1)):
            sim = small_sim(frame=frame, estimator=estimator)
            calls.clear()
            _run_block(sim, 0, range(4), *_point_args(sim, 0))
            assert len(calls) == want, estimator

    @pytest.mark.parametrize("kw", [
        dict(estimator="affine"),            # delay-only taps: NMSE by the response
        dict(estimator="perfect-freq", mode=ReceiverMode.SIC_FULL),
        dict(estimator="perfect-affine", mode=ReceiverMode.SIC_CLEAN_PILOT),
        dict(estimator="freq", noise_override=0.0),
        dict(estimator="affine", noise_override=1e-3,
             taps=(ChannelTap(0.857, 0, 0), ChannelTap(0.4, 1, 0), ChannelTap(0.3, 2, 1))),
    ], ids=["affine", "perfect-freq", "perfect-affine", "noiseless", "three-taps"])
    def test_other_estimators_equal_run_frame(self, kw):
        frame = replace(small_sim().frame, guard=9)
        sim = small_sim(frame=frame, **kw)
        for point in (0, 4):
            got = _run_block(sim, point, range(3, 23), *_point_args(sim, point))
            assert np.array_equal(got, _reference(sim, point, range(3, 23)))

    @pytest.mark.parametrize("name", ["fig5/clean-pilot", "fig5/embedded-pilot",
                                      "fig5/conventional-rsma", "fig9/sic-pilot10"])
    def test_large_and_split_blocks_equal_run_frame(self, name):
        # one block of 100 frames holds arrays of 400 KiB, beyond the 256 KiB
        # at which numpy computes ``a * temporary`` in place as ``temporary * a``,
        # which rounds complex products differently; the same frames split at
        # other bounds give the same rows
        sim = dict(PRESET_SERIES)[name]
        point = 4
        args = _point_args(sim, point)
        whole = _run_block(sim, point, range(0, 100), *args)
        assert np.array_equal(whole, _reference(sim, point, range(100)))
        parts = [_run_block(sim, point, range(a, b), *args)
                 for a, b in ((0, 7), (7, 50), (50, 100))]
        assert np.array_equal(np.concatenate(parts), whole)

    def test_point_memory_does_not_grow_with_frames(self):
        # frames run in fixed-size blocks, so a point's peak allocation does
        # not scale with its frame count
        sim = fig5_sweeps()[1][1]

        def peak(frames):
            s = replace(sim, frames_per_point=frames)
            run_point(s, 5)   # 20 dB; fill the caches outside the measurement
            tracemalloc.start()
            try:
                run_point(s, 5)
                return tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
        assert peak(400) <= 1.25 * peak(50)


def _arrays(obj):
    """Every numpy array in ``obj`` and the tuples, lists and dicts it holds."""
    if isinstance(obj, np.ndarray):
        yield obj
    elif isinstance(obj, dict):
        for value in obj.values():
            yield from _arrays(value)
    elif isinstance(obj, (tuple, list)):
        for value in obj:
            yield from _arrays(value)


def test_cached_arrays_are_read_only():
    # the per-configuration caches hand the same arrays to every block that
    # asks, so none of them may be written to
    cfg = replace(small_sim().frame, guard=9)
    taps = (ChannelTap(0.857, 0, 0), ChannelTap(0.514, 2, 1))
    cached = [core._philox(7), channel._tap_ramps(taps, cfg.n + cfg.cp_len),
              channel.frequency_diagonal(ChannelSpec(taps), cfg.n),
              receiver._pilot_subcarriers(cfg, 2), receiver._peak_zone(cfg, 2, 1),
              receiver._true_taps(taps), receiver._solve_rule((0, 2), (0, 1), cfg.n),
              receiver._spectra((0, 1, 3), cfg.n), receiver._band_plan((0, 1, 3), cfg.n),
              harness._se_counts((8, 0, 12), 1, 1), cfg.layout.common_gain,
              transforms._chirps(cfg.n, cfg.affine.c1_prime, cfg.affine.c2)]
    arrays = list(_arrays(cached))
    assert len(arrays) > 20 and not any(a.flags.writeable for a in arrays)


class TestConfigLoading:
    def config_dict(self):
        return {
            "frame": {"n": 64, "c1_prime": 4, "guard": 8, "pilot_power_db": 10,
                      "phi1": 4.0, "phi2": 1.0, "approach": 1, "cp_len": 4,
                      "common_per_class": 1},
            "channel": {"taps": [[1.0, 0.0, 0, 0], [0.6, 0.0, 2, 0]],
                        "normalize": True},
            "sweep": {"snr_db": [0, 10, 20], "frames_per_point": 5,
                      "mode": "sicfree", "seed": 3},
            "output": {"path": "r.csv", "format": "csv"},
        }

    def test_round_trip(self, tmp_path):
        path = tmp_path / "sim.json"
        path.write_text(json.dumps(self.config_dict()))
        raw = load_config(path)
        assert raw == self.config_dict()
        sim = sim_config_from_dict(raw)
        assert sim.frame.n == 64
        assert sim.frame.phi_pilot == pytest.approx(10.0)
        assert sum(abs(t.h) ** 2 for t in sim.taps) == pytest.approx(1.0)

    def test_missing_keys_leave_the_dataclass_defaults(self):
        # only pilot_power_db, taps, normalize and snr_db are read when missing
        frame = {"n": 64, "c1_prime": 4, "guard": 8, "phi1": 4.0, "phi2": 1.0}
        want = SimConfig(frame=FrameConfig(AffineParams(64, 4), guard=8, phi_pilot=10.0,
                                           phi1=4.0, phi2=1.0),
                         taps=(ChannelTap(1.0, 0, 0),), snr_grid_db=(0, 5, 10, 15, 20, 25))
        assert sim_config_from_dict({"frame": frame}) == want
        noiseless = {"frame": frame, "channel": {"noise_var": 0}}
        assert sim_config_from_dict(noiseless) == replace(want, noise_override=0.0)

    def test_readme_config_runs(self, tmp_path, monkeypatch):
        # the README's example config, the one JSON block it holds
        readme = Path(__file__).resolve().parent.parent / "README.md"
        (block,) = re.findall(r"```json\n(.*?)```", readme.read_text(encoding="utf-8"), re.S)
        monkeypatch.chdir(tmp_path)
        Path("sim.json").write_text(block)
        assert cli.main(["--config", "sim.json", "--frames", "2"]) == 0
        rows = Path(json.loads(block)["output"]["path"]).read_text().strip().split("\n")
        assert len(rows) == 1 + len(json.loads(block)["sweep"]["snr_db"])

    def test_bad_config(self):
        with pytest.raises(ConfigError):
            sim_config_from_dict({"frame": {"n": 64}})

    @pytest.mark.parametrize("part, key, value", [
        ("sweep", "baseline", "false"), ("sweep", "baseline", 0), ("channel", "normalize", "no"),
        ("channel", "normalize", 1), ("frame", "n", 64.9), ("frame", "n", "64"),
        ("frame", "n", True), ("frame", "approach", 1.5), ("frame", "approach", "1"),
        ("frame", "common_per_class", 0.5), ("sweep", "frames_per_point", 5.5),
        ("sweep", "seed", "3"), ("sweep", "seed", False), ("sweep", "workers", 1.25),
        ("channel", "taps", [[1.0, 0.0, 0.5, 0]]), ("channel", "taps", [[1.0, 0.0, 0, "1"]]),
    ])
    def test_value_of_the_wrong_type_refused(self, part, key, value):
        # bool keys take only JSON true or false; integer keys refuse bools,
        # strings and fractions, where int() or bool() would have run them
        raw = self.config_dict()
        raw[part][key] = value
        with pytest.raises(ConfigError, match=f"{part}.{key}"):
            sim_config_from_dict(raw)

    def test_integral_numbers_read_as_integers(self):
        raw = self.config_dict()
        raw["frame"].update(n=64.0, guard=8.0)
        raw["sweep"].update(frames_per_point=5.0, seed=3.0)
        raw["channel"]["taps"] = [[1.0, 0.0, 0.0, 0.0], [0.6, 0.0, 2.0, 0]]
        assert sim_config_from_dict(raw) == sim_config_from_dict(self.config_dict())

    def test_wrong_type_exit_code(self, tmp_path):
        raw = self.config_dict()
        raw["sweep"]["baseline"] = "false"
        path = tmp_path / "sim.json"
        path.write_text(json.dumps(raw))
        assert cli.main(["--config", str(path)]) == 1

    def test_missing_file(self, tmp_path):
        with pytest.raises(ConfigError):
            load_config(tmp_path / "nope.json")


def _no_sweep(sims):
    raise AssertionError("a refused config ran")


class TestCli:
    def run_cli(self, *args):
        src = str(Path(__file__).resolve().parent.parent / "src")
        path = os.pathsep.join(p for p in (src, os.environ.get("PYTHONPATH")) if p)
        return subprocess.run([sys.executable, "-m", "afdmrsma.cli", *args],
                              capture_output=True, text=True,
                              env={**os.environ, "PYTHONPATH": path})

    def test_sweep_and_overrides(self, tmp_path):
        cfg = TestConfigLoading().config_dict()
        path = tmp_path / "sim.json"
        path.write_text(json.dumps(cfg))
        out = tmp_path / "res.csv"
        r = self.run_cli("--config", str(path), "--snr-min", "0", "--snr-max", "10",
                         "--snr-step", "5", "--frames", "3", "--out", str(out),
                         "--seed", "9")
        assert r.returncode == 0, r.stderr
        lines = out.read_text().strip().split("\n")
        assert len(lines) == 4  # header + 3 points

    def test_json_format(self, tmp_path):
        cfg = TestConfigLoading().config_dict()
        path = tmp_path / "sim.json"
        path.write_text(json.dumps(cfg))
        out = tmp_path / "res.json"
        r = self.run_cli("--config", str(path), "--frames", "2", "--out", str(out),
                         "--format", "json")
        assert r.returncode == 0, r.stderr
        assert isinstance(json.loads(out.read_text()), list)

    def test_config_error_exit_code(self, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text("{\"frame\": {}}")
        assert self.run_cli("--config", str(path)).returncode == 1
        cfg = TestConfigLoading().config_dict()
        cfg["sweep"]["estimator"] = "bogus"
        path.write_text(json.dumps(cfg))
        r = self.run_cli("--config", str(path), "--out", str(tmp_path / "res.csv"))
        assert r.returncode == 1
        assert "unknown estimator 'bogus'" in r.stderr

    def test_aborted_point_exit_code(self, tmp_path):
        # aborting_sim as a config: frame 6 fails zero forcing
        cfg = TestConfigLoading().config_dict()
        cfg["frame"].update(approach=2, guard=9)
        cfg["channel"] = {"taps": [[0.857, 0.0, 0, 0], [0.514, 0.0, 2, 1]], "noise_var": 0}
        cfg["sweep"].update(estimator="affine", seed=7, snr_db=[10], frames_per_point=7)
        assert sim_config_from_dict(cfg) == aborting_sim()
        path = tmp_path / "sim.json"
        path.write_text(json.dumps(cfg))
        out = tmp_path / "res.csv"
        r = self.run_cli("--config", str(path), "--out", str(out))
        assert r.returncode == 2
        assert "aborted: SingularChannel" in r.stderr
        rows = out.read_text().strip().split("\n")[1:]
        assert len(rows) == 1 and ",nan," in rows[0]

    def test_plot_data_refuses_sweep_options(self, tmp_path):
        out = tmp_path / "plots"
        r = self.run_cli("--emit-plot-data", str(out), "--frames", "1",
                         "--out", str(out / "results.csv"))
        assert r.returncode == 1
        assert "ignores --out" in r.stderr
        assert not out.exists()

    def test_workers_below_one_refused(self, tmp_path, monkeypatch, capsys):
        # --workers is passed on as given, so 0 is refused with or without --config
        monkeypatch.setattr(harness, "run_sweeps", _no_sweep)
        monkeypatch.setattr(experiments, "run_sweeps", _no_sweep)
        monkeypatch.chdir(tmp_path)
        cfg = TestConfigLoading().config_dict()
        Path("sim.json").write_text(json.dumps(cfg))
        for flags in (["--config", "sim.json", "--workers", "-3"],
                      ["--emit-plot-data", "plots", "--frames", "1", "--workers", "0"]):
            assert cli.main(flags) == 1, flags
            assert "workers must be >= 1" in capsys.readouterr().err
        assert not Path(cfg["output"]["path"]).exists() and not Path("plots").exists()

    def test_missing_args_exit_code(self):
        assert self.run_cli().returncode == 1

    def test_unresolvable_delay_exit_code(self, tmp_path):
        freq = TestConfigLoading().config_dict()
        freq["frame"].update(c1_prime=16, cp_len=8)          # M = 4
        freq["channel"]["taps"] = [[0.8, 0.0, 0, 0], [0.6, 0.0, 5, 0]]
        freq["sweep"]["estimator"] = "freq"
        # fig5's embedded-pilot frame: c1' l = 64 * 1 exceeds guard 1
        affine = {"frame": {"n": 256, "c1_prime": 64, "guard": 1, "pilot_power_db": 24.8,
                            "phi1": 30.0, "phi2": 1.0, "approach": 2},
                  "channel": {"taps": [[0.9, 0.0, 0, 0], [0.43, 0.0, 1, 0]]},
                  "sweep": {"snr_db": [25], "frames_per_point": 10,
                            "estimator": "affine"}}
        for cfg, message in ((freq, "needs max delay < M=4"),
                             (affine, "span 64 of the affine search exceeds guard 1")):
            path = tmp_path / "sim.json"
            path.write_text(json.dumps(cfg))
            r = self.run_cli("--config", str(path), "--out", str(tmp_path / "res.csv"))
            assert r.returncode == 1
            assert message in r.stderr

    def test_refused_config_exit_code(self, tmp_path, monkeypatch, capsys):
        # in this process: the entry point's exit status is main's return
        # value, and no refused config reaches the sweep
        monkeypatch.setattr(harness, "run_sweeps", _no_sweep)
        for case in _REFUSED:
            cfg, message = _refused_config(case)
            path = tmp_path / "sim.json"
            path.write_text(json.dumps(cfg))
            out = tmp_path / "res.csv"
            assert cli.main(["--config", str(path), "--out", str(out)]) == 1, case
            assert message in capsys.readouterr().err
            assert not out.exists()

    def test_partial_snr_options_refused(self, tmp_path, monkeypatch, capsys):
        monkeypatch.setattr(harness, "run_sweeps", _no_sweep)
        monkeypatch.chdir(tmp_path)
        cfg = TestConfigLoading().config_dict()
        Path("sim.json").write_text(json.dumps(cfg))
        grid = ["--snr-min", "0", "--snr-max", "10"]
        for flags, message in ((["--snr-min", "5", "--snr-max", "15"], "missing --snr-step"),
                               (["--snr-step", "5"], "missing --snr-min, --snr-max"),
                               # such a step never reaches --snr-max
                               ([*grid, "--snr-step", "0"], "--snr-step must be > 0, got 0"),
                               ([*grid, "--snr-step", "-5"], "--snr-step must be > 0, got -5")):
            assert cli.main(["--config", "sim.json", *flags]) == 1, message
            assert message in capsys.readouterr().err
            assert not Path(cfg["output"]["path"]).exists()

    @pytest.mark.parametrize("flags, message", [
        (["--format", "xml"], "unknown output format 'xml'"),
        (["--approach", "3"], "3 is not a valid Approach"),
        (["--mode", "bogus"], "'bogus' is not a valid ReceiverMode"),
    ], ids=["format", "approach", "mode"])
    def test_option_value_refused_by_the_config_reader(self, flags, message, tmp_path,
                                                       monkeypatch, capsys):
        # the config reader is the one check of an option's value: exit 1, as
        # for the same value in the JSON config
        monkeypatch.setattr(harness, "run_sweeps", _no_sweep)
        monkeypatch.chdir(tmp_path)
        cfg = TestConfigLoading().config_dict()
        Path("sim.json").write_text(json.dumps(cfg))
        assert cli.main(["--config", "sim.json", *flags]) == 1
        assert message in capsys.readouterr().err
        assert not Path(cfg["output"]["path"]).exists()

    def test_option_metavars_list_the_accepted_values(self):
        usage = cli.build_parser().format_usage()
        for option in ("--approach {1,2}", "--mode {sicfree,sic-clean,sic-full}",
                       "--format {csv,json}"):
            assert option in usage

    @pytest.mark.parametrize("flags", [["--frames", "x"], ["--bogus"], ["--doppler", "up"]],
                             ids=["bad-type", "unknown-option", "bad-choice"])
    def test_usage_error_exit_code(self, flags, tmp_path, monkeypatch, capsys):
        # argparse's own refusals are configuration errors too: exit 1, not
        # the 2 of a runtime error
        monkeypatch.setattr(harness, "run_sweeps", _no_sweep)
        monkeypatch.chdir(tmp_path)
        Path("sim.json").write_text(json.dumps(TestConfigLoading().config_dict()))
        with pytest.raises(SystemExit) as exit_:
            cli.main(["--config", "sim.json", *flags])
        assert exit_.value.code == 1
        assert "usage: simulate" in capsys.readouterr().err

    def test_freq_estimator_without_delay_only_tap_exit_code(self, tmp_path):
        cfg = TestConfigLoading().config_dict()
        cfg["channel"]["taps"] = [[1.0, 0.0, 0, 1]]
        cfg["sweep"].update(estimator="freq", snr_db=[10], frames_per_point=4)
        path = tmp_path / "sim.json"
        path.write_text(json.dumps(cfg))
        out = tmp_path / "res.csv"
        r = self.run_cli("--config", str(path), "--out", str(out))
        assert r.returncode == 1
        assert "needs a delay-only (k = 0) tap" in r.stderr
        assert not out.exists()

    def test_doppler_toggle(self, tmp_path):
        cfg = TestConfigLoading().config_dict()
        # the (l=2, k=1) tap shifts the pilot by c1' l + k = 9 bins
        cfg["frame"]["guard"] = 9
        path = tmp_path / "sim.json"
        path.write_text(json.dumps(cfg))
        out = tmp_path / "res.csv"
        r = self.run_cli("--config", str(path), "--frames", "2", "--doppler", "on",
                         "--out", str(out))
        assert r.returncode == 0, r.stderr


# each option of a --config run with the edit of the JSON key it sets: (an
# edit of the base config first, the option, the key edit)
_DOPPLER_TAPS = [[1.0, 0.0, 0, 0], [0.6, 0.0, 2, 1]]
_FLAG_CASES = {
    "snr": ({}, ["--snr-min", "0", "--snr-max", "10", "--snr-step", "5"],
            {"sweep": {"snr_db": [0, 5, 10]}}),
    "frames": ({}, ["--frames", "3"], {"sweep": {"frames_per_point": 3}}),
    "mode": ({}, ["--mode", "sic-full"], {"sweep": {"mode": "sic-full"}}),
    "seed": ({}, ["--seed", "9"], {"sweep": {"seed": 9}}),
    "workers": ({}, ["--workers", "2"], {"sweep": {"workers": 2}}),
    "approach": ({}, ["--approach", "2"], {"frame": {"approach": 2}}),
    "c1prime": ({}, ["--c1prime", "8"], {"frame": {"c1_prime": 8}}),
    "pilot-db": ({}, ["--pilot-db", "15"], {"frame": {"pilot_power_db": 15.0}}),
    "doppler-on": ({}, ["--doppler", "on"], {"channel": {"taps": _DOPPLER_TAPS}}),
    "doppler-off": ({"channel": {"taps": _DOPPLER_TAPS}}, ["--doppler", "off"],
                    {"channel": {"taps": [[1.0, 0.0, 0, 0], [0.6, 0.0, 2, 0]]}}),
    "out": ({}, ["--out", "flag-out.csv"], {"output": {"path": "key-out.csv"}}),
    "format": ({}, ["--format", "json"], {"output": {"format": "json"}}),
    # the config reader matches a format in any case
    "format-upper": ({}, ["--format", "JSON"], {"output": {"format": "json"}}),
}


@pytest.mark.parametrize("case", list(_FLAG_CASES))
def test_option_equals_its_config_key(case, tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    before, flags, edits = _FLAG_CASES[case]

    def run(flags, *edits):
        cfg = TestConfigLoading().config_dict()
        # guard 9 holds the (l=2, k=1) tap's shift span of c1' l + k = 9
        cfg["frame"]["guard"] = 9
        cfg["output"]["path"] = "result.out"
        for part in (before, *edits):
            for section, values in part.items():
                cfg[section].update(values)
        Path("sim.json").write_text(json.dumps(cfg))
        assert cli.main(["--config", "sim.json", *flags]) == 0
        path = flags[flags.index("--out") + 1] if "--out" in flags else cfg["output"]["path"]
        return Path(path).read_text()

    got = run(flags)
    assert got == run([], edits)
    # every option but these two changes the results
    assert (got == run([])) == (case in ("workers", "out"))
