"""Metrics, sweeps, emission, configuration and the CLI."""
import itertools
import json
import os
import platform
import re
import subprocess
import sys
import time
import tracemalloc
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest

from afdmrsma import (AffineParams, Approach, ChannelSpec, ChannelTap, ConfigError, FrameConfig,
                      Frame, InvalidChannel, LinkResult, ReceiverMode, SimConfig, SimulationError,
                      emit_results, measure_se, run_sweep, run_sweeps)
from afdmrsma import channel, cli, core, experiments, harness, receiver, transforms
from afdmrsma.experiments import FIGURES, _ber_frame, emit_plot_data, fig5_sweeps
from afdmrsma.harness import (CSV_COLUMNS, ESTIMATORS, _point_noise_var, _run_task,
                              load_config, render_csv, run_point, sim_config_from_dict)
from oracles import run_block, run_frame

NAN, INF = float("nan"), float("inf")


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
        # an aborted point's fields are NaN, which strict JSON cannot hold
        aborted = LinkResult(15.0, *[NAN] * 5, 0, diagnostics="SingularChannel: null")
        path = tmp_path / "out.json"
        emit_results([r, aborted], "json", path)

        def strict(token):
            raise ValueError(f"{token} is not JSON")
        back = json.loads(path.read_text(), parse_constant=strict)
        assert back == [r.row(), {**{c: None for c in CSV_COLUMNS}, "snr_db": 15.0, "frames": 0}]

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
        for name in ("receiver.perfect_estimate", "receiver.frequency_diagonal",
                     "baseline.frequency_diagonal", "harness.estimate_nmse",
                     "harness._taps_nmse", "harness._response_nmse"):
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
    # JSON's NaN and Infinity read as floats; each would run to a nan result
    "nan-tap-gain": ({"channel": {"taps": [[NAN, 0.0, 0, 0], [0.6, 0.0, 2, 0]]}},
                     "is not finite"),
    "infinite-tap-gain": ({"channel": {"taps": [[1.0, INF, 0, 0]]}}, "is not finite"),
    "nan-c2": ({"frame": {"c2": NAN}}, "c2 must be a finite number"),
    # NaN passes the pilot's "<= 0" test
    "nan-pilot-power": ({"frame": {"pilot_power_db": NAN}}, "phi_pilot must be a finite number"),
    "infinite-phi1": ({"frame": {"phi1": INF}}, "phi1 must be a finite number"),
    "nan-noise": ({"channel": {"noise_var": NAN}}, "noise variance must be >= 0 and finite"),
    # a seed keys the Philox as 64 bits: beyond them it would run another seed's frames
    "seed-beyond-64-bits": ({"sweep": {"seed": 1 << 64}}, "seed must be in"),
    "negative-seed": ({"sweep": {"seed": -1}}, "seed must be in"),
    # k * index would wrap in int64 and ramp the tap by another Doppler
    "doppler-beyond-int64": ({"channel": {"taps": [[1.0, 0.0, 0, 0], [0.6, 0.0, 2, 1 << 62]]}},
                             "Doppler too large for a 68-sample ramp"),
    "nan-snr": ({"sweep": {"snr_db": [NAN]}}, "SNR grid must hold finite numbers"),
    "infinite-snr": ({"sweep": {"snr_db": [0, -INF]}}, "SNR grid must hold finite numbers"),
    # 10 ** (snr / 10) overflows a float, or a noise variance underflows to 0
    **{f"snr-{name}": ({"sweep": {"snr_db": [0, snr]}},
                       f"SNR point 1 at {snr} dB has no positive finite noise variance")
       for name, snr in (("beyond-float", 4000), ("overflow", 3100), ("underflow", -4000))},
    # a delay of N within the CP passes the channel but is delay 0 on the
    # N-sample window, where these taps cancel
    **{f"delay-aliasing-{name}": (
        {"frame": {"cp_len": 64},
         "channel": {"taps": [[1.0, 0.0, 0, 0], [-1.0, 0.0, 64, 0]], "normalize": False},
         "sweep": sweep}, "tap 1 at delay 64 aliases: delays must be < N = 64")
       for name, sweep in [*((e, {"estimator": e}) for e in ESTIMATORS),
                           ("baseline", {"baseline": True})]},
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


@pytest.mark.parametrize("value", [NAN, INF, -INF])
def test_non_finite_numbers_refused_by_the_constructors(value):
    frame = small_sim().frame
    for build in (lambda: AffineParams(64, 4, c2=value),
                  lambda: replace(frame, phi_pilot=value),
                  lambda: replace(frame, phi1=value),
                  lambda: replace(frame, phi2=value),
                  lambda: ChannelTap(complex(1.0, value), 0, 0),
                  lambda: ChannelTap(value, 0, 0),
                  lambda: ChannelSpec((ChannelTap(1.0, 0, 0),), noise_var=value),
                  lambda: small_sim(snr_grid_db=(0.0, value)),
                  lambda: small_sim(noise_override=value)):
        with pytest.raises((ConfigError, InvalidChannel)):
            build()


# each integer field: a constructor of one value, a valid integer for it and
# the error a value that is not an integer raises
_INTEGER_FIELDS = {
    "tap-delay": (lambda v: ChannelTap(1.0, v, 0), 1, InvalidChannel),
    "tap-doppler": (lambda v: ChannelTap(1.0, 0, v), 1, InvalidChannel),
    "n": (lambda v: AffineParams(v, 4), 256, ConfigError),
    "c1-prime": (lambda v: AffineParams(64, v), 4, ConfigError),
    "guard": (lambda v: replace(small_sim().frame, guard=v), 9, ConfigError),
    "cp-len": (lambda v: replace(small_sim().frame, cp_len=v), 2, ConfigError),
    "common-per-class": (lambda v: replace(small_sim().frame, common_per_class=v), 1,
                         ConfigError),
    "frames-per-point": (lambda v: small_sim(frames_per_point=v), 2, ConfigError),
    "seed": (lambda v: small_sim(seed=v), 1, ConfigError),
    "workers": (lambda v: small_sim(workers=v), 1, ConfigError),
}


@pytest.mark.parametrize("case", list(_INTEGER_FIELDS))
def test_non_integers_refused_by_the_constructors(case):
    # a fraction, a whole float and a bool are refused with a typed error,
    # before any of them runs as the integer it rounds or converts to; a
    # numpy integer is an integer
    build, valid, error = _INTEGER_FIELDS[case]
    build(valid)
    build(np.int64(valid))
    for value in (valid + 0.5, float(valid), True, np.bool_(True), "1"):
        with pytest.raises(error, match="must be an integer"):
            build(value)


# each real-valued field: a constructor of one value, a valid number for it
# and the error a value that is no number raises
_REAL_FIELDS = {
    "c2": (lambda v: AffineParams(64, 4, c2=v), 0.25, ConfigError),
    "phi-pilot": (lambda v: replace(small_sim().frame, phi_pilot=v), 10.0, ConfigError),
    "phi1": (lambda v: replace(small_sim().frame, phi1=v), 4.0, ConfigError),
    "phi2": (lambda v: replace(small_sim().frame, phi2=v), 0.5, ConfigError),
    "snr": (lambda v: small_sim(snr_grid_db=(0.0, v)), 5.0, ConfigError),
    "noise-override": (lambda v: small_sim(noise_override=v), 0.1, ConfigError),
    "tap-gain": (lambda v: ChannelTap(v, 0, 0), 0.5 - 0.5j, InvalidChannel),
}


@pytest.mark.parametrize("case", list(_REAL_FIELDS))
def test_non_numbers_refused_by_the_constructors(case):
    # a bool or a string is refused with a typed error, before it runs as
    # the number it converts to; numpy's numbers pass
    build, valid, error = _REAL_FIELDS[case]
    build(valid)
    build(np.float32(valid) if isinstance(valid, float) else np.complex64(valid))
    for value in (True, np.bool_(True), "3"):
        with pytest.raises(error, match="must be a (real|complex) number"):
            build(value)


# each enum or bool field: a constructor of one value, the values it takes
# and values of another type, which it refuses
_TYPED_FIELDS = {
    "mode": (lambda v: small_sim(mode=v), list(ReceiverMode), ("sic-clean", 1, None)),
    "approach": (lambda v: replace(small_sim().frame, approach=v), list(Approach),
                 (2, 1.0, "1", None)),
    "baseline": (lambda v: small_sim(baseline=v), [True, False], ("no", 0, 1, None)),
}


@pytest.mark.parametrize("case", list(_TYPED_FIELDS))
def test_mistyped_enums_and_bools_refused_by_the_constructors(case):
    # a mode that is not a ReceiverMode, an approach that is not an Approach
    # and a baseline that is not a bool are refused with a typed error when
    # the config is built, not run as a layout or a receiver they only look
    # like (an approach of 2 ran the clean-pilot layout; a mode string died
    # mid-sweep in the detector)
    build, valid, wrong = _TYPED_FIELDS[case]
    for value in valid:
        build(value)
    for value in wrong:
        with pytest.raises(ConfigError, match=f"{case} must be"):
            build(value)


@pytest.mark.parametrize("k", [10 ** 400, -10 ** 400, 1 << 62, -(1 << 62)])
def test_doppler_beyond_the_ramp_refused(k):
    # not a bare OverflowError (k beyond int64) nor a ramp wrapped in int64
    frame = _ber_frame(10.0)
    with pytest.raises(ConfigError, match=r"tap 1 \(delay 2\): Doppler too large"):
        SimConfig(frame=frame, taps=(ChannelTap(1, 0, 0), ChannelTap(0.5, 2, k)),
                  snr_grid_db=(10,))
    # the largest Doppler whose products with the indices fit in int64 runs
    ell = frame.n + frame.cp_len
    k_max = ((1 << 63) - 1) // (ell - 1)
    idx, gain = channel._tap_ramps((ChannelTap(1, 0, k_max),), ell)
    assert np.array_equal(gain[0], np.exp(2j * np.pi * k_max * idx[0] / ell))


def test_seed_outside_64_bits_refused():
    for seed in (1 << 64, -1):
        with pytest.raises(ConfigError, match=r"seed must be in \[0, 2\*\*64\)"):
            small_sim(seed=seed)
    assert small_sim(seed=(1 << 64) - 1).seed == (1 << 64) - 1


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


def _in_process_pool(monkeypatch):
    """Make the sweep's process pool a fake that runs its tasks in order in
    this process and forks nothing; the list it returns gets the
    ``max_workers`` of each pool the sweep starts."""
    pools = []

    class InProcess:
        def __init__(self, max_workers):
            pools.append(max_workers)

        def __enter__(self):
            return self

        def __exit__(self, *exc):
            return False

        def map(self, fn, tasks):
            return map(fn, list(tasks))
    monkeypatch.setattr(harness, "ProcessPoolExecutor", InProcess)
    return pools


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

    def test_pool_starts_no_more_processes_than_tasks(self, monkeypatch):
        # a forked pool starts every worker at its first task, so one point
        # of 2 frames, cut into 2 tasks, must not ask for 4 workers
        pools = _in_process_pool(monkeypatch)
        two = replace(self.single, frames_per_point=2)
        want = run_sweeps([two])
        for w in (4, 2):
            _assert_same_records(run_sweeps([replace(two, workers=w)]), want)
        # 8 points are 8 tasks, more than 3 workers
        run_sweeps([replace(sim, workers=3) for sim in self.mix()])
        assert pools == [2, 2, 3]


# every series of the bundled figure presets, fig5 to fig9
PRESET_SERIES = [(f"{fig}/{label}", sim) for fig in sorted(FIGURES)
                 for label, sim in FIGURES[fig](frames=20)]


class TestOneAhead:
    """Every caller walks its blocks in one loop, each block sent one ahead
    of its receive: at one worker on a helper thread, in a pool task and in
    run_point on the calling thread."""

    @staticmethod
    def serial(sims):
        """Each point of ``sims``, block by block through the two halves
        (:func:`oracles.run_block`), outside the loop that every caller shares."""
        def point(sim, p):
            plan = harness._block_plan(0, sim.frames_per_point, sim.frame.n)
            try:
                out = np.concatenate([run_block(sim, p, frames, *_point_args(sim, p))
                                      for frames in plan])
            except (SimulationError, np.linalg.LinAlgError) as exc:
                out = f"{type(exc).__name__}: {exc}"
            return harness._point_result(sim, p, [(out, 0.0)])
        return [[point(sim, p) for p in range(len(sim.snr_grid_db))] for sim in sims]

    def test_preset_records_equal_serial_tasks(self, monkeypatch):
        # every preset series in one sweep, each point in blocks of 2 and 3
        # frames, so that a transmit runs ahead within a point and across
        # points and series
        monkeypatch.setattr(harness, "_BLOCK_SAMPLES", 3 * max(s.frame.n for _, s in PRESET_SERIES))
        sims = [replace(sim, frames_per_point=5) for _, sim in PRESET_SERIES]
        want = self.serial(sims)
        for workers in (1, 2):
            _assert_same_records(run_sweeps([replace(sim, workers=workers) for sim in sims]),
                                 want)

    def test_failed_point_between_healthy_ones(self, monkeypatch):
        # aborting_sim fails in its fourth block of two frames (frame 6).  At
        # one worker its fifth is in flight on the helper by then; a pool
        # task and run_point transmit a block only as they receive it.  In
        # no caller is its sixth transmitted, and its neighbours score every
        # frame
        monkeypatch.setattr(harness, "_BLOCK_SAMPLES", 2 * 64)
        sent = []
        transmit = harness._transmit_block

        def recorded(sim, point, frames, noise_var):
            sent.append((sim.frames_per_point, frames.start))
            return transmit(sim, point, frames, noise_var)
        monkeypatch.setattr(harness, "_transmit_block", recorded)
        _in_process_pool(monkeypatch)
        healthy = small_sim(estimator="freq", frames_per_point=5, snr_grid_db=(0.0, 20.0))
        failing = replace(aborting_sim(), frames_per_point=12)
        sims = [healthy, failing, replace(healthy, seed=8)]
        want = self.serial(sims)
        callers = {
            "one worker": (lambda: run_sweeps(sims), [0, 2, 4, 6, 8]),
            "pool": (lambda: run_sweeps([replace(sim, workers=2) for sim in sims]),
                     [0, 2, 4, 6]),
            "run_point": (lambda: [[run_point(sim, p) for p in range(len(sim.snr_grid_db))]
                                   for sim in sims], [0, 2, 4, 6]),
        }
        for caller, (run, failing_sent) in callers.items():
            sent.clear()
            got = run()
            assert [r.frames for r in got[0] + got[2]] == [5] * 4, caller
            assert got[1][0].diagnostics.startswith("SingularChannel: "), caller
            assert got[1][0].frames == 0, caller
            assert [start for frames, start in sent if frames == 12] == failing_sent, caller
            _assert_same_records(got, want)

    def test_failed_transmit_makes_a_diagnostic_row(self, monkeypatch):
        monkeypatch.setattr(harness, "_BLOCK_SAMPLES", 2 * 64)
        transmit = harness._transmit_block

        def failing(sim, point, frames, noise_var):
            if point == 1 and frames.start == 2:
                raise InvalidChannel("refused on the helper")
            return transmit(sim, point, frames, noise_var)
        monkeypatch.setattr(harness, "_transmit_block", failing)
        sim = small_sim(estimator="freq", frames_per_point=6, snr_grid_db=(0.0, 10.0, 20.0))
        got = run_sweep(sim)
        assert [r.diagnostics for r in got] == ["", "InvalidChannel: refused on the helper", ""]
        assert [r.frames for r in got] == [6, 0, 6]

    def test_point_times_add_up_to_the_sweep(self):
        # the helper's work counts in the points' times only as this thread
        # waits for it, so the points' times are the sweep's
        sim = replace(dict(PRESET_SERIES)["fig8/sic-pilot10"], frames_per_point=100)
        run_sweep(replace(sim, frames_per_point=1))   # fill the caches
        t0 = time.perf_counter()
        got = run_sweep(sim)
        elapsed = time.perf_counter() - t0
        assert all(r.wall_time > 0 for r in got)
        assert sum(r.wall_time for r in got) == pytest.approx(elapsed, rel=0.05)

    def test_sweep_memory_does_not_grow_with_frames(self):
        # the blocks in flight bound the sweep's memory, not its frame count.
        # The peak also depends on how far the helper's transmit overlaps
        # this thread's receive, which the scheduler decides: the least of
        # three sweeps is taken
        sim = replace(fig5_sweeps()[1][1], snr_grid_db=(10.0, 20.0, 30.0))

        def peak(frames):
            s = replace(sim, frames_per_point=frames)
            run_sweep(s)   # fill the caches outside the measurement
            peaks = []
            for _ in range(3):
                tracemalloc.start()
                try:
                    run_sweep(s)
                    peaks.append(tracemalloc.get_traced_memory()[1])
                finally:
                    tracemalloc.stop()
            return min(peaks)
        assert peak(400) <= 1.25 * peak(100)


def _src_env():
    """The environment of a fresh interpreter that imports this tree's package."""
    src = str(Path(__file__).resolve().parent.parent / "src")
    path = os.pathsep.join(p for p in (src, os.environ.get("PYTHONPATH")) if p)
    return {**os.environ, "PYTHONPATH": path}


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
    def test_preset_records_equal_run_frame(self, sim, monkeypatch):
        # a budget of three frames plans five frames as blocks of 2 and 3, so
        # a point runs in unequal blocks at a size the reference compares fast
        monkeypatch.setattr(harness, "_BLOCK_SAMPLES", 3 * sim.frame.n)
        sim = replace(sim, frames_per_point=5)
        assert [len(b) for b in harness._block_plan(0, 5, sim.frame.n)] == [2, 3]
        for point in (0, len(sim.snr_grid_db) - 1):
            got, _ = _run_task((sim, point, 0, 1))
            assert np.array_equal(got, _reference(sim, point, range(5)))

    @pytest.mark.parametrize("name", ["fig5/clean-pilot", "fig5/conventional-rsma"])
    def test_public_detectors_return_int64_bits(self, name, monkeypatch):
        # the block kernels keep int8 bits; the public per-frame detectors
        # (detect_streams, run_baseline_frame) still return int64 ones
        import oracles
        dets = []
        for fn in ("detect_streams", "run_baseline_frame"):
            def keep(*args, _fn=getattr(oracles, fn), **kw):
                dets.append(_fn(*args, **kw))
                return dets[-1]
            monkeypatch.setattr(oracles, fn, keep)
        sim = dict(PRESET_SERIES)[name]
        run_frame(sim, 0, 0, *_point_args(sim, 0))
        assert [(d.common_bits.dtype, d.private_bits.dtype) for d in dets] == [(np.int64,) * 2]

    def test_only_the_affine_estimator_analyses_the_affine_plane(self, monkeypatch):
        # the affine plane feeds the affine peak search alone
        calls = []
        daft = receiver._daft

        def counted(*args):
            calls.append(args)
            return daft(*args)
        monkeypatch.setattr(receiver, "_daft", counted)
        frame = replace(small_sim().frame, guard=9)
        for estimator, want in (("freq", 0), ("perfect-affine", 0), ("affine", 1)):
            sim = small_sim(frame=frame, estimator=estimator)
            calls.clear()
            run_block(sim, 0, range(4), *_point_args(sim, 0))
            assert len(calls) == want, estimator

    def test_blocks_never_rebuild_a_design_table(self, monkeypatch):
        # the freq estimator's pilot and the affine estimator's guard zone
        # are built once, with the configuration; a block reads them off
        # ``sim.design``
        frame = replace(small_sim().frame, guard=9)
        sims = [small_sim(frame=frame, estimator=estimator) for estimator in ("freq", "affine")]
        want = [run_block(sim, 0, range(4), *_point_args(sim, 0)) for sim in sims]

        def rebuilt(*args):
            raise AssertionError("a block rebuilt a table of its design")
        for module in (receiver, harness):
            for name in ("_peak_zone", "_pilot_subcarriers"):
                monkeypatch.setattr(module, name, rebuilt, raising=False)
        for sim, records in zip(sims, want):
            assert np.array_equal(run_block(sim, 0, range(4), *_point_args(sim, 0)), records)

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
            got = run_block(sim, point, range(3, 23), *_point_args(sim, point))
            assert np.array_equal(got, _reference(sim, point, range(3, 23)))

    @pytest.mark.parametrize("name", ["fig5/clean-pilot", "fig5/embedded-pilot",
                                      "fig5/conventional-rsma", "fig6/full-sic",
                                      "fig7/c1p-32", "fig8/sic-pilot10", "fig9/sic-pilot10"])
    def test_large_and_split_blocks_equal_run_frame(self, name):
        # one block of 100 frames holds arrays of 400 KiB, beyond the 256 KiB
        # at which numpy computes ``a * temporary`` in place as ``temporary * a``,
        # which rounds complex products differently; the same frames split at
        # other bounds give the same rows
        sim = dict(PRESET_SERIES)[name]
        point = 4
        args = _point_args(sim, point)
        whole = run_block(sim, point, range(0, 100), *args)
        assert np.array_equal(whole, _reference(sim, point, range(100)))
        parts = [run_block(sim, point, range(a, b), *args)
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

    def test_block_plan(self):
        for start, frames, n in itertools.product(
                (0, 3, 97), (0, 1, 2, 5, 63, 64, 65, 100, 128, 400),
                (1, 7, 64, 256, 3000, 16384, 20000)):
            plan = harness._block_plan(start, start + frames, n)
            sizes = [len(b) for b in plan]
            case = (start, frames, n, sizes)
            # contiguous blocks that cover the range
            assert [f for b in plan for f in b] == list(range(start, start + frames)), case
            # each block within the budget, unless one frame alone exceeds it
            assert all(size * n <= harness._BLOCK_SAMPLES or size == 1 for size in sizes), case
            # sizes that differ by at most one frame
            assert max(sizes, default=0) - min(sizes, default=0) <= 1, case
            # as few blocks as the budget allows: with one block fewer, some
            # block would hold more than one frame and more than the budget
            fewer = len(plan) - 1
            largest = -(-frames // fewer) if fewer > 0 else 0
            assert not frames or (len(plan) == 1) or (
                largest > 1 and largest * n > harness._BLOCK_SAMPLES), case

    def test_heap_buffer_is_below_glibcs_dynamic_cap(self):
        # glibc raises its mmap and trim thresholds only when it frees an
        # mmap-served buffer below its dynamic cap of 32 MiB; a buffer derived
        # as 128 blocks of 16384 complex samples would be exactly 32 MiB, and
        # every block would fault its pages in again (17.5 minor faults per
        # frame in fig7/c1p-32)
        assert harness._HEAP_KEEP_BYTES < 32 << 20

    @pytest.mark.parametrize("name", ["fig6/full-sic", "fig7/c1p-32", "fig9/conventional"])
    def test_block_working_set(self, name):
        # a full-budget block's tracemalloc peak, in complex (frames, N)
        # planes: measured 9.97 (fig6/full-sic), 9.69 (fig7/c1p-32) and
        # 8.53 (fig9/conventional) at the worst SNR point; the bound was set
        # about 10 % above an earlier worst (11.70, fig7/c1p-32)
        sim = dict(PRESET_SERIES)[name]
        frames = range(harness._BLOCK_SAMPLES // sim.frame.n)
        plane = len(frames) * sim.frame.n * np.dtype(complex).itemsize
        worst = 0.0
        for point in range(len(sim.snr_grid_db)):
            args = _point_args(sim, point)
            run_block(sim, point, frames, *args)   # fill the caches outside the measurement
            tracemalloc.start()
            try:
                run_block(sim, point, frames, *args)
                worst = max(worst, tracemalloc.get_traced_memory()[1] / plane)
            finally:
                tracemalloc.stop()
        assert worst <= 12.9

    @pytest.mark.skipif(sys.platform != "linux" or platform.libc_ver()[0] != "glibc",
                        reason="counts the page faults of glibc's heap")
    def test_blocks_keep_their_heap_pages(self):
        # a full block's arrays peak at about 2.5 MiB; unless glibc keeps the
        # freed heap top, every block faults its pages in again (about 15
        # minor faults per frame); a fresh interpreter per series, so that no
        # earlier test has raised glibc's thresholds.  What is left (0.3 to
        # 0.45 per frame in fig7/c1p-32, 0.2 in fig6/full-sic) is the heap's first growth to a new high point,
        # when a point's blocks need more than any block before them: the
        # same point run again faults 0.02 per frame or less
        for fig, label in (("fig7", "c1p-32"), ("fig6", "full-sic"), ("fig9", "conventional")):
            code = ("import resource\n"
                    "from afdmrsma.experiments import FIGURES\n"
                    "from afdmrsma.harness import run_point\n"
                    f"sim = dict(FIGURES[{fig!r}](frames=200))[{label!r}]\n"
                    "run_point(sim, 0)\n"
                    "before = resource.getrusage(resource.RUSAGE_SELF).ru_minflt\n"
                    "frames = run_point(sim, 1).frames\n"
                    "print((resource.getrusage(resource.RUSAGE_SELF).ru_minflt - before) / frames)\n")
            out = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                                 check=True, env=_src_env())
            assert float(out.stdout) < 1.0, (fig, label, out.stdout)


@pytest.mark.skipif(not harness._glibc(), reason="counts glibc's malloc arenas")
def test_threads_share_two_malloc_arenas():
    # each one-worker sweep starts a helper thread; uncapped, glibc gives a
    # thread whose predecessor's arena is not yet free an arena of its own,
    # as it gives each of three threads alive at once (4 arenas in all)
    code = ("import ctypes, threading\n"
            "import numpy as np\n"
            "import afdmrsma.harness\n"
            "ready, done = threading.Barrier(4), threading.Event()\n"
            "def hold():\n"
            "    a = np.ones(1000)\n"
            "    ready.wait()\n"
            "    done.wait()\n"
            "threads = [threading.Thread(target=hold) for _ in range(3)]\n"
            "for t in threads:\n"
            "    t.start()\n"
            "ready.wait()\n"
            "ctypes.CDLL(None).malloc_stats()\n"
            "done.set()\n"
            "for t in threads:\n"
            "    t.join()\n")
    out = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                         check=True, timeout=60, env=_src_env())
    assert len(re.findall(r"^Arena \d+:$", out.stderr, re.M)) == harness._ARENA_MAX


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
    # the per-configuration caches and the design's search tables hand the
    # same arrays to every block that asks, so none of them may be written to
    cfg = replace(small_sim().frame, guard=9)
    taps = (ChannelTap(0.857, 0, 0), ChannelTap(0.514, 2, 1))
    cached = [core._philox_state(7), channel._tap_ramps(taps, cfg.n + cfg.cp_len),
              channel.frequency_diagonal(ChannelSpec(taps), cfg.n),
              small_sim(estimator="freq").design.search,
              small_sim(frame=cfg, taps=taps, estimator="affine").design.search,
              receiver._solve_rule((0, 2), (0, 1), cfg.n), receiver._spectra((0, 1, 3), cfg.n),
              cfg.layout.common_gain,
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
        *[case for value in (True, "3") for case in (
            ("frame", "c2", value), ("frame", "phi1", value), ("frame", "phi2", value),
            ("frame", "pilot_power_db", value), ("channel", "noise_var", value),
            ("sweep", "snr_db", [0, value]), ("channel", "taps", [[value, 0.0, 0, 0]]),
            ("channel", "taps", [[1.0, value, 0, 0]]))],
    ])
    def test_value_of_the_wrong_type_refused(self, part, key, value):
        # bool keys take only JSON true or false; integer keys refuse bools,
        # strings and fractions, and real keys bools and strings, where int(),
        # bool() or float() would have run them
        raw = self.config_dict()
        raw[part][key] = value
        with pytest.raises(ConfigError, match=f"{part}.{key}"):
            sim_config_from_dict(raw)

    @pytest.mark.parametrize("part, key, value", [
        ("frame", "c2", 10 ** 400), ("frame", "phi1", 10 ** 400), ("frame", "phi2", -10 ** 400),
        ("frame", "pilot_power_db", 10 ** 400), ("frame", "pilot_power_db", 1e300),
        ("channel", "noise_var", 10 ** 400), ("sweep", "snr_db", [0, 10 ** 400]),
        ("channel", "taps", [[10 ** 400, 0.0, 0, 0]]),
    ], ids=["c2", "phi1", "phi2", "pilot_power_db", "pilot_power_db-1e300", "noise_var",
            "snr_db", "taps"])
    def test_number_beyond_float_range_refused(self, part, key, value):
        # a JSON integer (or a dB level) that float() or 10 ** (dB / 10) cannot
        # hold is a config error naming its key, not an OverflowError
        raw = self.config_dict()
        raw[part][key] = value
        with pytest.raises(ConfigError, match=f"{part}.{key}"):
            sim_config_from_dict(raw)
        # an integer key reads it, but the channel check cannot ramp by it
        raw = self.config_dict()
        raw["channel"]["taps"] = [[1.0, 0.0, 0, 10 ** 400]]
        with pytest.raises(ConfigError, match="too large"):
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
        return subprocess.run([sys.executable, "-m", "afdmrsma.cli", *args],
                              capture_output=True, text=True, env=_src_env())

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

    def test_number_beyond_float_range_exit_code(self, tmp_path):
        # a 401-digit JSON integer in a real key: exit 1 with a config
        # message, not an OverflowError traceback
        cfg = TestConfigLoading().config_dict()
        cfg["frame"]["c2"] = 10 ** 400
        path = tmp_path / "big.json"
        path.write_text(json.dumps(cfg))
        r = self.run_cli("--config", str(path), "--out", str(tmp_path / "res.csv"))
        assert r.returncode == 1
        assert "config key frame.c2" in r.stderr and "Traceback" not in r.stderr
        assert not (tmp_path / "res.csv").exists()

    def test_snr_beyond_float_range_exit_code(self, tmp_path):
        # 10 ** (4000 / 10) overflows: exit 1 with a config message, not a
        # traceback from the sweep
        cfg = TestConfigLoading().config_dict()
        cfg["sweep"]["snr_db"] = [0, 4000]
        path = tmp_path / "sim.json"
        path.write_text(json.dumps(cfg))
        r = self.run_cli("--config", str(path), "--out", str(tmp_path / "res.csv"))
        assert r.returncode == 1
        assert "config error: SNR point 1 at 4000 dB" in r.stderr and "Traceback" not in r.stderr
        assert not (tmp_path / "res.csv").exists()

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
                               ([*grid, "--snr-step", "-5"], "--snr-step must be > 0, got -5"),
                               # a NaN step ran one point; an infinite bound never
                               # ended the grid
                               ([*grid, "--snr-step", "nan"],
                                "--snr-step must be finite, got nan"),
                               (["--snr-min", "0", "--snr-max", "inf", "--snr-step", "5"],
                                "--snr-max must be finite, got inf"),
                               (["--snr-min=-inf", "--snr-max", "10", "--snr-step", "5"],
                                "--snr-min must be finite, got -inf")):
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

    @pytest.mark.parametrize("seed", [1 << 64, -1], ids=["2**64", "-1"])
    def test_seed_outside_64_bits_exit_code(self, seed, tmp_path, monkeypatch, capsys):
        # a config error, not the frames of the seed modulo 2**64 (the same
        # seeds as JSON keys are cases of _REFUSED)
        monkeypatch.setattr(harness, "run_sweeps", _no_sweep)
        monkeypatch.chdir(tmp_path)
        cfg = TestConfigLoading().config_dict()
        Path("sim.json").write_text(json.dumps(cfg))
        assert cli.main(["--config", "sim.json", f"--seed={seed}"]) == 1
        assert f"seed must be in [0, 2**64), got {seed}" in capsys.readouterr().err
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
