"""Acceptance gate: one test per criterion, printed as a pass line each.

Run with `pytest tests/test_acceptance.py -v -s` to see the per-criterion
lines.  The figure sweeps are executed once per session and shared.
"""
import itertools
import time

import numpy as np
import numpy.testing as npt
import pytest

from afdmrsma import (AffineParams, Approach, ChannelSpec, ChannelTap, Domain,
                      Frame, FrameConfig, affine_to_freq, apply_channel,
                      build_affine_pilot, build_frame, capacity_counts,
                      daft, detect_streams,
                      estimate_channel_affine, extract_received_planes,
                      frame_rng, freq_to_affine, idaft,
                      modulate_bits, perfect_estimate, random_bits, required_bits_per_user,
                      run_sweep, run_sweeps, split_messages, add_cp)
from afdmrsma.experiments import BER_SNR_GRID, SE_SNR_GRID, fig8_sweeps, figure_series
from afdmrsma.harness import render_csv
from oracles import channel_matrix, kernel_phi

I16 = SE_SNR_GRID.index(16.0)
PLATEAU = [i for i, s in enumerate(SE_SNR_GRID) if 10.0 <= s <= 25.0]


def _report(num, text):
    print(f"\n[acceptance] criterion {num}: PASS - {text}")


def synthesis_oracle(p):
    a = np.zeros((p.n, p.n), dtype=complex)
    for n in range(p.n):
        for i in range(p.n):
            a[n, i] = np.exp(2j * np.pi * (p.c1 * n * n + p.c2 * i * i + n * i / p.n))
    return a / np.sqrt(p.n)


@pytest.fixture(scope="module")
def figures():
    # the SE figures in one run of the runner and the BER figures in another,
    # each on two workers
    out = {}
    for names, key in ((("fig5", "fig6", "fig7"), "se_time"), (("fig8", "fig9"), "ber_time")):
        t = time.perf_counter()
        series = figure_series(names, workers=2)
        for (name, label, _), res in zip(series, run_sweeps([sim for *_, sim in series])):
            out.setdefault(name, {})[label] = res
        out[key] = time.perf_counter() - t
    return out


def test_criterion_01_transform_oracles():
    t0 = time.perf_counter()
    rng = np.random.default_rng(0)
    for n, c1p in [(8, 2), (8, 8), (16, 4), (16, 8)]:
        p = AffineParams(n, c1p, 1 / 64.0)
        a = synthesis_oracle(p)
        dmat = np.fft.fft(np.eye(n)) / np.sqrt(n)
        x = rng.normal(size=n) + 1j * rng.normal(size=n)
        npt.assert_allclose(idaft(Frame(x, Domain.AFFINE), p).data, a @ x, atol=1e-10)
        npt.assert_allclose(daft(Frame(x, Domain.TIME), p).data,
                            a.conj().T @ x, atol=1e-10)
        npt.assert_allclose(affine_to_freq(Frame(x, Domain.AFFINE), p).data,
                            dmat @ a @ x, atol=1e-10)
        npt.assert_allclose(freq_to_affine(Frame(x, Domain.FREQUENCY), p).data,
                            np.linalg.inv(dmat @ a) @ x, atol=1e-10)
    for n in (256, 1024, 4096):
        p = AffineParams(n, 64, 1 / 256.0)
        x = Frame(rng.normal(size=n) + 1j * rng.normal(size=n), Domain.AFFINE)
        for op, dom in ((idaft, Domain.AFFINE), (daft, Domain.TIME),
                        (affine_to_freq, Domain.AFFINE),
                        (freq_to_affine, Domain.FREQUENCY)):
            y = op(Frame(x.data, dom), p)
            assert abs(y.energy() - x.energy()) < 1e-9 * x.energy()
    elapsed = time.perf_counter() - t0
    assert elapsed < 10.0
    _report(1, f"dense-oracle equality at N=8,16 and unitarity to N=4096 "
               f"({elapsed:.1f} s)")


def test_criterion_02_support_law_suite():
    t0 = time.perf_counter()
    rng = np.random.default_rng(1)
    cases = 0
    for n in (16, 64, 256):
        for c1p in (2, 4, 8, 64):
            if c1p > n or n // c1p < 2:
                continue
            p = AffineParams(n, c1p, 1 / 64.0)
            m = p.m
            reps = 11 if c1p < 64 else 2
            for alpha in range(c1p):
                for _ in range(reps):
                    members = np.arange(alpha, n, c1p)
                    x = np.zeros(n, complex)
                    x[members] = rng.normal(size=m) + 1j * rng.normal(size=m)
                    mask = np.ones(n, bool)
                    mask[members] = False
                    for fwd, dom in ((affine_to_freq, Domain.AFFINE),
                                     (freq_to_affine, Domain.FREQUENCY)):
                        y = fwd(Frame(x, dom), p).data
                        leak = np.sum(np.abs(y[mask]) ** 2) / np.sum(np.abs(y) ** 2)
                        assert leak < 1e-9
                        cases += 1
    elapsed = time.perf_counter() - t0
    assert cases >= 1000
    assert elapsed < 30.0
    _report(2, f"{cases} class-support cases, out-of-class energy < 1e-9 "
               f"({elapsed:.1f} s)")


def test_criterion_03_kernel_consistency():
    p = AffineParams(32, 8, 1 / 128.0)
    rng = np.random.default_rng(2)
    x = rng.normal(size=32) + 1j * rng.normal(size=32)
    ref = affine_to_freq(Frame(x, Domain.AFFINE), p).data
    phases = np.exp(2j * np.pi * p.c2 * np.arange(32) ** 2)
    got = np.zeros(32, complex)
    for m in range(32):
        for i in range(m % 8, 32, 8):
            got[m] += x[i] * phases[i] * kernel_phi(i, m, p)
    got *= 8 / 32.0
    rel = np.max(np.abs(got - ref)) / np.max(np.abs(ref))
    assert rel < 1e-6
    _report(3, f"closed-form kernel assembly matches the transform path "
               f"(rel err {rel:.1e})")


def test_criterion_04_channel_oracle():
    rng = np.random.default_rng(3)
    checked = 0
    for ell in (8, 16, 32):
        x = Frame(rng.normal(size=ell) + 1j * rng.normal(size=ell), Domain.TIME)
        singles = [ChannelTap(complex(rng.normal(), rng.normal()), l, k)
                   for l, k in itertools.product(range(3), range(3))]
        combos = [(t,) for t in singles]
        combos += list(itertools.combinations(singles, 2))[::3]
        combos += [tuple(rng.choice(singles, 3, replace=False)) for _ in range(5)]
        for taps in combos:
            spec = ChannelSpec(taps)
            ref = channel_matrix(spec, ell) @ x.data
            npt.assert_allclose(apply_channel(x, spec).data, ref, atol=1e-10)
            checked += 1
    _report(4, f"{checked} tap combinations equal the dense channel matrix")


def test_criterion_05_pilot_shift_law():
    cfg = FrameConfig(affine=AffineParams(256, 16), guard=64, phi_pilot=10.0,
                      phi1=4.0, phi2=1.0, cp_len=0)
    pil = add_cp(idaft(build_affine_pilot(cfg), cfg.affine), 0)
    h = 0.8 * np.exp(0.7j)
    checked = 0
    for l in range(5):
        for k in range(16):
            if 16 * l + k >= 64:
                continue
            rx = apply_channel(pil, ChannelSpec((ChannelTap(h, l, k),)))
            est = estimate_channel_affine(extract_received_planes(rx, cfg)[1], cfg)
            assert len(est.taps) == 1
            t = est.taps[0]
            assert (t.l, t.k) == (l, k)
            assert abs(t.h - h) < 1e-6
            checked += 1
    _report(5, f"exact (delay, Doppler, gain) recovery for {checked} shifts")


def test_criterion_06_noiseless_end_to_end():
    spec = ChannelSpec((ChannelTap(1.0, 0, 0), ChannelTap(0.5 + 0.2j, 2, 0)),
                       normalize=True)
    frames = 100
    total = 0
    for approach in Approach:
        cfg = FrameConfig(affine=AffineParams(256, 4), guard=8, phi_pilot=10.0,
                          phi1=25.0, phi2=1.0, approach=approach, cp_len=4,
                          common_per_class=1)
        for dom in (Domain.FREQUENCY, Domain.AFFINE):
            est = perfect_estimate(spec, cfg, dom)
            errors = 0
            for f in range(frames):
                rng = frame_rng(606, 0, f)
                r1, r2 = required_bits_per_user(cfg)
                msgs = split_messages(random_bits(rng, r1), random_bits(rng, r2),
                                      cfg)
                pbits = (msgs.private_bits_user2 if f % 2
                         else msgs.private_bits_user1)
                tx = build_frame(modulate_bits(msgs.common_bits), modulate_bits(pbits),
                                 cfg)
                rx = apply_channel(tx, spec)
                det = detect_streams(extract_received_planes(rx, cfg), cfg, est)
                errors += int(np.sum(det.common_bits != msgs.common_bits))
                errors += int(np.sum(det.private_bits != pbits))
                total += det.common_bits.size + det.private_bits.size
            assert errors == 0, (approach, dom)
    _report(6, f"zero errors over {total} bits (both approaches, both paths)")


def test_criterion_07_fig5_se(figures):
    res = figures["fig5"]
    a1 = [r.se for r in res["clean-pilot"]]
    a2 = [r.se for r in res["embedded-pilot"]]
    ratio = a2[I16] / a1[I16]
    assert ratio > 1.5
    plateau = [a1[i] for i in PLATEAU]
    assert all(2.0 <= v <= 4.0 for v in plateau)
    variation = (max(plateau) - min(plateau)) / min(plateau)
    assert variation < 0.25
    assert figures["se_time"] < 300.0
    _report(7, f"embedded/clean SE ratio {ratio:.2f} at 16 dB; clean-pilot "
               f"plateau {min(plateau):.2f}..{max(plateau):.2f} "
               f"(variation {variation:.0%}; fig5-7 in {figures['se_time']:.0f} s)")


def test_criterion_08_fig6_sic_orderings(figures):
    res = figures["fig6"]
    free, full = res["no-sic"], res["full-sic"]
    a1 = res["clean-pilot"]
    for i, snr in enumerate(SE_SNR_GRID):
        if snr < 10.0:
            continue
        tol_ff = 2 * (full[i].se_stderr + free[i].se_stderr)
        tol_fa = 2 * (free[i].se_stderr + a1[i].se_stderr)
        assert full[i].se >= free[i].se - tol_ff
        assert free[i].se >= a1[i].se - tol_fa
    ratio = full[I16].se / free[I16].se
    assert ratio > 1.2
    _report(8, f"SE(full SIC) >= SE(no SIC) >= SE(clean pilot) at >= 10 dB; "
               f"full/free ratio {ratio:.2f} at 16 dB")


def test_criterion_09_fig7_spreading_trend(figures):
    res = figures["fig7"]
    se16 = [res[f"c1p-{c}"][I16].se for c in (8, 32, 64, 128)]
    assert all(a < b for a, b in zip(se16, se16[1:])), se16
    ratio = se16[-1] / se16[0]
    assert ratio > 2.0
    _report(9, "SE at 16 dB strictly increasing over c1' in {8,32,64,128}: "
               + ", ".join(f"{v:.2f}" for v in se16) + f"; ratio {ratio:.2f}")


def test_criterion_10_ber_orderings(figures):
    fig8, fig9 = figures["fig8"], figures["fig9"]
    _, sim = fig8_sweeps()[0]
    c = capacity_counts(fig8_sweeps()[1][1].frame)
    bits_per_point = sim.frames_per_point * 2 * (c.n_common + c.n_extra + c.n_private)
    assert bits_per_point >= 1e5

    def tol(a, b):
        return 2 * (a.ber_total_stderr + b.ber_total_stderr)

    for figkey, res in (("fig8", fig8), ("fig9", fig9)):
        prop, conv = res["sicfree-pilot15"], res["conventional"]
        for i, snr in enumerate(BER_SNR_GRID):
            if snr >= 10.0:
                assert prop[i].ber_total < conv[i].ber_total + tol(prop[i], conv[i]), \
                    (figkey, snr)
        sic10, sic15 = res["sic-pilot10"], res["sic-pilot15"]
        free10 = res["sicfree-pilot10"]
        for i, snr in enumerate(BER_SNR_GRID):
            if snr >= 15.0:
                assert sic15[i].ber_total <= sic10[i].ber_total + tol(sic15[i], sic10[i])
                assert sic10[i].ber_total <= free10[i].ber_total + tol(sic10[i], free10[i])
    for i, snr in enumerate(BER_SNR_GRID):
        a, b = fig9["sicfree-pilot15"][i], fig8["sicfree-pilot15"][i]
        assert a.ber_total >= b.ber_total - tol(a, b)
    assert figures["ber_time"] < 600.0
    _report(10, f"delay-only and delay-Doppler BER orderings hold over "
                f">= {bits_per_point:.0f} bits/point "
                f"({figures['ber_time']:.0f} s)")


def test_criterion_11_determinism():
    from afdmrsma.harness import SimConfig
    frame = FrameConfig(affine=AffineParams(64, 4), guard=8, phi_pilot=10.0,
                        phi1=4.0, phi2=1.0, cp_len=4, common_per_class=1)
    taps = (ChannelTap(0.857, 0, 0), ChannelTap(0.514, 2, 0))

    def csv(workers):
        sim = SimConfig(frame=frame, taps=taps, snr_grid_db=(0.0, 10.0, 20.0),
                        frames_per_point=12, seed=11, workers=workers)
        return render_csv(run_sweep(sim))

    first, second = csv(1), csv(1)
    parallel = csv(3)
    assert first == second
    assert first == parallel
    _report(11, "byte-identical CSV across repeated runs and worker counts")
