"""Estimators, equalizers and the dual-domain detector."""
from collections import Counter

import numpy as np
import numpy.testing as npt
import pytest

from afdmrsma import (AffineParams, Approach, ChannelSpec, ChannelTap, ConfigError, Domain,
                      Frame, FrameConfig, GuardViolation, InvalidLength, PilotContaminated,
                      ReceiverMode, SingularChannel, UnresolvableDoppler,
                      add_cp, apply_channel, build_affine_pilot, build_frame,
                      daft, detect_streams,
                      equalize, estimate_channel_affine, estimate_channel_freq,
                      estimate_nmse, extract_received_planes, frame_energy_budget,
                      frame_rng, freq_response, idaft, modulate_bits,
                      perfect_estimate, random_bits, required_bits_per_user,
                      snr_to_noise_var, split_messages)
from afdmrsma import receiver
from afdmrsma.experiments import FIGURES
from afdmrsma.harness import _taps_nmse
from afdmrsma.receiver import ChannelEstimate, _lower_quartile, _one_tap, _tap_mmse
from afdmrsma.transforms import _freq_to_affine
import oracles
from oracles import channel_matrix, daft_matrix, idaft_matrix, tap_mmse_time


def make_cfg(n=256, c1p=64, guard=8, pilot=10.0, phi1=4.0, phi2=1.0,
             approach=Approach.CLEAN_PILOT, cp_len=0, cpc=None, c2=0.0):
    return FrameConfig(affine=AffineParams(n, c1p, c2), guard=guard, phi_pilot=pilot,
                       phi1=phi1, phi2=phi2, approach=approach, cp_len=cp_len,
                       common_per_class=cpc)


def tx_frame(msgs, cfg, user=1):
    """One user's transmitted frame: the common stream and that user's
    private stream, each modulated once."""
    private = msgs.private_bits_user1 if user == 1 else msgs.private_bits_user2
    return build_frame(modulate_bits(msgs.common_bits), modulate_bits(private), cfg)


def make_frame(cfg, seed=0, user=1):
    rng = frame_rng(seed, 0, 0)
    r1, r2 = required_bits_per_user(cfg)
    msgs = split_messages(random_bits(rng, r1), random_bits(rng, r2), cfg)
    return msgs, tx_frame(msgs, cfg, user=user)


def pilot_frame(cfg):
    return add_cp(idaft(build_affine_pilot(cfg), cfg.affine), cfg.cp_len)


class TestFreqEstimator:
    def test_identity_channel(self):
        cfg = make_cfg(cp_len=4)
        _, tx = make_frame(cfg)
        rx = apply_channel(tx, ChannelSpec((ChannelTap(1.0, 0, 0),)))
        est = estimate_channel_freq(extract_received_planes(rx, cfg)[0], cfg)
        npt.assert_allclose(est.h_freq, np.ones(256), atol=1e-9)

    def test_two_tap_matches_response(self):
        cfg = make_cfg(cp_len=4)  # M = 4 > max delay 2
        spec = ChannelSpec((ChannelTap(1.0, 0, 0), ChannelTap(0.5, 2, 0)))
        _, tx = make_frame(cfg, seed=1)
        rx = apply_channel(tx, spec)
        est = estimate_channel_freq(extract_received_planes(rx, cfg)[0], cfg)
        npt.assert_allclose(est.h_freq, freq_response(spec, 256), atol=1e-6)

    def test_nmse_at_25db(self):
        cfg = make_cfg(cp_len=4)
        spec0 = ChannelSpec((ChannelTap(1.0, 0, 0), ChannelTap(0.5, 2, 0)),
                            normalize=True)
        nv = snr_to_noise_var(25.0, frame_energy_budget(cfg) / cfg.n)
        nmses = []
        for f in range(100):
            rng = frame_rng(21, 0, f)
            r1, r2 = required_bits_per_user(cfg)
            msgs = split_messages(random_bits(rng, r1), random_bits(rng, r2), cfg)
            tx = tx_frame(msgs, cfg, user=1)
            rx = apply_channel(tx, spec0.with_noise(nv), rng)
            est = estimate_channel_freq(extract_received_planes(rx, cfg)[0], cfg)
            nmses.append(estimate_nmse(est, spec0, cfg.n))
        assert np.mean(nmses) < 1e-2

    def test_nmse_improves_with_pilot_power(self):
        # estimate-then-reconstruct NMSE drops as pilot power rises 10 -> 15 dB
        spec0 = ChannelSpec((ChannelTap(1.0, 0, 0), ChannelTap(0.5, 2, 0)),
                            normalize=True)
        means = []
        for pilot_db in (10.0, 15.0):
            cfg = make_cfg(cp_len=4, pilot=10.0 ** (pilot_db / 10.0))
            nv = snr_to_noise_var(12.0, frame_energy_budget(cfg) / cfg.n)
            nmses = []
            for f in range(100):
                rng = frame_rng(81, 0, f)
                r1, r2 = required_bits_per_user(cfg)
                msgs = split_messages(random_bits(rng, r1), random_bits(rng, r2),
                                      cfg)
                tx = tx_frame(msgs, cfg, user=1)
                rx = apply_channel(tx, spec0.with_noise(nv), rng)
                est = estimate_channel_freq(extract_received_planes(rx, cfg)[0], cfg)
                nmses.append(estimate_nmse(est, spec0, cfg.n))
            means.append(np.mean(nmses))
        assert means[1] < means[0]

    def test_embedded_pilot_rejected(self):
        cfg = make_cfg(approach=Approach.PILOT_AND_DATA)
        _, tx = make_frame(cfg)
        with pytest.raises(PilotContaminated):
            estimate_channel_freq(extract_received_planes(tx, cfg)[0], cfg)

    def test_degenerate_pilot(self):
        from afdmrsma.errors import DegeneratePilot
        cfg = make_cfg(pilot=1e-30)
        _, tx = make_frame(cfg)
        with pytest.raises(DegeneratePilot):
            estimate_channel_freq(extract_received_planes(tx, cfg)[0], cfg)


class TestAffineEstimator:
    def test_single_identity_tap(self):
        cfg = make_cfg(c1p=64, guard=8)
        rx = apply_channel(pilot_frame(cfg), ChannelSpec((ChannelTap(1.0, 0, 0),)))
        est = estimate_channel_affine(extract_received_planes(rx, cfg)[1], cfg)
        assert len(est.taps) == 1
        t = est.taps[0]
        assert (t.l, t.k) == (0, 0)
        assert abs(t.h - 1.0) < 1e-9

    def test_delay_tap_recovered(self):
        cfg = make_cfg(c1p=64, guard=64)
        h = 0.8 * np.exp(1j * np.pi / 4)
        rx = apply_channel(pilot_frame(cfg), ChannelSpec((ChannelTap(h, 1, 0),)))
        plane = extract_received_planes(rx, cfg)[1]
        # the peak sits at the wrap-side bin N - c1' = 192
        assert int(np.argmax(np.abs(plane.data))) == 192
        est = estimate_channel_affine(plane, cfg)
        t = est.taps[0]
        assert (t.l, t.k) == (1, 0)
        assert abs(t.h - h) < 1e-6

    def test_delay_doppler_tap_recovered(self):
        cfg = make_cfg(c1p=64, guard=66)
        rx = apply_channel(pilot_frame(cfg), ChannelSpec((ChannelTap(0.7, 1, 2),)))
        plane = extract_received_planes(rx, cfg)[1]
        assert int(np.argmax(np.abs(plane.data))) == (2 - 64) % 256
        est = estimate_channel_affine(plane, cfg)
        t = est.taps[0]
        assert (t.l, t.k) == (1, 2)
        assert abs(t.h - 0.7) < 1e-6

    def test_exact_recovery_grid(self):
        # every (l, k) with c1' l + k < G and k < c1' recovers exactly
        cfg = make_cfg(c1p=16, guard=64)
        h = 0.8 * np.exp(0.7j)
        for l in range(4):
            for k in range(16):
                if 16 * l + k >= 64:
                    continue
                rx = apply_channel(pilot_frame(cfg),
                                   ChannelSpec((ChannelTap(h, l, k),)))
                est = estimate_channel_affine(
                    extract_received_planes(rx, cfg)[1], cfg)
                assert len(est.taps) == 1
                t = est.taps[0]
                assert (t.l, t.k) == (l, k)
                assert abs(t.h - h) < 1e-6

    def test_multi_tap(self):
        cfg = make_cfg(c1p=16, guard=40)
        spec = ChannelSpec((ChannelTap(0.9, 0, 0), ChannelTap(0.4 - 0.2j, 2, 3)))
        rx = apply_channel(pilot_frame(cfg), spec)
        est = estimate_channel_affine(extract_received_planes(rx, cfg)[1], cfg)
        assert estimate_nmse(est, spec, cfg.n) < 1e-12

    @pytest.mark.parametrize("c2", [0.0, 1 / 256, 0.37])
    def test_zone_gain_is_the_daft_image_of_the_pilot(self, c2):
        # each candidate entry's pilot gain is the bin the DAFT reads off
        # the pilot frame through a unit tap of its (delay, Doppler)
        cfg = make_cfg(c1p=4, guard=16, c2=c2)
        zone = receiver._peak_zone(cfg, None, None)
        for j in np.flatnonzero(zone.is_candidate):
            tap = ChannelTap(1.0, int(zone.delays[j]), int(zone.dopplers[j]))
            image = daft(apply_channel(pilot_frame(cfg), ChannelSpec((tap,))), cfg.affine)
            got = image.data[zone.bins[j]]
            assert abs(got - zone.pilot_gain[j]) <= 1e-14 * abs(got), (tap, c2)

    def test_unresolvable_doppler_strict(self):
        cfg = make_cfg(c1p=4, guard=8)
        rx = apply_channel(pilot_frame(cfg), ChannelSpec((ChannelTap(1.0, 0, 5),)))
        with pytest.raises(UnresolvableDoppler):
            estimate_channel_affine(extract_received_planes(rx, cfg)[1], cfg)

    def test_unresolvable_doppler_skipped_when_lenient(self):
        cfg = make_cfg(c1p=4, guard=8)
        spec = ChannelSpec((ChannelTap(0.9, 0, 0), ChannelTap(0.5, 0, 5)))
        rx = apply_channel(pilot_frame(cfg), spec)
        est = estimate_channel_affine(extract_received_planes(rx, cfg)[1], cfg,
                                      strict=False)
        assert [(t.l, t.k) for t in est.taps] == [(0, 0)]

    def test_hint_validation(self):
        cfg = make_cfg(c1p=16, guard=8)
        plane = Frame(np.zeros(256), Domain.AFFINE)
        with pytest.raises(UnresolvableDoppler):
            estimate_channel_affine(plane, cfg, max_doppler=16)
        with pytest.raises(GuardViolation):
            estimate_channel_affine(plane, cfg, max_delay=1, max_doppler=2)

    def test_delay_only_mode_rejects_offgrid_shift(self):
        cfg = make_cfg(c1p=16, guard=40)
        rx = apply_channel(pilot_frame(cfg), ChannelSpec((ChannelTap(1.0, 1, 2),)))
        with pytest.raises(UnresolvableDoppler):
            estimate_channel_affine(extract_received_planes(rx, cfg)[1], cfg,
                                    max_doppler=0)

    def test_delay_only_nmse_is_tap_wise(self):
        # a delay-only tap list of a delay-only channel is scored tap by
        # tap, as any tap list is; by Parseval that is its response's error
        # up to rounding
        cfg = make_cfg(c1p=16, guard=40)
        spec = ChannelSpec((ChannelTap(0.9, 0, 0), ChannelTap(0.4, 2, 0)))
        rx = apply_channel(pilot_frame(cfg), spec)
        est = estimate_channel_affine(extract_received_planes(rx, cfg)[1], cfg)
        est = ChannelEstimate(Domain.AFFINE, taps=tuple(
            ChannelTap(t.h * (1 + 0.01j), t.l, t.k) for t in est.taps))
        response = ChannelEstimate(Domain.FREQUENCY,
                                   h_freq=freq_response(ChannelSpec(est.taps), cfg.n))
        nmse = estimate_nmse(est, spec, cfg.n)
        assert 0 < nmse < 1e-3
        assert nmse == oracles.estimate_nmse(est, spec, cfg.n)
        assert nmse == pytest.approx(estimate_nmse(response, spec, cfg.n), rel=1e-12)


class TestEstimateForms:
    """An estimate holds one form: a response (FREQUENCY) or a tap list
    (AFFINE)."""

    def test_every_estimator_returns_one_form(self):
        cfg = make_cfg(c1p=16, guard=40, cp_len=4)
        spec = ChannelSpec((ChannelTap(0.9, 0, 0), ChannelTap(0.4, 2, 0)))
        y_f, y_a = extract_received_planes(apply_channel(make_frame(cfg)[1], spec), cfg)
        for est, domain in ((estimate_channel_freq(y_f, cfg), Domain.FREQUENCY),
                            (estimate_channel_affine(y_a, cfg, strict=False), Domain.AFFINE),
                            (perfect_estimate(spec, cfg, Domain.FREQUENCY), Domain.FREQUENCY),
                            (perfect_estimate(spec, cfg, Domain.AFFINE), Domain.AFFINE)):
            assert est.domain is domain
            assert (est.h_freq is None) == (domain is Domain.AFFINE)
            assert (est.taps is None) == (domain is Domain.FREQUENCY)

    def test_constructor_refuses_any_other_form(self):
        taps, h = (ChannelTap(1.0, 0, 0),), np.ones(256)
        ChannelEstimate(Domain.FREQUENCY, h_freq=h)
        ChannelEstimate(Domain.AFFINE, taps=taps)
        ChannelEstimate(Domain.AFFINE, taps=())   # a peak search may find no tap
        for domain in Domain:
            for kw in ({}, dict(taps=taps, h_freq=h), dict(taps=taps), dict(h_freq=h)):
                if (domain, tuple(kw)) in ((Domain.FREQUENCY, ("h_freq",)),
                                           (Domain.AFFINE, ("taps",))):
                    continue
                with pytest.raises(ConfigError, match="a channel estimate is"):
                    ChannelEstimate(domain, **kw)


def _outcome(fn, *args, **kw):
    """What ``fn`` returns, or the type of the exception it raises."""
    try:
        return fn(*args, **kw)
    except Exception as exc:
        return type(exc)


class TestAffineEstimatorOracle:
    """The public estimator and NMSE run the package's row-wise kernels on
    one row; both must equal the loop and dict forms in ``oracles``."""

    # every distinct frame of the bundled figure presets, with its own
    # search bounds
    GEOMETRIES = sorted({(sim.frame, (sim.design.max_delay, sim.design.max_doppler))
                         for fig in FIGURES for _, sim in FIGURES[fig](frames=1)}, key=repr)

    def planes(self, cfg, rng):
        """A pilot-only plane, then noisy planes with 0 to 3 peaks injected
        at random bins of the guard zone."""
        pilot = build_affine_pilot(cfg).data
        yield pilot
        zone = np.arange(-cfg.guard, cfg.guard + 1) % cfg.n
        for peaks in range(4):
            sigma = rng.choice([0.05, 0.5])
            y = pilot + sigma * (rng.normal(size=cfg.n) + 1j * rng.normal(size=cfg.n))
            for b in rng.choice(zone, size=peaks, replace=False):
                y[b] += np.sqrt(cfg.phi_pilot) * rng.uniform(0.1, 1.0) * np.exp(
                    2j * np.pi * rng.uniform())
            yield y

    def test_estimates_equal_loop_oracle(self):
        rng = np.random.default_rng(8)
        raised = kept = 0
        for cfg, own in self.GEOMETRIES:
            for y in self.planes(cfg, rng):
                plane = Frame(y, Domain.AFFINE)
                for bounds in ((None, None), (0, 0), own):
                    for strict in (True, False):
                        for noise_var in (0.0, 0.1):
                            args = (plane, cfg, *bounds, noise_var, strict)
                            got = _outcome(estimate_channel_affine, *args)
                            ref = _outcome(oracles.estimate_channel_affine, *args)
                            if isinstance(ref, type):
                                assert got is ref
                                raised += 1
                                continue
                            assert got == ref
                            kept += 1
        assert raised and kept

    def test_nmse_equals_dict_oracle(self):
        rng = np.random.default_rng(9)
        delay_only = ChannelSpec((ChannelTap(0.8, 0, 0), ChannelTap(0.5 + 0.2j, 1, 0)))
        for cfg, _ in self.GEOMETRIES:
            for y in self.planes(cfg, rng):
                est = estimate_channel_affine(Frame(y, Domain.AFFINE), cfg,
                                              strict=False, noise_var=0.1)
                # a truth that matches all but the estimate's last tap and
                # holds two taps the estimate misses (beyond its delays, so
                # that no (delay, Doppler) pair repeats)
                late = 1 + max(t.l for t in est.taps)
                drift = ChannelSpec(tuple(ChannelTap(t.h * (0.9 + 0.1j), t.l, t.k)
                                          for t in est.taps[:-1])
                                    + (ChannelTap(0.3, late, cfg.affine.c1_prime - 1),
                                       ChannelTap(0.2, late, 0)))
                for spec in (delay_only, drift):
                    ests = (est, perfect_estimate(spec, cfg, Domain.AFFINE),
                            perfect_estimate(delay_only, cfg, Domain.AFFINE),
                            perfect_estimate(delay_only, cfg, Domain.FREQUENCY),
                            ChannelEstimate(Domain.FREQUENCY, h_freq=np.fft.fft(y)))
                    for e in ests:
                        assert estimate_nmse(e, spec, cfg.n) == \
                            oracles.estimate_nmse(e, spec, cfg.n)


@pytest.mark.parametrize("k2", [0, 1], ids=["delay-only-truth", "doppler-truth"])
def test_tap_scorer_rows_equal_the_dict_oracle(k2):
    # one block whose groups, their rows interleaved, hold a matched list
    # with a spurious tap, a list that misses a true tap, a delay-only list
    # and a list that both misses and adds one; each row scores as the dict
    # oracle scores that row's list on its own, bit for bit
    n = 64
    spec = ChannelSpec((ChannelTap(0.8, 0, 0), ChannelTap(0.5 + 0.2j, 2, k2)))
    lists = [([0, 2, 1], [0, k2, 3]), ([2], [k2]), ([0, 1], [0, 0]), ([3, 0], [1, 0])]
    rng = np.random.default_rng(5)
    rows = rng.permutation(2 * len(lists)).reshape(len(lists), 2)
    groups = [(r, ls, ks, _cn(rng, len(r), len(ls))) for r, (ls, ks) in zip(rows, lists)]
    got = _taps_nmse(groups, spec)
    assert got.shape == (rows.size,)
    for r, ls, ks, hs in groups:
        for row, h in zip(r, hs):
            est = ChannelEstimate(Domain.AFFINE, taps=tuple(
                ChannelTap(complex(g), l, k) for l, k, g in zip(ls, ks, h)))
            assert got[row] == oracles.estimate_nmse(est, spec, n), (ls, ks)


class TestEqualize:
    def test_zf_exact_freq(self):
        cfg = make_cfg(cp_len=4)
        spec = ChannelSpec((ChannelTap(1.0, 0, 0), ChannelTap(0.5, 2, 0)))
        msgs, tx = make_frame(cfg, seed=2)
        rx = apply_channel(tx, spec)
        clean_f = extract_received_planes(tx, cfg)[0]
        y_f = extract_received_planes(rx, cfg)[0]
        eq = equalize(y_f, perfect_estimate(spec, cfg, Domain.FREQUENCY), cfg)
        npt.assert_allclose(eq.data, clean_f.data, atol=1e-8)

    def test_mmse_converges_to_zf(self):
        cfg = make_cfg(cp_len=4)
        spec = ChannelSpec((ChannelTap(1.0, 0, 0), ChannelTap(0.5, 2, 0)))
        _, tx = make_frame(cfg, seed=3)
        y_f = extract_received_planes(apply_channel(tx, spec), cfg)[0]
        est = perfect_estimate(spec, cfg, Domain.FREQUENCY)
        zf = equalize(y_f, est, cfg)
        mmse = equalize(y_f, est, cfg, noise_var=1e-12)
        assert np.max(np.abs(zf.data - mmse.data)) < 1e-6

    def test_singular_channel(self):
        cfg = make_cfg()
        h = np.ones(256, complex)
        h[3] = 0.0
        est = ChannelEstimate(Domain.FREQUENCY, h_freq=h)
        with pytest.raises(SingularChannel):
            equalize(Frame(np.ones(256), Domain.FREQUENCY), est, cfg)
        # equal-gain taps (0, 0) and (0, 1) cancel at time sample N/2
        est = ChannelEstimate(Domain.AFFINE, taps=(ChannelTap(1.0, 0, 0),
                                                   ChannelTap(1.0, 0, 1)))
        with pytest.raises(SingularChannel):
            equalize(Frame(np.ones(256), Domain.AFFINE), est, cfg)

    @pytest.mark.parametrize("n", [16, 256])
    def test_singular_delay_doppler_channel(self, n):
        # (1, 0, 0) + (e^{i pi/N}, 1, 1) is singular for every even N: the
        # zero-forcing pivot test refuses it instead of returning noise
        cfg = make_cfg(n=n, c1p=4, guard=2)
        est = ChannelEstimate(Domain.AFFINE, taps=(
            ChannelTap(1.0, 0, 0), ChannelTap(np.exp(1j * np.pi / n), 1, 1)))
        y = Frame(np.random.default_rng(n).standard_normal(n) + 0j, Domain.AFFINE)
        with pytest.raises(SingularChannel):
            equalize(y, est, cfg)
        assert np.all(np.isfinite(equalize(y, est, cfg, noise_var=1e-3).data))

    def test_near_null_refused_by_one_relative_rule(self):
        # both taps at delay 0, 1e-7 apart in gain: the one-tap rule sees
        # min |h|^2 / max |h|^2 = 2.5e-15 at sample N/2 and refuses, as the
        # banded solve refuses the delayed analogue with the same near-null
        cfg = make_cfg(c1p=4, guard=2)
        y = Frame(np.random.default_rng(1).standard_normal(256) + 0j, Domain.AFFINE)
        for second in (ChannelTap(1 - 1e-7, 0, 1),
                       ChannelTap(np.exp(1j * np.pi / 256) * (1 - 1e-7), 1, 1)):
            est = ChannelEstimate(Domain.AFFINE, taps=(ChannelTap(1.0, 0, 0), second))
            with pytest.raises(SingularChannel):
                equalize(y, est, cfg)
            assert np.all(np.isfinite(equalize(y, est, cfg, noise_var=1e-3).data))

    def test_one_tap_refusal_is_judged_per_frame(self):
        # a weak but flat channel is not singular, whatever frame shares its block
        rng = np.random.default_rng(2)
        h = rng.standard_normal((3, 64)) + 1j * rng.standard_normal((3, 64))
        h[1] *= 1e-5
        y = h * (1 + 1j)
        npt.assert_allclose(_one_tap(y, h, 0.0), np.full((3, 64), 1 + 1j))
        h[2, 5] = 1e-4 * np.abs(h[2]).max()
        with pytest.raises(SingularChannel):
            _one_tap(y, h, 0.0)

    def test_doubly_dispersive_mmse_oracle(self):
        # single tap (1, 1, 1), perfect taps, tiny noise: near-exact symbol
        # plane, and identical to the dense full-matrix MMSE solve
        cfg = make_cfg(c1p=16, guard=20, cp_len=0)
        spec = ChannelSpec((ChannelTap(1.0, 1, 1),), noise_var=1e-10)
        msgs, tx = make_frame(cfg, seed=4)
        clean_a = extract_received_planes(tx, cfg)[1]
        rx = apply_channel(tx, spec, np.random.default_rng(0))
        y_a = extract_received_planes(rx, cfg)[1]
        est = perfect_estimate(spec, cfg, Domain.AFFINE)
        eq = equalize(y_a, est, cfg, noise_var=1e-10)
        nmse = (np.sum(np.abs(eq.data - clean_a.data) ** 2)
                / np.sum(np.abs(clean_a.data) ** 2))
        assert nmse < 1e-6
        # dense oracle: x = H^H (H H^H + gI)^{-1} y in the affine plane
        h_aff = daft_matrix(cfg.affine) @ channel_matrix(spec, 256) \
            @ idaft_matrix(cfg.affine)
        g = 1e-10 / (frame_energy_budget(cfg) / cfg.n)
        gram = h_aff @ h_aff.conj().T + g * np.eye(256)
        ref = h_aff.conj().T @ np.linalg.solve(gram, y_a.data)
        npt.assert_allclose(eq.data, ref, atol=1e-8)
        # zero noise is zero forcing: x = H^{-1} y
        eq0 = equalize(y_a, est, cfg, noise_var=0.0)
        x_time = np.linalg.solve(channel_matrix(spec, 256), idaft(y_a, cfg.affine).data)
        npt.assert_allclose(eq0.data, daft(Frame(x_time, Domain.TIME), cfg.affine).data,
                            atol=1e-8)


def _rule(ls, ks, n):
    """(rule, Doppler spread) of a tap list, as the equalizer picks them (see
    ``receiver._solve_rule``): every list solves in unitary frequency, where
    a tap shifts by its Doppler."""
    chirp = receiver._solve_rule(tuple(ls), tuple(ks), n)
    spread = max(ks) - min(ks)
    return "collinear" if chirp is not None else "general" if spread else "one-tap", spread


# (taps, first delay, delay spread, first Doppler, Doppler spread) of the
# random tap sets below.  Two-tap sets are collinear when their Doppler
# difference is odd, and three-tap sets whose taps share one delay are
# collinear at rate 0; the other three- and four-tap ones are mostly
# general, solved by cyclic reduction with block size B the smallest power
# of two >= the Doppler spread and P = N / B blocks
def _oracle_cases(n):
    q = n // 4
    return [
        (1, 0, 0, 0, 0),            # single tap: one-tap
        (1, 3, 0, 2, 0),            # one delayed Doppler tap: one-tap, shifted
        (3, 2, 0, 0, 3),            # common delay: collinear, c = 0
        (2, 0, 3, 1, 0),            # common Doppler: one-tap, shifted
        (2, 0, 1, 0, 1),            # collinear
        (3, 0, 2, 0, 1),            # B = 1 (the fig9 shape)
        (4, 0, 2, 0, 5),            # B = 8
        (4, 0, 5, 0, 3),            # B = 4
        (3, 1, 3, 0, 3),            # B = 4, every tap delayed
        (2, 0, q + 1, 0, q + 2),    # even Doppler difference, odd delay one: P = 2
        (3, 0, q + 2, 0, q + 1),    # P = 2
        (2, 0, 2 * q + 1, 0, 2 * q + 1),  # collinear
        (4, 0, 2 * q + 2, 0, 2 * q + 1),  # P = 1
    ]


# (delays, Dopplers) of tap lists for the chirp rule: a collinear list has
# its delay linear in its Doppler mod N, at rate c
def _collinear_cases(n):
    return [
        ([0, 2], [0, 1]),             # c = -2 (fig9's taps)
        ([0, 1], [0, 1]),             # c = -1
        ([0, 1, 2], [0, 3, 6]),       # c = -1/3 mod N
        ([2, 0, 4], [1, 0, 2]),       # c = -2
        ([0, 3], [1, 3]),             # general, B = 2: no rate fits
        ([0, 1, 2], [0, n // 2 + 1, 2]),  # c = N/2 - 1, the Doppler wrapped mod N
        ([0, 0, 0], [0, 9, 3]),       # c = 0 (fig7's delay-free taps, spurious Dopplers)
        ([3, 3], [1, 2]),             # c = 0, both taps delayed
    ]


def test_banded_mmse_matches_dense_oracle():
    rng = np.random.default_rng(2024)
    zf_checked, rules = 0, Counter()
    for n in (16, 64, 256):
        cfg = make_cfg(n=n, c1p=4, guard=2)
        per_sample = frame_energy_budget(cfg) / cfg.n
        tap_lists = [([l0, l0 + l_span, *rng.integers(l0, l0 + l_span + 1, 2)][:n_taps],
                      [k0 + k_span, k0, *rng.integers(k0, k0 + k_span + 1, 2)][:n_taps])
                     for n_taps, l0, l_span, k0, k_span in _oracle_cases(n) for _ in range(3)]
        for ls, ks in tap_lists + _collinear_cases(n):
            ls, ks = [int(l) for l in ls], [int(k) for k in ks]
            rule, _ = _rule(ls, ks, n)
            # the chirp rate is 0 exactly when the taps share one delay
            rules[rule, len(set(ls)) == 1] += 1
            taps = tuple(ChannelTap(complex(rng.standard_normal(), rng.standard_normal()), l, k)
                         for l, k in zip(ls, ks))
            est = ChannelEstimate(Domain.AFFINE, taps=taps)
            y = Frame(rng.standard_normal(n) + 1j * rng.standard_normal(n), Domain.AFFINE)
            # tap by tap: a random list may repeat a (delay, Doppler) pair,
            # which a ChannelSpec refuses
            cond = np.linalg.cond(sum(channel_matrix(ChannelSpec((t,)), n) for t in taps)) ** 2
            for g in (1e-3, 0.1, 0.0):
                if g == 0 and cond >= 1e4:
                    continue
                zf_checked += g == 0
                nv = g * per_sample
                got = equalize(y, est, cfg, noise_var=nv).data
                ref = daft(Frame(tap_mmse_time(idaft(y, cfg.affine).data, taps, n,
                                               nv / per_sample), Domain.TIME),
                           cfg.affine).data
                err = np.linalg.norm(got - ref) / np.linalg.norm(ref)
                assert err < 1e-9, (n, taps, g, err)
    assert zf_checked >= 30
    # the chirp FFT pair at rates c != 0 and c = 0, and the cyclic reduction
    assert rules["collinear", False] >= 10 and rules["collinear", True] >= 10, rules
    assert rules["general", True] + rules["general", False] >= 10, rules


def test_no_dense_solve_on_the_equalizer_path(monkeypatch):
    # fig9's taps at N = 256, and the spurious third peak of its noisy
    # estimates, reach numpy's dense solvers with nothing larger than 2 x 2;
    # fig7's delay-free taps with spurious Doppler peaks, a rate-0 chirp,
    # reach them not at all
    shapes = []
    for name in ("solve", "inv"):
        real = getattr(np.linalg, name)

        def spy(a, *args, _real=real, **kwargs):
            shapes.append(np.shape(a)[-2:])
            return _real(a, *args, **kwargs)
        monkeypatch.setattr(np.linalg, name, spy)
    cfg = make_cfg(n=256, c1p=4, guard=9)
    y = Frame(np.random.default_rng(9).standard_normal(256) + 0j, Domain.AFFINE)

    def run(taps):
        est = ChannelEstimate(Domain.AFFINE, taps=taps)
        for nv in (0.0, 0.01):
            assert np.all(np.isfinite(equalize(y, est, cfg, noise_var=nv).data))
    run((ChannelTap(0.9, 0, 0), ChannelTap(0.3, 0, 9), ChannelTap(0.2, 0, 3)))
    assert shapes == []
    fig9 = (ChannelTap(0.857, 0, 0), ChannelTap(0.514, 2, 1))
    for taps in (fig9, fig9 + (ChannelTap(0.1, 1, 1),)):
        run(taps)
    assert all(max(shape, default=0) <= 2 for shape in shapes), shapes


# (delays, Dopplers) of one group of each kind the block equalizer solves
# (see _rule): Doppler spread 0 takes the one-tap rule, a collinear group
# the chirp FFT pair, and a general one the cyclic reduction with block
# size B the smallest power of two >= its Doppler spread
_KERNEL_GROUPS = [
    ([0, 2], [3, 3]),         # spread 0: one tap per subcarrier, shifted
    ([2, 2], [0, 3]),         # collinear, c = 0
    ([0, 1], [0, 1]),         # collinear, c = -1
    ([0, 3], [1, 3]),         # general, B = 2: no rate fits
    ([0, 2], [0, 1]),         # collinear (the fig9 shape)
    ([0, 2], [0, 3]),         # collinear
    ([0, 1, 0], [0, 1, 2]),   # general, B = 2
    ([0, 3, 1], [0, 4, 2]),   # general, B = 4
    ([0, 2, 1], [0, 1, 1]),   # general, B = 1 (fig9 with a spurious peak)
    ([0, 3, 5], [0, 1, 2]),   # general, B = 2
]


def _cn(rng, *shape):
    return rng.standard_normal(shape) + 1j * rng.standard_normal(shape)


@pytest.mark.parametrize("g", [0.1, 1e-3])
@pytest.mark.parametrize("n", [16, 64, 256])
def test_block_equalizer_is_row_independent(n, g):
    # one call over a block that mixes every group kind, with the collinear
    # groups in one FFT pair and the general groups of one block size in
    # one cyclic reduction, gives each row the plane the kernel gives that
    # row alone, and so the same affine plane
    p = AffineParams(n, 4)
    rng = np.random.default_rng(n)
    rows = rng.permutation(3 * len(_KERNEL_GROUPS)).reshape(len(_KERNEL_GROUPS), 3)
    groups = [(r, ls, ks, _cn(rng, len(r), len(ls))) for r, (ls, ks) in zip(rows, _KERNEL_GROUPS)]
    y_freq = _cn(rng, rows.size, n)
    eq_f = _tap_mmse(y_freq, groups, g)
    eq_a = _freq_to_affine(eq_f, p)
    for r, ls, ks, hs in groups:
        for i, row in enumerate(r):
            alone = _tap_mmse(y_freq[row:row + 1], [(np.array([0]), ls, ks, hs[i:i + 1])], g)
            assert np.array_equal(alone[0], eq_f[row]), (ls, ks, row)
            assert np.array_equal(_freq_to_affine(alone, p)[0], eq_a[row]), (ls, ks, row)


def test_rows_with_one_tap_set_form_one_group():
    # two frames whose peaks hold the same two taps, the stronger first in
    # one and last in the other, form one group: an estimate is the set of
    # zone entries it keeps, not their order by magnitude; each row's
    # equalized plane equals the one it gets alone
    cfg, bounds, g = make_cfg(c1p=16, guard=40), (2, 3), 1e-3
    planes = [extract_received_planes(apply_channel(pilot_frame(cfg), ChannelSpec(
                  (ChannelTap(h0, 0, 0), ChannelTap(h1, 2, 3)))), cfg)
              for h0, h1 in ((0.9, 0.4 - 0.2j), (0.4, 0.9 - 0.2j))]
    y_freq, y_aff = (np.array([plane[i].data for plane in planes]) for i in (0, 1))
    zone = receiver._peak_zone(cfg, *bounds)
    groups = receiver._affine_tap_groups(y_aff, zone, 0.0)
    [(rows, ls, ks, hs)] = groups
    assert rows.tolist() == [0, 1] and sorted(zip(ls, ks)) == [(0, 0), (2, 3)]
    assert np.argmax(np.abs(hs[0])) != np.argmax(np.abs(hs[1]))
    eq = _tap_mmse(y_freq, groups, g)
    for row in range(2):
        alone = _tap_mmse(y_freq[row:row + 1],
                          receiver._affine_tap_groups(y_aff[row:row + 1], zone, 0.0), g)
        assert np.array_equal(eq[row], alone[0])


def _singular_general_gains(ls, ks, n):
    """Gains that make the three-tap list (ls, ks) singular: the last is
    minus an eigenvalue of the other two taps' channel seen through the
    last tap's (unitary) one."""
    first = channel_matrix(ChannelSpec((ChannelTap(1.0, ls[0], ks[0]),
                                        ChannelTap(0.6, ls[1], ks[1]))), n)
    last = channel_matrix(ChannelSpec((ChannelTap(1.0, ls[2], ks[2]),)), n)
    mu = np.linalg.eigvals(np.linalg.solve(last, first))
    return [1.0, 0.6, -mu[np.argmax(np.abs(mu))]]


@pytest.mark.parametrize("ls, ks, h", [
    ([0, 1], [0, 1], [1.0, np.exp(1j * np.pi / 64)]),   # collinear (c = -1), null at N/2
    ([0, 0], [0, 1], [1.0, 1.0]),                       # collinear (c = 0), null at sample N/2
    ([0, 1], [0, 0], [1.0, 1.0]),                       # spread 0, null at subcarrier N/2
    ([0, 1, 3], [0, 1, 0], _singular_general_gains([0, 1, 3], [0, 1, 0], 64)),  # general, B = 1
], ids=["collinear", "collinear-rate-0", "one-tap", "banded"])
def test_block_with_one_singular_group_refuses_zero_forcing(ls, ks, h):
    # one singular group makes the block call refuse zero forcing, also when
    # it shares the chirp FFT pair or a cyclic reduction with a healthy group
    rng = np.random.default_rng(3)
    healthy = [(np.array([0]), [0, 2], [0, 1], np.array([[0.857, 0.514]], complex)),
               (np.array([2]), [0, 2, 1], [0, 1, 1], np.array([[0.857, 0.514, 0.1]], complex))]
    singular = (np.array([1]), ls, ks, np.array([h], complex))
    y_freq = _cn(rng, 3, 64)
    _tap_mmse(y_freq[[0, 2]], [(np.array([i]), *group[1:]) for i, group in enumerate(healthy)],
              0.0)
    with pytest.raises(SingularChannel):
        _tap_mmse(y_freq, [*healthy, singular], 0.0)
    assert np.all(np.isfinite(_tap_mmse(y_freq, [*healthy, singular], 1e-3)))


def test_block_with_an_empty_group_refuses_equalization():
    # taps that cancel leave the peak search no tap; no rule equalizes that
    y_freq = _cn(np.random.default_rng(3), 3, 64)
    healthy = (np.array([0, 2]), [0, 2], [0, 1], np.array([[0.857, 0.514]] * 2, complex))
    empty = (np.array([1]), [], [], np.zeros((1, 0), complex))
    for g in (0.0, 1e-3):
        with pytest.raises(SingularChannel, match="no channel tap found"):
            _tap_mmse(y_freq, [healthy, empty], g)


def test_equalizer_cost_does_not_grow_with_the_group_count(monkeypatch):
    # a fig9 block at 5 dB splits into groups of every rule; its equalize
    # step runs one cyclic reduction per block size of the general groups
    # and one FFT pair, for the collinear groups: 2 calls (the affine plane
    # is the detector's, after the equalizer)
    sim = dict(FIGURES["fig9"](frames=16, seed=1))["sicfree-pilot10"]
    counts = {"reduction": 0, "fft": 0}
    seen, inside = [], [False]

    def counted(name, real):
        def spy(*args, **kwargs):
            counts[name] += inside[0]
            return real(*args, **kwargs)
        return spy
    monkeypatch.setattr(receiver, "_cyclic_reduction",
                        counted("reduction", receiver._cyclic_reduction))
    monkeypatch.setattr(np.fft, "fft", counted("fft", np.fft.fft))
    monkeypatch.setattr(np.fft, "ifft", counted("fft", np.fft.ifft))
    kernel = receiver._tap_mmse

    def equalize_step(y_freq, groups, g):
        seen.append(groups)
        inside[0] = True
        try:
            return kernel(y_freq, groups, g)
        finally:
            inside[0] = False
    monkeypatch.setattr(receiver, "_tap_mmse", equalize_step)
    oracles.run_block(sim, 1, range(16))
    [groups] = seen
    rules = [_rule(ls, ks, sim.frame.n) for _, ls, ks, _ in groups]
    assert {rule for rule, _ in rules} == {"one-tap", "collinear", "general"}
    assert counts["reduction"] == len({1 << (b - 1).bit_length()
                                       for rule, b in rules if rule == "general"})
    assert counts["fft"] == 2


class TestPlaneChecks:
    """The public estimators and detector refuse a plane of the wrong domain
    (ConfigError) or length (InvalidLength), as equalize does."""

    def planes(self):
        cfg = make_cfg(n=64, c1p=4, guard=8)
        return cfg, extract_received_planes(make_frame(cfg)[1], cfg)

    def test_estimate_channel_freq(self):
        cfg, (y_f, y_a) = self.planes()
        with pytest.raises(ConfigError):
            estimate_channel_freq(Frame(y_f.data, Domain.AFFINE), cfg)
        with pytest.raises(InvalidLength):
            estimate_channel_freq(Frame(y_f.data[:32], Domain.FREQUENCY), cfg)

    def test_estimate_channel_affine(self):
        cfg, (y_f, y_a) = self.planes()
        with pytest.raises(ConfigError):
            estimate_channel_affine(Frame(y_a.data, Domain.FREQUENCY), cfg)
        with pytest.raises(InvalidLength):
            estimate_channel_affine(Frame(y_a.data[:32], Domain.AFFINE), cfg)

    def test_detect_streams(self):
        cfg, (y_f, y_a) = self.planes()
        est = perfect_estimate(ChannelSpec((ChannelTap(1.0, 0, 0),)), cfg, Domain.FREQUENCY)
        with pytest.raises(ConfigError):
            detect_streams((y_a, y_f), cfg, est)
        with pytest.raises(InvalidLength):
            detect_streams((Frame(y_f.data[:32], Domain.FREQUENCY),
                            Frame(y_a.data[:32], Domain.AFFINE)), cfg, est)

    def test_detect_streams_refuses_a_mode_that_is_not_a_receiver_mode(self):
        cfg, planes = self.planes()
        est = perfect_estimate(ChannelSpec((ChannelTap(1.0, 0, 0),)), cfg, Domain.FREQUENCY)
        for mode in ("sic-clean", 1, None):
            with pytest.raises(ConfigError, match="mode must be a ReceiverMode"):
                detect_streams(planes, cfg, est, mode, 0.01)


class TestDetect:
    def loop_cfg(self, approach=Approach.CLEAN_PILOT):
        return make_cfg(c1p=4, guard=8, pilot=10.0, phi1=10.0, phi2=1.0,
                        approach=approach, cp_len=4, cpc=1)

    def test_noiseless_identity_zero_errors(self):
        spec = ChannelSpec((ChannelTap(1.0, 0, 0),))
        for approach in Approach:
            cfg = self.loop_cfg(approach)
            for f in range(10):
                rng = frame_rng(31, 0, f)
                r1, r2 = required_bits_per_user(cfg)
                msgs = split_messages(random_bits(rng, r1), random_bits(rng, r2), cfg)
                tx = tx_frame(msgs, cfg, user=1)
                rx = apply_channel(tx, spec)
                det = detect_streams(extract_received_planes(rx, cfg), cfg,
                                     perfect_estimate(spec, cfg, Domain.FREQUENCY))
                assert np.array_equal(det.common_bits, msgs.common_bits)
                assert np.array_equal(det.private_bits, msgs.private_bits_user1)

    def test_vanishing_private_matches_pure_afdm(self):
        # phi2 -> 0: the common-stream BER equals a common-only chirp frame
        # through the same channel and noise
        cfg = FrameConfig(affine=AffineParams(256, 4), guard=8, phi_pilot=10.0,
                          phi1=1.0, phi2=1e-20, cp_len=4, common_per_class=None)
        spec0 = ChannelSpec((ChannelTap(1.0, 0, 0), ChannelTap(0.5, 2, 0)),
                            normalize=True)
        nv = snr_to_noise_var(3.0, frame_energy_budget(cfg) / cfg.n)
        spec = spec0.with_noise(nv)

        rng = frame_rng(41, 0, 0)
        r1, r2 = required_bits_per_user(cfg)
        msgs = split_messages(random_bits(rng, r1), random_bits(rng, r2), cfg)
        tx = tx_frame(msgs, cfg, user=1)
        rx = apply_channel(tx, spec, frame_rng(42, 0, 0))
        est = perfect_estimate(spec0, cfg, Domain.FREQUENCY)
        det = detect_streams(extract_received_planes(rx, cfg), cfg, est, noise_var=nv)
        ber_mixed = np.mean(det.common_bits != msgs.common_bits)

        from afdmrsma import (Domain as D, Frame as F, build_affine_common,
                              build_affine_pilot, resource_map, idaft, add_cp,
                              demodulate_symbols, freq_to_affine, dft, remove_cp)
        syms = modulate_bits(msgs.common_bits)
        aff = build_affine_common(syms, cfg).data + build_affine_pilot(cfg).data
        pure = add_cp(idaft(F(aff, D.AFFINE), cfg.affine), cfg.cp_len)
        rx2 = apply_channel(pure, spec, frame_rng(42, 0, 0))
        y_f = dft(F(remove_cp(rx2.data, cfg.n, cfg.cp_len), D.TIME))
        eq = equalize(y_f, est, cfg, noise_var=nv)
        plane = freq_to_affine(eq, cfg.affine).data
        rm = resource_map(cfg)
        bits = demodulate_symbols(plane[rm.common_indices] / np.sqrt(cfg.phi1))
        ber_pure = np.mean(bits != msgs.common_bits)
        assert ber_mixed == ber_pure

    def test_sic_orderings(self):
        cfg = self.loop_cfg()
        spec0 = ChannelSpec((ChannelTap(1.0, 0, 0), ChannelTap(0.5, 2, 0)),
                            normalize=True)
        nv = snr_to_noise_var(8.0, frame_energy_budget(cfg) / cfg.n)
        errs = {m: 0 for m in ReceiverMode}
        bits = 0
        for f in range(150):
            rng = frame_rng(51, 0, f)
            r1, r2 = required_bits_per_user(cfg)
            msgs = split_messages(random_bits(rng, r1), random_bits(rng, r2), cfg)
            tx = tx_frame(msgs, cfg, user=1)
            rx = apply_channel(tx, spec0.with_noise(nv), rng)
            est = perfect_estimate(spec0, cfg, Domain.FREQUENCY)
            for mode in ReceiverMode:
                det = detect_streams(extract_received_planes(rx, cfg), cfg, est, mode, nv)
                errs[mode] += int(np.sum(det.common_bits != msgs.common_bits))
                errs[mode] += int(np.sum(det.private_bits != msgs.private_bits_user1))
            bits += msgs.common_bits.size + msgs.private_bits_user1.size
        se = 2 * np.sqrt(errs[ReceiverMode.SIC_FREE] + 1) / bits
        assert errs[ReceiverMode.SIC_FULL] / bits \
            <= errs[ReceiverMode.SIC_FREE] / bits + se
        assert errs[ReceiverMode.SIC_CLEAN_PILOT] / bits \
            <= errs[ReceiverMode.SIC_FREE] / bits + se

    def test_domain_duality_bit_exact(self):
        # delay-only, noiseless: frequency-path and affine-path detections
        # agree bit for bit
        spec = ChannelSpec((ChannelTap(1.0, 0, 0), ChannelTap(0.5 + 0.2j, 2, 0)),
                           normalize=True)
        for approach in Approach:
            cfg = self.loop_cfg(approach)
            for f in range(5):
                rng = frame_rng(61, 0, f)
                r1, r2 = required_bits_per_user(cfg)
                msgs = split_messages(random_bits(rng, r1), random_bits(rng, r2), cfg)
                tx = tx_frame(msgs, cfg, user=2)
                rx = apply_channel(tx, spec)
                d_f = detect_streams(extract_received_planes(rx, cfg), cfg,
                                     perfect_estimate(spec, cfg, Domain.FREQUENCY))
                d_a = detect_streams(extract_received_planes(rx, cfg), cfg,
                                     perfect_estimate(spec, cfg, Domain.AFFINE))
                assert np.array_equal(d_f.common_bits, d_a.common_bits)
                assert np.array_equal(d_f.private_bits, d_a.private_bits)

    def test_perfect_csi_zero_ber_both_paths(self):
        spec = ChannelSpec((ChannelTap(1.0, 0, 0), ChannelTap(0.5, 2, 0)),
                           normalize=True)
        cfg = make_cfg(c1p=4, guard=8, pilot=10.0, phi1=25.0, phi2=1.0,
                       cp_len=4, cpc=1)
        for dom in (Domain.FREQUENCY, Domain.AFFINE):
            for f in range(5):
                rng = frame_rng(71, 0, f)
                r1, r2 = required_bits_per_user(cfg)
                msgs = split_messages(random_bits(rng, r1), random_bits(rng, r2), cfg)
                tx = tx_frame(msgs, cfg, user=1)
                rx = apply_channel(tx, spec)
                det = detect_streams(extract_received_planes(rx, cfg), cfg,
                                     perfect_estimate(spec, cfg, dom))
                assert np.array_equal(det.common_bits, msgs.common_bits)
                assert np.array_equal(det.private_bits, msgs.private_bits_user1)


class TestLowerQuartile:
    """The affine estimator's floor in blocks: one partition per row instead
    of np.quantile, with the same interpolation, bit for bit."""

    @pytest.mark.parametrize("m", range(6, 20))
    def test_equals_np_quantile(self, m):
        rng = np.random.default_rng(m)
        cases = [rng.rayleigh(size=(40, m)),
                 rng.integers(0, 3, size=(40, m)).astype(float),   # ties
                 np.full((2, m), 0.7), np.abs(rng.standard_normal((40, m))) * 1e-300]
        for x in cases:
            got = _lower_quartile(x)
            want = np.array([np.quantile(row, 0.25) for row in x])
            assert np.array_equal(got, want)
            assert np.array_equal(_lower_quartile(x[0]), np.quantile(x[0], 0.25))
