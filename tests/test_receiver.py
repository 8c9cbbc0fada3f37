"""Estimators, equalizers and the dual-domain detector."""
import numpy as np
import numpy.testing as npt
import pytest

from afdmrsma import (AffineParams, Approach, ChannelSpec, ChannelTap, Domain,
                      Frame, FrameConfig, GuardViolation, PilotContaminated,
                      ReceiverMode, SingularChannel, UnresolvableDoppler,
                      add_cp, apply_channel, build_affine_pilot, build_frame,
                      channel_matrix, daft, detect_streams,
                      equalize, estimate_channel_affine, estimate_channel_freq,
                      estimate_nmse, extract_received_planes, frame_energy_budget,
                      frame_rng, freq_response, idaft, modulate_bits,
                      perfect_estimate, random_bits, required_bits_per_user,
                      snr_to_noise_var, split_messages)
from afdmrsma.receiver import ChannelEstimate


def make_cfg(n=256, c1p=64, guard=8, pilot=10.0, phi1=4.0, phi2=1.0,
             approach=Approach.CLEAN_PILOT, cp_len=0, cpc=None):
    return FrameConfig(affine=AffineParams(n, c1p), guard=guard, phi_pilot=pilot,
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

    def test_delay_only_freq_response_attached(self):
        cfg = make_cfg(c1p=16, guard=40)
        spec = ChannelSpec((ChannelTap(0.9, 0, 0), ChannelTap(0.4, 2, 0)))
        rx = apply_channel(pilot_frame(cfg), spec)
        est = estimate_channel_affine(extract_received_planes(rx, cfg)[1], cfg)
        npt.assert_allclose(est.h_freq, freq_response(spec, 256), atol=1e-6)


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
        from afdmrsma import daft_matrix, idaft_matrix
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
