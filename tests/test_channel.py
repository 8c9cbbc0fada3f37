"""Tap-channel action, dense-matrix oracle, responses and noise."""
import itertools

import numpy as np
import numpy.testing as npt
import pytest

from afdmrsma import (AffineParams, ChannelSpec, ChannelTap, Domain, DopplerPresent,
                      Frame, FrameConfig, InvalidChannel, apply_channel,
                      build_affine_pilot, daft, freq_response,
                      idaft, snr_to_noise_var)
from oracles import channel_matrix


def rand_frame(rng, n):
    return Frame(rng.normal(size=n) + 1j * rng.normal(size=n), Domain.TIME)


class TestApplyChannel:
    def test_identity_tap(self):
        x = rand_frame(np.random.default_rng(0), 16)
        y = apply_channel(x, ChannelSpec((ChannelTap(1.0, 0, 0),)))
        npt.assert_allclose(y.data, x.data, atol=1e-15)

    def test_pure_cyclic_shift(self):
        x = rand_frame(np.random.default_rng(1), 8)
        y = apply_channel(x, ChannelSpec((ChannelTap(1.0, 2, 0),)))
        npt.assert_allclose(y.data, x.data[(np.arange(8) - 2) % 8], atol=1e-15)

    def test_pure_doppler_tone(self):
        x = rand_frame(np.random.default_rng(2), 8)
        y = apply_channel(x, ChannelSpec((ChannelTap(1.0, 0, 1),)))
        npt.assert_allclose(y.data, np.exp(2j * np.pi * np.arange(8) / 8) * x.data,
                            atol=1e-14)

    def test_dense_matrix_oracle_grid(self):
        rng = np.random.default_rng(3)
        for ell in (8, 16, 32):
            x = rand_frame(rng, ell)
            # single taps over the full (l, k) grid
            for l, k in itertools.product(range(3), range(3)):
                spec = ChannelSpec((ChannelTap(0.7 - 0.2j, l, k),))
                ref = channel_matrix(spec, ell) @ x.data
                npt.assert_allclose(apply_channel(x, spec).data, ref, atol=1e-10)
            # multi-tap combinations
            for _ in range(10):
                taps = tuple(
                    ChannelTap(complex(rng.normal(), rng.normal()),
                               int(rng.integers(0, 3)), int(rng.integers(0, 3)))
                    for _ in range(int(rng.integers(2, 4))))
                spec = ChannelSpec(taps)
                ref = channel_matrix(spec, ell) @ x.data
                npt.assert_allclose(apply_channel(x, spec).data, ref, atol=1e-10)

    def test_linearity(self):
        rng = np.random.default_rng(4)
        spec = ChannelSpec((ChannelTap(0.8, 1, 2), ChannelTap(0.3j, 2, 1)))
        x1, x2 = rand_frame(rng, 16), rand_frame(rng, 16)
        a, b = 1.3 - 0.2j, -0.7 + 1.1j
        lhs = apply_channel(Frame(a * x1.data + b * x2.data, Domain.TIME), spec)
        rhs = a * apply_channel(x1, spec).data + b * apply_channel(x2, spec).data
        npt.assert_allclose(lhs.data, rhs, atol=1e-12)

    def test_delay_too_long(self):
        x = rand_frame(np.random.default_rng(5), 8)
        with pytest.raises(InvalidChannel):
            apply_channel(x, ChannelSpec((ChannelTap(1.0, 8, 0),)))

    def test_normalization(self):
        spec = ChannelSpec((ChannelTap(1.0, 0, 0), ChannelTap(0.6, 2, 0)),
                           normalize=True)
        assert sum(abs(t.h) ** 2 for t in spec.taps) == pytest.approx(1.0, abs=1e-12)

    def test_noise_statistics(self):
        x = Frame(np.zeros(10 ** 6), Domain.TIME)
        spec = ChannelSpec((ChannelTap(1.0, 0, 0),), noise_var=0.5)
        y = apply_channel(x, spec, np.random.default_rng(6))
        var = np.mean(np.abs(y.data) ** 2)
        assert abs(var - 0.5) < 0.02 * 0.5

    def test_deterministic_noise(self):
        x = rand_frame(np.random.default_rng(7), 32)
        spec = ChannelSpec((ChannelTap(1.0, 0, 0),), noise_var=0.1)
        y1 = apply_channel(x, spec, np.random.default_rng(99))
        y2 = apply_channel(x, spec, np.random.default_rng(99))
        npt.assert_array_equal(y1.data, y2.data)


class TestFreqResponse:
    def test_flat(self):
        npt.assert_allclose(freq_response(ChannelSpec((ChannelTap(1.0, 0, 0),)), 8),
                            np.ones(8), atol=1e-15)

    def test_two_tap_frozen_values(self):
        spec = ChannelSpec((ChannelTap(1.0, 0, 0), ChannelTap(0.5, 2, 0)))
        m = np.arange(8)
        npt.assert_allclose(freq_response(spec, 8),
                            1 + 0.5 * np.exp(-1j * np.pi * m / 2), atol=1e-14)

    def test_parseval(self):
        spec = ChannelSpec((ChannelTap(0.9, 0, 0), ChannelTap(0.4j, 3, 0),
                            ChannelTap(0.2, 5, 0)))
        h = freq_response(spec, 64)
        assert np.mean(np.abs(h) ** 2) == pytest.approx(
            sum(abs(t.h) ** 2 for t in spec.taps), abs=1e-12)

    def test_doppler_rejected(self):
        with pytest.raises(DopplerPresent):
            freq_response(ChannelSpec((ChannelTap(1.0, 0, 1),)), 8)

    def test_multiplicative_law_cp_protected(self):
        # Y(m) = S(m) H(m) for CP-protected frames through delay-only taps
        from afdmrsma import dft, remove_cp, add_cp, idft
        rng = np.random.default_rng(8)
        s = rng.normal(size=64) + 1j * rng.normal(size=64)
        spec = ChannelSpec((ChannelTap(0.9, 0, 0), ChannelTap(0.3 - 0.4j, 3, 0)))
        tx = add_cp(idft(Frame(s, Domain.FREQUENCY)), 4)
        y = apply_channel(tx, spec)
        y_f = dft(Frame(remove_cp(y.data, 64, 4), Domain.TIME)).data
        npt.assert_allclose(y_f, s * freq_response(spec, 64), atol=1e-12)


class TestSnr:
    def test_zero_db_unit_energy(self):
        assert snr_to_noise_var(0.0, 1.0) == pytest.approx(1.0)

    def test_ten_db(self):
        assert snr_to_noise_var(10.0, 1.0) == pytest.approx(0.1)

    def test_power_scaling(self):
        assert snr_to_noise_var(7.0, 2.0) == pytest.approx(
            2 * snr_to_noise_var(7.0, 1.0))


class TestAffineShiftLaw:
    def test_pilot_peak_position(self):
        # a tap (h, l, k) moves the affine pilot peak to (k - c1' l) mod N,
        # inside the two-sided guard zone when c1' l + k <= G
        n, c1p, g = 256, 16, 64
        cfg = FrameConfig(affine=AffineParams(n, c1p), guard=g, phi_pilot=10.0,
                          phi1=4.0, phi2=1.0, cp_len=0)
        pil = idaft(build_affine_pilot(cfg), cfg.affine)
        for l, k in [(0, 0), (1, 0), (0, 3), (2, 5), (3, 15)]:
            spec = ChannelSpec((ChannelTap(0.8 + 0.1j, l, k),))
            y = apply_channel(pil, spec)
            plane = daft(y, cfg.affine).data
            peak = int(np.argmax(np.abs(plane)))
            assert peak == (k - c1p * l) % n
            # dominance and guard membership
            assert np.abs(plane[peak]) > 10 * np.partition(np.abs(plane), -2)[-2]
            offset = peak if peak <= n // 2 else peak - n
            assert abs(offset) <= g
