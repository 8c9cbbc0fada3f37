"""Transform-pair and spreading-map correctness against dense oracles.

The oracle is the raw double-sum synthesis matrix
A[n, i] = exp(j 2 pi (c1 n^2 + c2 i^2 + n i / N)) / sqrt(N), built
entrywise and independently of the factorized production path.
"""
import numpy as np
import numpy.testing as npt
import pytest

from afdmrsma import (AffineParams, ConfigError, Domain, Frame, InvalidIndex,
                      InvalidLength, affine_to_freq, daft, dft, freq_to_affine,
                      idaft, idft)
from oracles import kernel_phi


def synthesis_oracle(p: AffineParams) -> np.ndarray:
    a = np.zeros((p.n, p.n), dtype=complex)
    c1 = p.c1_prime / (2.0 * p.n)
    for n in range(p.n):
        for i in range(p.n):
            a[n, i] = np.exp(2j * np.pi * (c1 * n * n + p.c2 * i * i + n * i / p.n))
    return a / np.sqrt(p.n)


def rand_frame(rng, n, domain):
    return Frame(rng.normal(size=n) + 1j * rng.normal(size=n), domain)


class TestAffineParams:
    def test_rejects_non_pow2_slope(self):
        with pytest.raises(ConfigError):
            AffineParams(16, 3)

    def test_rejects_non_dividing_slope(self):
        with pytest.raises(ConfigError):
            AffineParams(16, 32)

    def test_rejects_zero_slope(self):
        # c1' = 0 would turn the chirps off: no frame has that geometry
        with pytest.raises(ConfigError, match="c1_prime 0 is not a power of 2"):
            AffineParams(16, 0, 0.0)

    def test_derived_values(self):
        p = AffineParams(256, 64, 0.25)
        assert p.m == 4


class TestDftPair:
    def test_impulse_to_constant(self):
        f = Frame(np.eye(8)[0], Domain.FREQUENCY)
        npt.assert_allclose(idft(f).data, np.full(8, 1 / np.sqrt(8)), atol=1e-14)

    def test_n4_impulse(self):
        f = Frame([1, 0, 0, 0], Domain.FREQUENCY)
        npt.assert_allclose(idft(f).data, [0.5, 0.5, 0.5, 0.5], atol=1e-15)

    def test_round_trip_unitary(self):
        rng = np.random.default_rng(0)
        x = rand_frame(rng, 256, Domain.TIME)
        back = idft(dft(x))
        assert np.max(np.abs(back.data - x.data)) < 1e-10
        assert abs(np.linalg.norm(dft(x).data) - np.linalg.norm(x.data)) < 1e-9

    def test_length_check(self):
        with pytest.raises(InvalidLength):
            dft(Frame(np.ones(8), Domain.TIME), n=16)

    def test_domain_check(self):
        with pytest.raises(ConfigError):
            dft(Frame(np.ones(8), Domain.FREQUENCY))


class TestDaftPair:
    @pytest.mark.parametrize("n,c1p", [(8, 2), (16, 4), (16, 16)])
    def test_matches_dense_oracle(self, n, c1p):
        p = AffineParams(n, c1p, 1 / 64.0)
        a = synthesis_oracle(p)
        rng = np.random.default_rng(n + c1p)
        x = rand_frame(rng, n, Domain.AFFINE)
        npt.assert_allclose(idaft(x, p).data, a @ x.data, atol=1e-10)
        s = rand_frame(rng, n, Domain.TIME)
        npt.assert_allclose(daft(s, p).data, a.conj().T @ s.data, atol=1e-10)

    def test_impulse_gives_pure_chirp(self):
        p = AffineParams(32, 8, 0.0)
        x = Frame(np.eye(32)[0], Domain.AFFINE)
        expect = np.exp(2j * np.pi * p.c1_prime / (2.0 * p.n) * np.arange(32) ** 2) / np.sqrt(32)
        npt.assert_allclose(idaft(x, p).data, expect, atol=1e-13)
        back = daft(Frame(expect, Domain.TIME), p)
        npt.assert_allclose(back.data, np.eye(32)[0], atol=1e-13)

    def test_inverse_pair_large(self):
        p = AffineParams(256, 64, 1 / 64.0)
        rng = np.random.default_rng(7)
        x = rand_frame(rng, 256, Domain.AFFINE)
        npt.assert_allclose(daft(idaft(x, p), p).data, x.data, atol=1e-9)

    @pytest.mark.parametrize("n,c1p", [(1024, 16), (4096, 64)])
    def test_unitarity_large_n(self, n, c1p):
        p = AffineParams(n, c1p, 1 / 256.0)
        rng = np.random.default_rng(n)
        x = rand_frame(rng, n, Domain.AFFINE)
        s = idaft(x, p)
        assert abs(s.energy() - x.energy()) < 1e-9 * x.energy()


class TestSpreadingMaps:
    def test_equals_composition(self):
        p = AffineParams(64, 8, 1 / 64.0)
        rng = np.random.default_rng(11)
        x = rand_frame(rng, 64, Domain.AFFINE)
        npt.assert_allclose(affine_to_freq(x, p).data,
                            dft(idaft(x, p)).data, atol=1e-12)
        xf = rand_frame(rng, 64, Domain.FREQUENCY)
        npt.assert_allclose(freq_to_affine(xf, p).data,
                            daft(idft(xf), p).data, atol=1e-12)

    def test_impulse_support(self):
        p = AffineParams(16, 4, 0.0)
        y = affine_to_freq(Frame(np.eye(16)[0], Domain.AFFINE), p).data
        on = np.arange(0, 16, 4)
        off = np.setdiff1d(np.arange(16), on)
        assert np.sum(np.abs(y[off]) ** 2) < 1e-18
        # values agree with the composition oracle
        ref = dft(idaft(Frame(np.eye(16)[0], Domain.AFFINE), p)).data
        npt.assert_allclose(y, ref, atol=1e-13)

    def test_single_subcarrier_spreads_to_class(self):
        p = AffineParams(16, 4, 0.0)
        y = freq_to_affine(Frame(np.eye(16)[0], Domain.FREQUENCY), p).data
        off = np.setdiff1d(np.arange(16), np.arange(0, 16, 4))
        assert np.sum(np.abs(y[off]) ** 2) < 1e-18

    def test_inverse_pair(self):
        p = AffineParams(256, 64, 1 / 64.0)
        rng = np.random.default_rng(13)
        x = rand_frame(rng, 256, Domain.AFFINE)
        back = freq_to_affine(affine_to_freq(x, p), p)
        assert np.max(np.abs(back.data - x.data)) < 1e-9

    def test_zero_maps_to_zero(self):
        p = AffineParams(16, 4, 0.0)
        y = affine_to_freq(Frame(np.zeros(16), Domain.AFFINE), p)
        assert y.energy() == 0.0

    def test_support_law_property_suite(self):
        # all residue classes, random class-supported inputs, both ways
        rng = np.random.default_rng(17)
        for n in (16, 64, 256):
            for c1p in (2, 4, 8, 64):
                if c1p > n or n // c1p < 2:
                    continue  # M = 1 is a cyclic shift, not class-preserving
                p = AffineParams(n, c1p, 1 / 64.0)
                m = p.m
                for alpha in range(c1p):
                    members = np.arange(alpha, n, c1p)
                    x = np.zeros(n, complex)
                    x[members] = rng.normal(size=m) + 1j * rng.normal(size=m)
                    for fwd, dom in ((affine_to_freq, Domain.AFFINE),
                                     (freq_to_affine, Domain.FREQUENCY)):
                        y = fwd(Frame(x, dom), p).data
                        total = np.sum(np.abs(y) ** 2)
                        mask = np.ones(n, bool)
                        mask[members] = False
                        assert np.sum(np.abs(y[mask]) ** 2) < 1e-9 * total

    def test_m1_is_permuted_phased_copy(self):
        # c1' = N: the chirp alternates sign, which is a half-band shift;
        # every row/column of the map has exactly one unit-modulus entry
        p = AffineParams(8, 8, 0.0)
        mat = np.column_stack([
            affine_to_freq(Frame(np.eye(8)[i], Domain.AFFINE), p).data
            for i in range(8)])
        mags = np.abs(mat)
        npt.assert_allclose(np.sort(mags, axis=0)[-1], np.ones(8), atol=1e-12)
        assert np.sum(mags > 1e-9) == 8


class TestKernel:
    def test_m1_value(self):
        p = AffineParams(8, 8, 0.0)
        assert kernel_phi(0, 0, p) == pytest.approx(1.0)

    def test_direct_summation_oracle(self):
        # closed form vs direct Gauss-type summation over p
        p = AffineParams(16, 4, 0.0)
        m = p.m
        for i in range(16):
            for mm in range(i % 4, 16, 4):
                q = np.arange(m)
                direct = np.sum(np.exp(1j * np.pi * q * q / m
                                       + 2j * np.pi * q * (i - mm) / 16))
                assert kernel_phi(i, mm, p) == pytest.approx(direct, abs=1e-12)

    def test_off_class_zero(self):
        p = AffineParams(16, 4, 0.0)
        assert kernel_phi(1, 2, p) == 0.0

    def test_index_range(self):
        p = AffineParams(16, 4, 0.0)
        with pytest.raises(InvalidIndex):
            kernel_phi(16, 0, p)

    def test_assembly_matches_transform(self):
        # Y(m) = (c1'/N) sum_{[i]=[m]} X(i) e^{j2pi c2 i^2} phi^i(m)
        p = AffineParams(32, 8, 1 / 128.0)
        rng = np.random.default_rng(23)
        x = rng.normal(size=32) + 1j * rng.normal(size=32)
        ref = affine_to_freq(Frame(x, Domain.AFFINE), p).data
        got = np.zeros(32, complex)
        phases = np.exp(2j * np.pi * p.c2 * np.arange(32) ** 2)
        for m in range(32):
            for i in range(m % 8, 32, 8):
                got[m] += x[i] * phases[i] * kernel_phi(i, m, p)
        got *= 8 / 32
        rel = np.max(np.abs(got - ref)) / np.max(np.abs(ref))
        assert rel < 1e-6
