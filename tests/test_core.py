"""Gray QPSK mapping, frame type and seeding contracts."""
import numpy as np
import numpy.testing as npt
import pytest

from afdmrsma import (BITS_PER_SYMBOL, Domain, Frame, InvalidLength, demodulate_symbols,
                      frame_rng, modulate_bits, random_bits)
from afdmrsma.core import frame_draws

RT2 = np.sqrt(2.0)
# bit pairs of the labels 0..3, MSB first, and the points the labels name
LABEL_BITS = np.array([[0, 0], [0, 1], [1, 0], [1, 1]])
TABLE = np.array([1 + 1j, 1 - 1j, -1 + 1j, -1 - 1j]) / np.sqrt(2.0)


def points():
    """The four symbols, indexed by label."""
    return modulate_bits(LABEL_BITS)


def nearest_point_bits(symbols):
    """Reference rule: the nearest of the four points, ties to the lowest
    label (argmin returns the first index, and NaN distances tie)."""
    symbols = np.asarray(symbols, dtype=np.complex128).reshape(-1)
    labels = np.argmin(np.abs(symbols[:, None] - TABLE[None, :]), axis=1)
    return LABEL_BITS[labels].reshape(-1)


class TestQpsk:
    def test_unit_energy(self):
        assert BITS_PER_SYMBOL == 2
        assert abs(np.mean(np.abs(points()) ** 2) - 1.0) < 1e-12

    def test_gray_neighbours_differ_in_one_bit(self):
        labels = np.arange(4)
        # sort points by angle; adjacent points must differ in one bit
        ring = labels[np.argsort(np.angle(points()))]
        for a, b in zip(ring, np.roll(ring, -1)):
            assert bin(a ^ b).count("1") == 1

    def test_known_points(self):
        npt.assert_allclose(modulate_bits([0, 0]), [(1 + 1j) / RT2], atol=1e-15)
        npt.assert_allclose(modulate_bits([1, 1]), [(-1 - 1j) / RT2], atol=1e-15)
        assert points().tobytes() == TABLE.tobytes()

    def test_bulk_power_exact(self):
        rng = np.random.default_rng(0)
        bits = rng.integers(0, 2, 1000)
        syms = modulate_bits(bits)
        assert syms.size == 500
        # QPSK points are unit modulus, so empirical power is exactly 1
        assert np.mean(np.abs(syms) ** 2) == pytest.approx(1.0, abs=1e-14)

    def test_odd_length_rejected(self):
        with pytest.raises(InvalidLength):
            modulate_bits([0, 1, 0])


class TestDemodulate:
    def test_nearest_point(self):
        bits = demodulate_symbols([(0.9 + 0.8j) / RT2])
        npt.assert_array_equal(bits, [0, 0])

    def test_round_trip_all_symbols(self):
        npt.assert_array_equal(demodulate_symbols(points()), LABEL_BITS.reshape(-1))

    def test_round_trip_random(self):
        rng = np.random.default_rng(1)
        for _ in range(20):
            bits = rng.integers(0, 2, 64)
            npt.assert_array_equal(demodulate_symbols(modulate_bits(bits)), bits)

    def test_tie_breaks_to_lowest_label(self):
        # the origin is equidistant from all four points
        npt.assert_array_equal(demodulate_symbols([0.0 + 0.0j]), [0, 0])

    def test_sign_rule_matches_nearest_point_oracle(self):
        rng = np.random.default_rng(2)
        noisy = rng.standard_normal(10_000) + 1j * rng.standard_normal(10_000)
        edge = [0.0, complex(-0.0, -0.0), complex(0.0, -0.0), complex(-0.0, 0.0),
                1, -1, 1j, -1j, complex(np.nan, 1), complex(1, np.nan),
                complex(np.nan, np.nan)]
        for syms in (noisy, np.array(edge, dtype=np.complex128)):
            got = demodulate_symbols(syms)
            assert got.dtype == np.int64
            npt.assert_array_equal(got, nearest_point_bits(syms))


class TestFrame:
    def test_immutable_payload(self):
        f = Frame(np.ones(8), Domain.TIME)
        with pytest.raises(ValueError):
            f.data[0] = 0.0


class TestSeeding:
    def test_counter_derivation_reproducible(self):
        a = frame_rng(42, 3, 7).standard_normal(16)
        b = frame_rng(42, 3, 7).standard_normal(16)
        npt.assert_array_equal(a, b)

    def test_counter_derivation_distinct(self):
        a = frame_rng(42, 3, 7).standard_normal(16)
        b = frame_rng(42, 3, 8).standard_normal(16)
        c = frame_rng(42, 4, 7).standard_normal(16)
        d = frame_rng(43, 3, 7).standard_normal(16)
        assert not np.allclose(a, b)
        assert not np.allclose(a, c)
        assert not np.allclose(a, d)

    @pytest.mark.parametrize("n_bits, n_normals", [(1508, 512), (775, 520), (1, 0), (0, 3)])
    def test_block_draws_equal_frame_rng_draws(self, n_bits, n_normals):
        # one re-keyed Philox per block gives each frame's bits (one draw of
        # both users' bits, an odd count included) and then its normals
        frames = range(5, 12)
        bits, normals = frame_draws(501, 3, frames, n_bits, n_normals)
        assert bits.shape == (len(frames), n_bits)
        assert normals.shape == (len(frames), n_normals)
        for row, f in enumerate(frames):
            rng = frame_rng(501, 3, f)
            first = n_bits // 2
            want = np.concatenate([random_bits(rng, first), random_bits(rng, n_bits - first)])
            npt.assert_array_equal(bits[row], want)
            want = np.concatenate([rng.standard_normal(n_normals // 2),
                                   rng.standard_normal(n_normals - n_normals // 2)])
            assert np.array_equal(normals[row], want)

    def test_cached_generator_keeps_no_state_between_calls(self):
        # frame_draws reuses one Philox per seed: calls interleaved over two
        # seeds and two points draw what fresh per-frame generators draw
        for seed, point in [(11, 0), (12, 0), (11, 3), (12, 3), (11, 0), (12, 3)]:
            frames = range(point, point + 3)
            bits, normals = frame_draws(seed, point, frames, 8, 5)
            for row, f in enumerate(frames):
                rng = frame_rng(seed, point, f)
                npt.assert_array_equal(bits[row], random_bits(rng, 8))
                assert np.array_equal(normals[row], rng.standard_normal(5))

    def test_block_draws_mask_large_counters(self):
        big = (1 << 64) + 9
        bits, normals = frame_draws(big, big, range(big, big + 1), 8, 4)
        rng = frame_rng(big, big, big)
        npt.assert_array_equal(bits[0], random_bits(rng, 8))
        assert np.array_equal(normals[0], rng.standard_normal(4))
