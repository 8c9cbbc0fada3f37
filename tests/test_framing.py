"""Resource mapping, message splitting and frame assembly."""
import numpy as np
import numpy.testing as npt
import pytest

from afdmrsma import (BITS_PER_SYMBOL, AffineParams, Approach, ConfigError, Domain, Frame,
                      FrameConfig, InvalidLength, add_cp, affine_to_freq,
                      build_affine_common, build_affine_extra, build_affine_pilot,
                      build_frame, build_freq_private, capacity_counts,
                      demodulate_symbols, extract_received_planes, frame_energy_budget,
                      frame_rng, idaft, idft, modulate_bits, random_bits,
                      required_bits_per_user, resource_map, split_messages)
from afdmrsma.experiments import FIGURES
from afdmrsma.framing import _scatter
from oracles import scatter


def cfg16(approach=Approach.CLEAN_PILOT, **kw):
    base = dict(affine=AffineParams(16, 4), guard=2, phi_pilot=10.0,
                phi1=4.0, phi2=1.0, approach=approach)
    base.update(kw)
    return FrameConfig(**base)


def tx_frame(msgs, cfg, user=1):
    """One user's transmitted frame: the common stream and that user's
    private stream, each modulated once."""
    private = msgs.private_bits_user1 if user == 1 else msgs.private_bits_user2
    return build_frame(modulate_bits(msgs.common_bits), modulate_bits(private), cfg)


class TestResourceMap:
    def test_known_enumeration(self):
        rm = resource_map(cfg16())
        npt.assert_array_equal(rm.common_indices, [3, 5, 6, 7, 9, 10, 11, 13])
        assert rm.extra_indices.size == 0

    def test_extra_enumeration(self):
        rm = resource_map(cfg16(Approach.PILOT_AND_DATA))
        npt.assert_array_equal(rm.extra_indices, [4, 8, 12])

    def test_counts(self):
        c = capacity_counts(cfg16())
        assert (c.n_common, c.n_extra, c.n_private) == (8, 0, 12)
        c2 = capacity_counts(cfg16(Approach.PILOT_AND_DATA))
        assert (c2.n_common, c2.n_extra, c2.n_private) == (8, 3, 12)

    def test_large_private_count(self):
        cfg = FrameConfig(affine=AffineParams(256, 64), guard=8, phi_pilot=10.0,
                          phi1=4.0, phi2=1.0)
        assert capacity_counts(cfg).n_private == 252

    def test_disjoint_sets(self):
        rm = resource_map(cfg16(Approach.PILOT_AND_DATA))
        # the pilot sits at affine index 0
        assert 0 not in rm.common_indices
        assert 0 not in rm.extra_indices
        assert not set(rm.common_indices) & set(rm.extra_indices)

    def test_common_load_cap(self):
        rm = resource_map(cfg16(common_per_class=1))
        npt.assert_array_equal(rm.common_indices, [3, 5, 6])

    def test_layout_built_once_per_config(self):
        cfg = cfg16(Approach.PILOT_AND_DATA)
        assert resource_map(cfg) is resource_map(cfg)
        assert capacity_counts(cfg) is resource_map(cfg)

    def test_invalid_powers(self):
        with pytest.raises(ConfigError):
            cfg16(phi1=1.0, phi2=2.0)

    def test_invalid_guard(self):
        with pytest.raises(ConfigError):
            cfg16(guard=8)

    def test_config_value_equality(self):
        a, b = cfg16(), cfg16()
        assert a == b and hash(a) == hash(b)
        assert cfg16(phi1=5.0) != a


class TestMessages:
    def test_split_merge_round_trip(self):
        cfg = cfg16(Approach.PILOT_AND_DATA)
        rng = frame_rng(1, 0, 0)
        r1, r2 = required_bits_per_user(cfg)
        u1, u2 = random_bits(rng, r1), random_bits(rng, r2)
        msgs = split_messages(u1, u2, cfg)
        # each user's bits open with its share of the common stream, user 1's
        # share first, and go on with its private stream
        u1c, u2c = cfg.layout.common_split
        npt.assert_array_equal(msgs.common_bits, np.concatenate([u1[:u1c], u2[:u2c]]))
        npt.assert_array_equal(msgs.private_bits_user1, u1[u1c:])
        npt.assert_array_equal(msgs.private_bits_user2, u2[u2c:])

    def test_counts_exactly_consumed(self):
        cfg = cfg16(Approach.PILOT_AND_DATA)
        c = capacity_counts(cfg)
        b = BITS_PER_SYMBOL
        rng = frame_rng(2, 0, 0)
        r1, r2 = required_bits_per_user(cfg)
        msgs = split_messages(random_bits(rng, r1), random_bits(rng, r2), cfg)
        assert msgs.common_bits.size == (c.n_common + c.n_extra) * b
        assert msgs.private_bits_user1.size == c.n_private * b
        assert msgs.private_bits_user2.size == c.n_private * b

    def test_zero_common_routes_all_private(self):
        cfg = cfg16(common_per_class=0)
        c = capacity_counts(cfg)
        assert c.n_common == 0
        rng = frame_rng(3, 0, 0)
        r1, r2 = required_bits_per_user(cfg)
        msgs = split_messages(random_bits(rng, r1), random_bits(rng, r2), cfg)
        assert msgs.common_bits.size == 0
        assert msgs.private_bits_user1.size == r1

    def test_insufficient_bits(self):
        cfg = cfg16()
        with pytest.raises(InvalidLength):
            split_messages(np.zeros(3, int), np.zeros(3, int), cfg)


class TestBuilders:
    def test_common_single_symbol_basis_vector(self):
        cfg = cfg16(phi1=1.0 + 1e-12)  # phi1 must stay > phi2
        cfg = FrameConfig(affine=AffineParams(16, 4), guard=2, phi_pilot=10.0,
                          phi1=1.0, phi2=0.5)
        syms = np.zeros(8, complex)
        syms[0] = 1.0
        f = build_affine_common(syms, cfg)
        npt.assert_allclose(f.data, np.eye(16)[3], atol=1e-15)

    def test_common_power_scaling(self):
        cfg = cfg16(phi1=4.0)
        syms = np.ones(8, complex)
        f = build_affine_common(syms, cfg)
        assert np.max(np.abs(f.data)) == pytest.approx(2.0)

    def test_guard_positions_zero(self):
        cfg = cfg16()
        f = build_affine_common(np.ones(8, complex), cfg)
        for i in list(range(3)) + list(range(14, 16)):
            assert f.data[i] == 0.0

    def test_pilot_magnitude_10db(self):
        f = build_affine_pilot(cfg16(phi_pilot=10.0))
        assert abs(f.data[0]) == pytest.approx(np.sqrt(10.0), abs=1e-12)
        assert np.all(f.data[1:] == 0)

    def test_pilot_unit(self):
        f = build_affine_pilot(cfg16(phi_pilot=1.0))
        npt.assert_allclose(f.data, np.eye(16)[0], atol=1e-15)

    def test_private_class0_zero(self):
        cfg = cfg16()
        f = build_freq_private(np.ones(12, complex), cfg)
        assert np.all(f.data[::4] == 0)

    def test_private_scaling_and_energy(self):
        cfg = cfg16(phi2=0.25, phi1=1.0)
        f = build_freq_private(np.ones(12, complex), cfg)
        assert np.max(np.abs(f.data)) == pytest.approx(0.5)
        assert f.energy() == pytest.approx(0.25 * 12, abs=1e-12)

    def test_symbol_count_mismatch(self):
        with pytest.raises(InvalidLength):
            build_affine_common(np.ones(5, complex), cfg16())

    def test_component_energy_budget_exact(self):
        cfg = cfg16(Approach.PILOT_AND_DATA)
        c = capacity_counts(cfg)
        rng = np.random.default_rng(0)
        com = modulate_bits(rng.integers(0, 2, 2 * c.n_common))
        ext = modulate_bits(rng.integers(0, 2, 2 * c.n_extra))
        prv = modulate_bits(rng.integers(0, 2, 2 * c.n_private))
        assert build_affine_common(com, cfg).energy() == pytest.approx(
            cfg.phi1 * c.n_common, abs=1e-9)
        assert build_affine_extra(ext, cfg).energy() == pytest.approx(
            c.n_extra, abs=1e-9)
        assert build_freq_private(prv, cfg).energy() == pytest.approx(
            cfg.phi2 * c.n_private, abs=1e-9)
        assert build_affine_pilot(cfg).energy() == pytest.approx(
            cfg.phi_pilot, abs=1e-9)

    def test_total_budget_in_expectation(self):
        # cross terms between the spread common image and the private
        # symbols share subcarriers, so the total only matches on average
        cfg = cfg16(Approach.PILOT_AND_DATA)
        rng = frame_rng(9, 0, 0)
        r1, r2 = required_bits_per_user(cfg)
        energies = []
        for f in range(400):
            rng = frame_rng(9, 0, f)
            msgs = split_messages(random_bits(rng, r1), random_bits(rng, r2), cfg)
            tx = tx_frame(msgs, cfg, user=1)
            energies.append(tx.energy())  # cp_len = 0 here
        budget = frame_energy_budget(cfg)
        assert np.mean(energies) == pytest.approx(budget, rel=0.05)


def _preset_frames():
    """The distinct frame configurations of the bundled figure presets."""
    frames = {}
    for name, sweeps in FIGURES.items():
        for label, sim in sweeps():
            frames.setdefault(sim.frame, f"{name}/{label}")
    return {label: cfg for cfg, label in frames.items()}


_PRESET_FRAMES = _preset_frames()


class TestScatter:
    """The gather placement equals the fancy-index assignment of
    ``oracles.scatter`` bit for bit."""

    @staticmethod
    def values(shape, seed=0):
        rng = np.random.default_rng(seed)
        return rng.standard_normal(shape) + 1j * rng.standard_normal(shape)

    @staticmethod
    def placements(cfg):
        rm = cfg.layout
        return [(rm.common_stream, rm.common_gain), (rm.common_indices, np.sqrt(cfg.phi1)),
                (rm.extra_indices, 1.0), (rm.private_subcarriers, np.sqrt(cfg.phi2))]

    @pytest.mark.parametrize("label", sorted(_PRESET_FRAMES))
    def test_presets_match_the_fancy_index_assignment(self, label):
        cfg = _PRESET_FRAMES[label]
        for indices, scale in self.placements(cfg):
            for shape in ((indices.size,), (7, indices.size)):
                v = self.values(shape)
                got = _scatter(cfg.n, indices, v, scale)
                assert got.shape == shape[:-1] + (cfg.n,)
                assert np.array_equal(got, scatter(cfg.n, indices, v, scale)), (label, shape)

    @pytest.mark.parametrize("indices", [np.arange(0), np.arange(16), np.arange(16)[::-1]],
                             ids=["empty", "full", "full-reversed"])
    def test_empty_and_full_index_sets(self, indices):
        for shape in ((indices.size,), (3, indices.size)):
            v = self.values(shape, seed=1)
            got = _scatter(16, indices, v, 2.0)
            assert got.shape == shape[:-1] + (16,)
            assert np.array_equal(got, scatter(16, indices, v, 2.0))

    @pytest.mark.parametrize("shape", [(), (2, 7), (2, 9)])
    def test_wrong_symbol_count(self, shape):
        # a block with the wrong count per row, or one bare symbol
        cfg = cfg16()
        with pytest.raises(InvalidLength, match="expected 8 symbols"):
            _scatter(cfg.n, cfg.layout.common_indices, np.ones(shape, complex), 1.0)


class TestBuildFrame:
    def _msgs(self, cfg, seed=0):
        rng = frame_rng(seed, 0, 0)
        r1, r2 = required_bits_per_user(cfg)
        return split_messages(random_bits(rng, r1), random_bits(rng, r2), cfg)

    def test_no_private_equals_direct_idaft(self):
        # vanishing private power: time frame = idaft(pilot + common) + CP
        cfg = cfg16(phi2=1e-20, phi1=1.0, cp_len=3)
        msgs = self._msgs(cfg)
        tx = tx_frame(msgs, cfg, user=1)
        com = build_affine_common(modulate_bits(msgs.common_bits), cfg)
        pil = build_affine_pilot(cfg)
        direct = idaft(Frame(com.data + pil.data, Domain.AFFINE), cfg.affine)
        ref = add_cp(direct, 3)
        assert tx.n == 16 + 3
        npt.assert_allclose(tx.data, ref.data, atol=1e-9)

    def test_no_common_no_pilot_is_plain_ofdm(self):
        cfg = cfg16(phi_pilot=1e-30, common_per_class=0)
        msgs = self._msgs(cfg)
        tx = tx_frame(msgs, cfg, user=1)
        prv = build_freq_private(modulate_bits(msgs.private_bits_user1), cfg)
        npt.assert_allclose(tx.data, idft(prv).data, atol=1e-9)

    def test_approach2_differs_by_spread_extra(self):
        cfg1 = cfg16(Approach.CLEAN_PILOT)
        cfg2 = cfg16(Approach.PILOT_AND_DATA)
        msgs2 = self._msgs(cfg2, seed=4)
        # approach-1 frame with the same common prefix and private bits
        c1 = capacity_counts(cfg1)
        b = BITS_PER_SYMBOL
        from afdmrsma import RsmaMessages
        msgs1 = RsmaMessages(msgs2.common_bits[:c1.n_common * b],
                             msgs2.private_bits_user1, msgs2.private_bits_user2)
        f1 = tx_frame(msgs1, cfg1, user=1)
        f2 = tx_frame(msgs2, cfg2, user=1)
        extra_syms = modulate_bits(msgs2.common_bits[c1.n_common * b:])
        extra_freq = affine_to_freq(build_affine_extra(extra_syms, cfg2), cfg2.affine)
        diff_freq = extract_received_planes(f2, cfg2)[0].data \
            - extract_received_planes(f1, cfg1)[0].data
        npt.assert_allclose(diff_freq, extra_freq.data, atol=1e-9)

    def test_clean_pilot_law(self):
        # class-0 subcarriers carry only the pilot image in approach 1
        cfg = cfg16()
        msgs = self._msgs(cfg, seed=5)
        tx = tx_frame(msgs, cfg, user=1)
        y_freq, _ = extract_received_planes(tx, cfg)
        pilot_img = affine_to_freq(build_affine_pilot(cfg), cfg.affine).data
        resid = y_freq.data[::4] - pilot_img[::4]
        assert np.sum(np.abs(resid) ** 2) < 1e-9 * np.sum(np.abs(pilot_img[::4]) ** 2)

    def test_extract_consistency(self):
        from afdmrsma import freq_to_affine
        cfg = cfg16(cp_len=4)
        msgs = self._msgs(cfg, seed=6)
        tx = tx_frame(msgs, cfg, user=2)
        y_freq, y_aff = extract_received_planes(tx, cfg)
        npt.assert_allclose(freq_to_affine(y_freq, cfg.affine).data,
                            y_aff.data, atol=1e-9)
        assert np.linalg.norm(y_freq.data) == pytest.approx(
            np.linalg.norm(y_aff.data), abs=1e-9)

    def test_extract_length_check(self):
        cfg = cfg16(cp_len=4)
        with pytest.raises(InvalidLength):
            extract_received_planes(np.zeros(16), cfg)

    def test_loopback_restores_superposition(self):
        cfg = cfg16(Approach.PILOT_AND_DATA, cp_len=2)
        msgs = self._msgs(cfg, seed=7)
        tx = tx_frame(msgs, cfg, user=1)
        _, y_aff = extract_received_planes(tx, cfg)
        c = capacity_counts(cfg)
        syms = modulate_bits(msgs.common_bits)
        rm = resource_map(cfg)
        # pilot and common/extra sit undisturbed on their affine indices
        assert y_aff.data[0] == pytest.approx(np.sqrt(cfg.phi_pilot), abs=1e-9)
        got = y_aff.data[rm.extra_indices]
        npt.assert_allclose(got, syms[c.n_common:], atol=1e-9)


class TestSeparability:
    def test_common_decisions_error_free_noiseless(self):
        # sparse common load, power ratio >= 4: the spread private image
        # never crosses a common QPSK boundary over 100 random frames
        cfg = FrameConfig(affine=AffineParams(256, 4), guard=8, phi_pilot=10.0,
                          phi1=25.0, phi2=1.0, approach=Approach.CLEAN_PILOT,
                          common_per_class=1)
        c = capacity_counts(cfg)
        errors = 0
        for f in range(100):
            rng = frame_rng(11, 0, f)
            r1, r2 = required_bits_per_user(cfg)
            msgs = split_messages(random_bits(rng, r1), random_bits(rng, r2), cfg)
            tx = tx_frame(msgs, cfg, user=1)
            _, y_aff = extract_received_planes(tx, cfg)
            rm = resource_map(cfg)
            got = demodulate_symbols(y_aff.data[rm.common_indices] / np.sqrt(cfg.phi1))
            errors += int(np.sum(got != msgs.common_bits[:2 * c.n_common]))
        assert errors == 0
