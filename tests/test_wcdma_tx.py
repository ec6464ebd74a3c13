"""Tests for QPSK/spreading, STTD, channel models and the downlink
transmitter."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.wcdma import (
    Basestation,
    DownlinkChannelConfig,
    MultipathChannel,
    awgn,
    bits_to_qpsk,
    descramble,
    despread,
    ovsf_code,
    qpsk_to_bits,
    scramble,
    scrambling_code,
    spread,
    sttd_decode,
    sttd_encode,
)

bits_strategy = st.lists(st.integers(min_value=0, max_value=1),
                         min_size=2, max_size=64).filter(lambda b: len(b) % 2 == 0)


class TestQpsk:
    @given(bits_strategy)
    @settings(max_examples=30, deadline=None)
    def test_roundtrip(self, bits):
        assert list(qpsk_to_bits(bits_to_qpsk(bits))) == bits

    def test_mapping(self):
        s = bits_to_qpsk([0, 0, 1, 1])
        assert s[0] == 1 + 1j
        assert s[1] == -1 - 1j

    def test_odd_bits_rejected(self):
        with pytest.raises(ValueError):
            bits_to_qpsk([1])

    def test_non_binary_rejected(self):
        with pytest.raises(ValueError):
            bits_to_qpsk([0, 2])


class TestSpreadDespread:
    @given(st.sampled_from([4, 16, 64, 256]), st.data())
    @settings(max_examples=20, deadline=None)
    def test_spread_despread_inverse(self, sf, data):
        idx = data.draw(st.integers(min_value=0, max_value=sf - 1))
        symbols = bits_to_qpsk(data.draw(bits_strategy))
        chips = spread(symbols, sf, idx)
        assert chips.size == symbols.size * sf
        back = despread(chips, sf, idx)
        np.testing.assert_allclose(back, symbols, atol=1e-12)

    def test_despread_matches_matrix_product(self):
        # the integrate-and-dump as a matrix-vector product is the
        # reference; the summation order differs, so compare at float64
        # precision for sums of 16 unit-scale chips
        rng = np.random.default_rng(7)
        chips = rng.standard_normal(6144) + 1j * rng.standard_normal(6144)
        ref = chips.reshape(-1, 16) @ ovsf_code(16, 3) / 16
        np.testing.assert_allclose(despread(chips, 16, 3), ref,
                                   rtol=0, atol=1e-14)

    def test_other_code_rejected(self):
        symbols = bits_to_qpsk([0, 1, 1, 0])
        chips = spread(symbols, 8, 3)
        other = despread(chips, 8, 4)
        np.testing.assert_allclose(other, 0, atol=1e-12)

    def test_scramble_descramble_inverse(self):
        code = scrambling_code(12, 512)
        chips = bits_to_qpsk(np.random.default_rng(0).integers(0, 2, 1024))
        tx = scramble(chips, code)
        rx = descramble(tx, code)
        np.testing.assert_allclose(rx, chips, atol=1e-12)

    def test_scramble_preserves_power(self):
        code = scrambling_code(12, 512)
        chips = np.ones(512, dtype=complex)
        tx = scramble(chips, code)
        assert np.mean(np.abs(tx) ** 2) == pytest.approx(1.0)

    def test_short_code_rejected(self):
        with pytest.raises(ValueError):
            scramble(np.ones(100), scrambling_code(0, 50))


class TestSttd:
    def test_antenna2_structure(self):
        s = np.array([1 + 1j, 2 - 1j, -3 + 0.5j, 1j])
        a1, a2 = sttd_encode(s)
        np.testing.assert_array_equal(a1, s)
        assert a2[0] == -np.conj(s[1])
        assert a2[1] == np.conj(s[0])

    def test_odd_length_rejected(self):
        with pytest.raises(ValueError):
            sttd_encode(np.ones(3))
        with pytest.raises(ValueError):
            sttd_decode(np.ones(3), 1.0, 0.0)

    @given(st.complex_numbers(max_magnitude=2.0, min_magnitude=0.1),
           st.complex_numbers(max_magnitude=2.0, min_magnitude=0.1))
    @settings(max_examples=30, deadline=None)
    def test_decode_recovers_through_flat_channels(self, h1, h2):
        rng = np.random.default_rng(42)
        s = bits_to_qpsk(rng.integers(0, 2, 16))
        a1, a2 = sttd_encode(s)
        r = h1 * a1 + h2 * a2
        decoded = sttd_decode(r, h1, h2)
        np.testing.assert_allclose(decoded, s, atol=1e-9)

    def test_diversity_gain_over_deep_fade(self):
        """When antenna 1's channel is in a deep fade, STTD still
        recovers the symbols through antenna 2."""
        s = bits_to_qpsk([0, 1, 1, 0, 0, 0, 1, 1])
        a1, a2 = sttd_encode(s)
        h1, h2 = 0.01 + 0j, 1.0 + 0j
        decoded = sttd_decode(h1 * a1 + h2 * a2, h1, h2)
        assert np.array_equal(qpsk_to_bits(decoded),
                              [0, 1, 1, 0, 0, 0, 1, 1])


class TestChannel:
    def test_awgn_snr_calibration(self):
        rng = np.random.default_rng(1)
        sig = np.exp(1j * rng.uniform(0, 2 * np.pi, 100_000))
        noisy = awgn(sig, 10.0, rng)
        noise_power = np.mean(np.abs(noisy - sig) ** 2)
        assert noise_power == pytest.approx(0.1, rel=0.05)

    def test_awgn_zero_signal(self):
        out = awgn(np.zeros(10, dtype=complex), 10.0)
        np.testing.assert_array_equal(out, 0)

    def test_multipath_delays_and_gains(self):
        ch = MultipathChannel(delays=[0, 3], gains=[1.0, 0.5])
        impulse = np.zeros(8, dtype=complex)
        impulse[0] = 1.0
        out = ch.apply(impulse)
        assert out.size == 8 + 3
        assert out[0] == 1.0
        assert out[3] == 0.5

    def test_mismatched_lengths(self):
        with pytest.raises(ValueError):
            MultipathChannel(delays=[0], gains=[1.0, 2.0])

    def test_negative_delay(self):
        with pytest.raises(ValueError):
            MultipathChannel(delays=[-1], gains=[1.0])

    def test_rayleigh_draw_is_stable_until_redraw(self):
        ch = MultipathChannel(delays=[0, 1], gains=[1.0, 0.5], rayleigh=True,
                              rng=np.random.default_rng(3))
        g1 = ch.tap_gains()
        g2 = ch.tap_gains()
        np.testing.assert_array_equal(g1, g2)
        g3 = ch.tap_gains(redraw=True)
        assert not np.array_equal(g1, g3)

    def test_typical_urban_unit_power(self):
        ch = MultipathChannel.typical_urban(n_paths=3)
        assert sum(abs(g) ** 2 for g in ch.tap_gains()) == pytest.approx(1.0)


class TestBasestation:
    def test_transmit_shapes(self):
        bs = Basestation(0, [DownlinkChannelConfig(sf=16, code_index=2)],
                         rng=np.random.default_rng(0))
        antennas, bits = bs.transmit(2560)
        assert len(antennas) == 1
        assert antennas[0].size == 2560
        assert bits[0].size == 2 * (2560 // 16)

    def test_sttd_gives_two_antennas(self):
        bs = Basestation(0, [DownlinkChannelConfig(sf=16, code_index=2,
                                                   sttd=True)],
                         rng=np.random.default_rng(0))
        antennas, _bits = bs.transmit(2560)
        assert len(antennas) == 2

    def test_ovsf_conflict_detected(self):
        with pytest.raises(ValueError):
            Basestation(0, [DownlinkChannelConfig(sf=4, code_index=1),
                            DownlinkChannelConfig(sf=8, code_index=2)])

    def test_cpich_code_reserved(self):
        with pytest.raises(ValueError):
            Basestation(0, [DownlinkChannelConfig(sf=256, code_index=0)])

    def test_perfect_rx_chain_recovers_bits(self):
        """Descramble + despread of a clean single-path signal recovers
        the transmitted bits — the golden reference for the rake."""
        rng = np.random.default_rng(7)
        ch_cfg = DownlinkChannelConfig(sf=16, code_index=3)
        bs = Basestation(5, [ch_cfg], rng=rng)
        antennas, bits = bs.transmit(2560)
        code = scrambling_code(5, 2560)
        symbols = despread(descramble(antennas[0], code), 16, 3)
        assert np.array_equal(qpsk_to_bits(symbols), bits[0])

    def test_chips_must_align_to_cpich(self):
        bs = Basestation(0, [])
        with pytest.raises(ValueError):
            bs.transmit(1000)

    def test_wrong_bit_count_rejected(self):
        bs = Basestation(0, [DownlinkChannelConfig(sf=16, code_index=1)])
        with pytest.raises(ValueError):
            bs.transmit(2560, data_bits={0: np.zeros(10, dtype=int)})
