"""Tests for the multi-standard terminal capstone."""

import numpy as np

from repro.ofdm import OfdmTransmitter
from repro.sdr import Terminal
from repro.wcdma import (
    Basestation,
    DownlinkChannelConfig,
    MultipathChannel,
    awgn,
)

SF, CI = 16, 3
UMTS_BLOCK = 256 * 24


def umts_block(seed=0):
    rng = np.random.default_rng(seed)
    bs = Basestation(0, [DownlinkChannelConfig(sf=SF, code_index=CI)],
                     rng=rng)
    ants, bits = bs.transmit(UMTS_BLOCK)
    ch = MultipathChannel(delays=[0, 5], gains=[0.8, 0.5], rng=rng)
    return awgn(ch.apply(ants[0]), 10, rng), bits[0]


def wlan_packet(seed=1):
    rng = np.random.default_rng(seed)
    psdu = rng.integers(0, 2, 8 * 30)
    ppdu = OfdmTransmitter(12).transmit(psdu)
    return awgn(np.concatenate([np.zeros(40, complex), ppdu.samples]),
                22, rng), psdu


class TestTerminal:
    def test_control_firmware_deployed(self):
        t = Terminal()
        assert t.dsp_utilization > 0
        assert "viterbi" in t.board.fpga.dedicated_blocks
        t.shutdown()
        assert t.board.dsp.load_mips == 0

    def test_receives_both_standards(self):
        t = Terminal(umts_sf=SF, umts_code_index=CI, active_set=[0])
        rx_u, bits_u = umts_block()
        out_u, info = t.receive_umts(rx_u, UMTS_BLOCK // SF - 4)
        assert np.mean(out_u != bits_u[:out_u.size]) < 0.01
        assert info.logical_fingers >= 1

        rx_w, psdu = wlan_packet()
        out_w, rep = t.receive_wlan(rx_w)
        assert np.array_equal(out_w, psdu)
        assert rep.signal_ok

        assert t.report.umts_blocks == 1
        assert t.report.wlan_packets == 1
        assert t.report.array_cycles > 0
        assert t.report.reconfig_cycles > 0
        t.shutdown()

    def test_array_free_between_wlan_packets(self):
        """The Fig. 10 schedule tears down after each packet so the
        rake slice can be loaded next."""
        t = Terminal()
        rx_w, _psdu = wlan_packet(seed=2)
        t.receive_wlan(rx_w)
        assert t.occupancy()["alu"][0] == 0
        t.shutdown()

    def test_array_cycles_count_each_packet_once(self):
        """The report adds each packet's own array cycles: one 255-cycle
        FFT64 (3 stages x 85) per FFT the receiver ran, however many
        packets came before."""
        t = Terminal()
        for seed in (1, 2, 3):
            rx_w, _psdu = wlan_packet(seed=seed)
            t.receive_wlan(rx_w)
            assert t.report.array_cycles == 255 * t.wlan.fft_invocations
        assert t.report.wlan_packets == 3
        t.shutdown()

    def test_sequential_blocks_track(self):
        t = Terminal(umts_sf=SF, umts_code_index=CI, active_set=[0])
        for seed in range(3):
            rx_u, bits_u = umts_block(seed=seed)
            out, _ = t.receive_umts(rx_u, UMTS_BLOCK // SF - 4)
            assert np.mean(out != bits_u[:out.size]) < 0.02
        assert t.report.umts_blocks == 3
        t.shutdown()
