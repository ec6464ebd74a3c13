"""The multi-standard mobile terminal — the paper's end product.

One object owning the Fig. 11 board, with both protocol stacks deployed
as firmware and time-sliced over the shared array: a UMTS/W-CDMA rake
session and an 802.11a receiver whose FFTs (and optionally the
equaliser) run on the array.  Every reception is accounted against the
board's resources, the reconfiguration budget and the DSP's MIPS.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

import numpy as np

from repro.dsp import DspTask
from repro.rake import RakeSession
from repro.sdr.board import EvaluationBoard
from repro.sdr.firmware import Firmware
from repro.wlan import ArrayOfdmReceiver
from repro.wlan.schedule import Fig10Schedule


@dataclass
class TerminalReport:
    """Cumulative accounting of the terminal's activity."""

    umts_blocks: int = 0
    umts_bits: int = 0
    wlan_packets: int = 0
    wlan_bits: int = 0
    array_cycles: int = 0
    reconfig_cycles: int = 0


class Terminal:
    """A dual-standard terminal on the Fig. 11 evaluation board."""

    def __init__(self, *, umts_sf: int = 16, umts_code_index: int = 3,
                 active_set=(0,), board: Optional[EvaluationBoard] = None):
        self.board = board if board is not None else EvaluationBoard()
        self.report = TerminalReport()

        # the DSP side of both stacks, admitted up front
        control = Firmware("terminal_control")
        control.add_dsp_task(DspTask("rake control & sync", 3e4, 1500))
        control.add_dsp_task(DspTask("pilot acquisition", 5e4, 100))
        control.add_dsp_task(DspTask("channel estimation", 2e4, 1500))
        control.add_dsp_task(DspTask("wlan layer 2", 1e5, 500))
        control.add_dedicated_block("scrambling code generation")
        control.add_dedicated_block("spreading code generation")
        control.add_dedicated_block("viterbi")
        self._control = control.deploy(self.board)

        self.rake = RakeSession(sf=umts_sf, code_index=umts_code_index,
                                active_set=list(active_set))
        self.wlan = ArrayOfdmReceiver()
        self._wlan_schedule: Optional[Fig10Schedule] = None

    # -- UMTS ------------------------------------------------------------------------

    def receive_umts(self, rx: np.ndarray, n_symbols: int):
        """Process one W-CDMA block through the rake session."""
        bits, info = self.rake.process_block(rx, n_symbols)
        self.report.umts_blocks += 1
        self.report.umts_bits += bits.size
        return bits, info

    # -- WLAN ------------------------------------------------------------------------

    def receive_wlan(self, rx: np.ndarray):
        """Decode one 802.11a packet, running the Fig. 10 configuration
        lifecycle on the board's array around the datapath."""
        schedule = Fig10Schedule(self.board.array_manager)
        cycles0 = self.wlan.array_cycles
        schedule.start_acquisition()
        try:
            psdu, report = self.wlan.receive(rx)
            schedule.acquisition_done()     # 2a -> 2b after sync
        finally:
            schedule.stop()
        self.report.wlan_packets += 1
        self.report.wlan_bits += psdu.size
        self.report.array_cycles += self.wlan.array_cycles - cycles0
        self.report.reconfig_cycles += schedule.reconfig_cycles
        return psdu, report

    # -- bookkeeping ------------------------------------------------------------------

    @property
    def dsp_utilization(self) -> float:
        return self.board.dsp.utilization

    def occupancy(self) -> dict:
        return self.board.array_manager.occupancy()

    def shutdown(self) -> None:
        """Release everything on the board."""
        self._control.undeploy()
