"""Workload ``terminal``: one dual-standard terminal, in process.

A :class:`repro.sdr.Terminal` on the ``fastpath`` array scheduler
alternates W-CDMA rake blocks (``receive_umts``) with 802.11a packets
(``receive_wlan``: the Fig. 10 configuration lifecycle around a
receiver whose every FFT64 runs on the simulated array).  Closed loop,
one caller.  Captures are generated from the seed before timing
starts; the timed loop only receives.

One *rotation* (the batch) is four packets at 6/12/24/54 Mbit/s, each
followed by one UMTS block.  The loop runs whole rotations, so every
per-packet count is an exact average over the same mix.
"""

from __future__ import annotations

import os
import time

from perfbench.common import emit, import_s, median, peak_rss_mb, \
    quantile
from perfbench.metrics import LAYERS, zeros
from perfbench.spans import Tracer, layer_metrics

RATES_MBPS = (6, 12, 24, 54)
PSDU_BYTES = 40
WLAN_SNR_DB = 30.0
WLAN_PAD = 40
SAMPLE_RATE_HZ = 20e6

UMTS_SF = 16
UMTS_CODE = 3
UMTS_CHIPS = 6144
UMTS_SNR_DB = 10.0
UMTS_SYMBOLS = UMTS_CHIPS // UMTS_SF - 4
CHIP_RATE_HZ = 3.84e6
#: A block whose bit error rate exceeds this counts as failed.
UMTS_BER_BOUND = 0.02

#: Simulated cycles of one FFT64 (three radix-4 stages, EXPERIMENTS.md).
FFT64_CYCLES = 255
#: Distinct rotations of captures the timed loop cycles through.
CAPTURE_ROTATIONS = 4
SETUP_REPEATS = 3


def _packet(rng, rate):
    import numpy as np
    from repro.ofdm import OfdmTransmitter
    from repro.wcdma import awgn

    psdu = rng.integers(0, 2, 8 * PSDU_BYTES)
    ppdu = OfdmTransmitter(rate).transmit(psdu)
    rx = awgn(np.concatenate([np.zeros(WLAN_PAD, complex), ppdu.samples]),
              WLAN_SNR_DB, rng)
    return rx, psdu, ppdu.samples.size / SAMPLE_RATE_HZ


def _block(rng):
    from repro.wcdma import Basestation, DownlinkChannelConfig, \
        MultipathChannel, awgn

    bs = Basestation(0, [DownlinkChannelConfig(sf=UMTS_SF,
                                               code_index=UMTS_CODE)],
                     rng=rng)
    ants, bits = bs.transmit(UMTS_CHIPS)
    ch = MultipathChannel(delays=[0, 5], gains=[0.8, 0.5], rng=rng)
    return awgn(ch.apply(ants[0]), UMTS_SNR_DB, rng), bits[0], \
        UMTS_CHIPS / CHIP_RATE_HZ


def _rotation(rng):
    return [(_packet(rng, rate), _block(rng)) for rate in RATES_MBPS]


class _Receiver:
    """Receives captures on one terminal and checks every output."""

    def __init__(self, run, terminal):
        import numpy as np
        self.np = np
        self.run = run
        self.t = terminal

    def packet(self, capture, label):
        from repro.ofdm.receiver import PacketError
        rx, psdu, air = capture
        wlan = self.t.wlan
        cycles0, ffts0 = wlan.array_cycles, wlan.fft_invocations
        t0 = time.perf_counter()
        try:
            out, _report = self.t.receive_wlan(rx)
        except PacketError as exc:
            self.run.fail(f"{label}: {exc}")
            return None
        wall = time.perf_counter() - t0
        cycles = wlan.array_cycles - cycles0
        ffts = wlan.fft_invocations - ffts0
        if not self.np.array_equal(out, psdu):
            self.run.fail(f"{label}: PSDU differs from the transmitted one")
        elif cycles != FFT64_CYCLES * ffts:
            self.run.fail(f"{label}: {cycles} cycles for {ffts} FFT64s")
        return wall, air, cycles, ffts

    def block(self, capture, label):
        rx, bits, air = capture
        t0 = time.perf_counter()
        out, _info = self.t.receive_umts(rx, UMTS_SYMBOLS)
        wall = time.perf_counter() - t0
        ber = float(self.np.mean(out != bits[:out.size]))
        if ber > UMTS_BER_BOUND:
            self.run.fail(f"{label}: BER {ber:.4f} > {UMTS_BER_BOUND}")
        return wall, air


def _counting_registry():
    """A metrics registry that counts but reports itself disabled, so
    the fastpath fallback counters tick while the simulator keeps its
    uninstrumented loop."""
    from repro.telemetry.metrics import MetricsRegistry

    class CountingRegistry(MetricsRegistry):
        enabled = False
    return CountingRegistry()


def _install(tracer, after_sim):
    from repro.kernels import fft64
    from repro.ofdm import receiver
    from repro.ofdm.receiver import OfdmReceiver
    from repro.rake.session import RakeSession
    from repro.sdr.terminal import Terminal
    from repro.wlan.schedule import Fig10Schedule
    from repro.xpp.manager import ConfigurationManager
    from repro.xpp.simulator import Simulator
    from repro.fastpath import runtime

    p = tracer.patch
    p(Terminal, "receive_wlan", "sdr.receive_wlan", "sdr")
    p(Terminal, "receive_umts", "sdr.receive_umts", "sdr")
    for step in ("start_acquisition", "acquisition_done", "stop"):
        p(Fig10Schedule, step, f"fig10.{step}", "wlan.fig10")
    p(OfdmReceiver, "receive", "ofdm.receive", "ofdm.receiver")
    p(receiver, "viterbi_decode", "ofdm.viterbi", "ofdm.viterbi")
    p(fft64.Fft64Kernel, "run", "fft64.run", "kernels.fft64")
    p(fft64, "build_fft_stage_config", "fft64.build", "kernels.fft64")
    p(ConfigurationManager, "load", "manager.load", "xpp.manager")
    p(ConfigurationManager, "remove", "manager.remove", "xpp.manager")
    p(Simulator, "run", "sim.run", "xpp.simulator", after=after_sim)
    p(runtime, "capture", "fastpath.capture", "fastpath.capture")
    p(runtime, "compile_graph", "fastpath.compile", "fastpath.capture")
    p(RakeSession, "process_block", "rake.block", "rake.session")


def run(run):
    os.environ["REPRO_XPP_SCHEDULER"] = "fastpath"
    import numpy as np
    from repro.sdr import Terminal
    from repro.telemetry.metrics import set_metrics

    rng = np.random.default_rng(run.seed)
    captures = [_rotation(rng) for _ in range(CAPTURE_ROTATIONS)]
    warm_packet = _packet(rng, RATES_MBPS[-1])
    warm_block = _block(rng)

    # set-up: a fresh terminal acquires the rake paths and decodes one
    # packet (first-use imports, fastpath capture) before timing starts
    setups = []
    for i in range(SETUP_REPEATS):
        t0 = time.perf_counter()
        terminal = Terminal(umts_sf=UMTS_SF, umts_code_index=UMTS_CODE,
                            active_set=[0])
        rx = _Receiver(run, terminal)
        rx.block(warm_block, f"setup {i} block")
        rx.packet(warm_packet, f"setup {i} packet")
        setups.append(time.perf_counter() - t0)
        if i + 1 < SETUP_REPEATS:
            terminal.shutdown()

    receiver = _Receiver(run, terminal)
    rotations = {False: [], True: []}
    tracer = None
    sim_cycles = []
    counting = None
    k = 0
    for traced, deadline in run.phases():
        if traced:
            tracer = Tracer()
            counting = _counting_registry()
            previous = set_metrics(counting)
            _install(tracer, lambda span, args, stats:
                     sim_cycles.append((span.dur, stats.cycles)))
        try:
            while not rotations[traced] \
                    or time.perf_counter() < deadline:
                rot = captures[k % CAPTURE_ROTATIONS]
                t0 = time.perf_counter()
                ops = []
                for j, (packet, block) in enumerate(rot):
                    label = f"rotation {k} packet {RATES_MBPS[j]}M"
                    if tracer is not None:
                        tracer.op = ("packet", k, j)
                    ops.append(("packet", receiver.packet(packet, label)))
                    if tracer is not None:
                        tracer.op = ("block", k, j)
                    ops.append(("block", receiver.block(
                        block, f"rotation {k} block {j}")))
                wall = time.perf_counter() - t0
                run.attempted += len(ops)
                rotations[traced].append((wall, ops))
                k += 1
        finally:
            if traced:
                tracer.restore()
                set_metrics(previous)
    rss = peak_rss_mb()
    imports = import_s(run, ("numpy", "repro.sdr", "repro.ofdm",
                             "repro.wcdma", "repro.wlan"))

    bare = rotations[False]
    walls = [w for w, _ in bare]
    lat = [op[0] for _, ops in bare for _kind, op in ops if op is not None]
    packets = [op for _, ops in bare for kind, op in ops
               if kind == "packet" and op is not None]
    blocks = [op for _, ops in bare for kind, op in ops if kind == "block"]
    e2e = {
        "setup_s": imports + median(setups),
        "peak_rss_mb": rss,
        "ops_per_s": 2 * len(RATES_MBPS) / median(walls),
    }
    rtf_wlan = sum(p[0] for p in packets) / max(sum(p[1] for p in packets),
                                                1e-12)
    rtf_wcdma = sum(b[0] for b in blocks) / max(sum(b[1] for b in blocks),
                                                1e-12)
    table = [
        ("rtf_wlan", rtf_wlan, "s/s"),
        ("rtf_wcdma", rtf_wcdma, "s/s"),
        ("reception_p95_s", quantile(lat, 0.95), "s"),
        ("rotation_wall_s", median(walls), "s"),
        ("rotations", len(bare), "count"),
    ]
    layers = zeros()
    if run.trace:
        layers.update(_layer_metrics(tracer, rotations, sim_cycles,
                                     counting))
        table.append(("traced rotations", len(rotations[True]), "count"))
    emit(run, e2e, layers, table)


def _layer_metrics(tracer, rotations, sim_cycles, counting) -> dict:
    traced = rotations[True]
    n_rot = len(traced)
    n_pkt = sum(1 for _, ops in traced for kind, _op in ops
                if kind == "packet")
    n_blk = n_rot * len(RATES_MBPS)
    pkt_ops = [op for _, ops in traced for kind, op in ops
               if kind == "packet" and op is not None]
    out = {}

    def per_packet(name, count=False):
        spans = [s for s in tracer.named(name)
                 if s.op is not None and s.op[0] == "packet"]
        if count:
            return len(spans) / max(n_pkt, 1)
        return sum(s.dur for s in spans) / max(n_pkt, 1)

    fft = tracer.named("fft64.run")
    out["kernels.fft64.calls_per_packet"] = per_packet("fft64.run", count=True)
    out["kernels.fft64.s_per_call"] = median(s.dur for s in fft)
    out["kernels.fft64.build_s_per_call"] = \
        sum(s.dur for s in tracer.named("fft64.build")
            if s.op is not None and s.op[0] == "packet") / max(len(fft), 1)
    out["xpp.simulator.run_s_per_call"] = median(d for d, _c in sim_cycles)
    total_cycles = sum(c for _d, c in sim_cycles)
    out["xpp.host_us_per_cycle"] = \
        1e6 * sum(d for d, _c in sim_cycles) / max(total_cycles, 1)
    out["xpp.cycles_per_packet"] = \
        sum(op[2] for op in pkt_ops) / max(len(pkt_ops), 1)
    out["xpp.manager.loads_per_packet"] = per_packet("manager.load",
                                                     count=True)
    out["xpp.manager.load_s_per_packet"] = per_packet("manager.load")
    fallbacks = counting.counter("fastpath.fallback").value
    out["fastpath.fallbacks_per_packet"] = fallbacks / max(n_pkt, 1)
    out["fastpath.fallbacks_per_packet.unsupported-type"] = \
        counting.counter("fastpath.fallback.unsupported-type").value \
        / max(n_pkt, 1)
    out["sdr.fig10.s_per_packet"] = sum(
        per_packet(f"fig10.{s}")
        for s in ("start_acquisition", "acquisition_done", "stop"))
    recv_self = tracer.self_times(tracer.named("ofdm.receive")).get(
        "ofdm.receiver", 0.0)
    out["ofdm.receiver.self_s_per_packet"] = recv_self / max(n_pkt, 1)
    out["ofdm.viterbi.s_per_packet"] = per_packet("ofdm.viterbi")
    out["sdr.rtf_wlan"] = sum(op[0] for op in pkt_ops) \
        / max(sum(op[1] for op in pkt_ops), 1e-12)
    blk_ops = [op for _, ops in traced for kind, op in ops
               if kind == "block"]
    out["sdr.rtf_wcdma"] = sum(op[0] for op in blk_ops) \
        / max(sum(op[1] for op in blk_ops), 1e-12)
    out["rake.session.s_per_block"] = \
        sum(s.dur for s in tracer.named("rake.block")) / max(n_blk, 1)

    # the receive calls are the roots; the rest of each rotation's wall
    # time is the benchmark's glue
    wall = sum(w for w, _ in traced)
    roots = [s for s in tracer.spans if s.parent is None]
    self_s = tracer.self_times(roots)
    self_s["bench"] = self_s.get("bench", 0.0) + wall \
        - sum(s.dur for s in roots)
    out.update(layer_metrics(self_s, wall, n_rot, LAYERS))
    bare = median(w for w, _ in rotations[False])
    out["trace.overhead_share"] = \
        median(w for w, _ in traced) / bare - 1.0 if bare else 0.0
    return out
