"""Differential tests for RAM-PAEs on the fastpath backend.

A RAM's read port lowers to a gather from its memory image at session
open, and the count pass checks every read against the writes the
session already committed.  Every netlist here runs under the naive
reference scheduler and under fastpath, and the runs must agree on the
sink outputs, the run statistics and the final RAM contents:

* hazard-free netlists (a read-only lookup, both ports busy on
  different addresses, one FFT64 stage) compile with no fallback;
* netlists whose reads need an earlier write (a *RAM hazard*) replay up
  to the hazard cycle, write their state back and finish on the event
  scheduler with reason ``ram-hazard``, still bit-exact;
* a RAM whose read address depends on its own read data sits in a
  feedback ring and lowers into the epoch kernel.
"""

import warnings

import numpy as np
import pytest

from repro.fastpath import FastpathFallbackWarning, capture
from repro.fastpath.ir import REASON_RAM_HAZARD
from repro.kernels import build_fft_stage_config
from repro.kernels.interleaver_map import build_interleaver_config
from repro.telemetry.metrics import MetricsRegistry, set_metrics
from repro.xpp import ConfigBuilder, RamPae, Simulator
from repro.xpp.manager import ConfigurationManager


def _stats_key(stats):
    return (stats.cycles, stats.stop_reason, stats.total_firings,
            stats.energy, dict(stats.firings), dict(stats.tokens_out))


def _execute(cfg, scheduler, drive):
    """Load ``cfg``, let ``drive(sim)`` run it and return (observables,
    fallback codes)."""
    mgr = ConfigurationManager()
    mgr.load(cfg)
    sim = Simulator(mgr, scheduler=scheduler)
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        trail = drive(sim)
    codes = [w.message.code for w in caught
             if issubclass(w.category, FastpathFallbackWarning)]
    outs = {name: list(s.received) for name, s in cfg.sinks.items()}
    mems = {o.name: list(o.mem) for o in cfg.objects
            if isinstance(o, RamPae)}
    return (outs, trail, mems, sim.cycle), codes


def _differential(build, drive):
    """Run naive and fastpath; assert equality, return fastpath codes."""
    ref, ref_codes = _execute(build(), "naive", drive)
    got, codes = _execute(build(), "fastpath", drive)
    assert not ref_codes
    assert got == ref
    return codes


def _drain(sim):
    return _stats_key(sim.drain(5000))


def _until_sinks(sim):
    sinks = [s for e in sim.manager.loaded.values()
             for s in e.config.sinks.values() if s.expect is not None]
    return _stats_key(sim.run(5000, until=lambda: all(s.done
                                                      for s in sinks)))


# -- hazard-free: compiles, no fallback -------------------------------------------


def _interleaver():
    rng = np.random.default_rng(3)
    block = [int(v) for v in rng.integers(-(1 << 20), 1 << 20, 96)]
    return build_interleaver_config(96, 2, block, inverse=True)


def _dual_port():
    # tests/test_xpp_ram.py::test_dual_port_same_cycle: reads of
    # address 0 and writes of address 1 share every cycle
    b = ConfigBuilder("dual_port")
    ram = b.ram(words=2, preload=[5, 0])
    b.connect(b.source("ra", [0, 0, 0, 0]), 0, ram, "raddr")
    b.connect(b.source("wa", [1, 1, 1, 1]), 0, ram, "waddr")
    b.connect(b.source("wd", [9, 9, 9, 9]), 0, ram, "wdata")
    b.connect(ram, "rdata", b.sink("y", expect=4), 0)
    return b.build()


def _fft_stage():
    rng = np.random.default_rng(4)
    data = [int(v) for v in rng.integers(-(1 << 31), 1 << 31, 64)]
    return build_fft_stage_config(1, data)


@pytest.mark.parametrize("build,drive", [
    (_interleaver, _until_sinks),
    (_interleaver, _drain),
    (_dual_port, _until_sinks),
    (_dual_port, _drain),
    (_fft_stage, _drain),
], ids=["interleaver-until", "interleaver-drain", "dual-port-until",
        "dual-port-drain", "fft-stage"])
def test_hazard_free_ram_compiles_bit_exactly(build, drive):
    assert _differential(build, drive) == []


def test_fft_stage_write_back_is_the_transformed_image():
    """The stage's result lives only in the RAM: the write-back must
    have replaced the input image (not left the snapshot)."""
    cfg = _fft_stage()
    before = list(cfg.object("data_ram").mem)
    (outs, _trail, mems, _cycle), _ = _execute(cfg, "fastpath", _drain)
    assert mems["data_ram"] != before


# -- RAM hazards: replay to the hazard, then the event scheduler ------------------


def _write_then_read():
    # tests/test_xpp_ram.py::test_write_then_read: address 0 is written
    # at cycle 1 and read again at cycle 2
    b = ConfigBuilder("write_then_read")
    ram = b.ram(words=4)
    b.connect(b.source("waddr", [0, 1]), 0, ram, "waddr")
    b.connect(b.source("wdata", [42, 43]), 0, ram, "wdata")
    b.connect(b.alu("SEQ", values=[0] * 6 + [0, 1]), 0, ram, "raddr")
    b.connect(ram, "rdata", b.sink("y"), 0)
    return b.build()


#: the first write to address 5 lands long after the first trace
#: window and past a full-state checkpoint (STATE_CHECK = 2048 cycles)
LATE = 2500


def _late_hazard():
    b = ConfigBuilder("late_hazard")
    ram = b.ram(words=8, preload=range(8))
    b.connect(b.source("ra", [5] * (LATE + 40)), 0, ram, "raddr")
    b.connect(b.source("wa", [0] * LATE + [5] * 4), 0, ram, "waddr")
    b.connect(b.source("wd", list(range(LATE + 4))), 0, ram, "wdata")
    b.connect(ram, "rdata", b.sink("y"), 0)
    return b.build()


def _stepped(sim):
    # replay_step_n batches that straddle the hazard, then run() on
    return [sim.step_n(1000) for _ in range(3)] + [_drain(sim)]


def test_write_then_read_hands_over_at_the_hazard():
    codes = _differential(_write_then_read, _drain)
    assert codes == [REASON_RAM_HAZARD]


@pytest.mark.parametrize("drive", [_drain, _stepped],
                         ids=["run", "step_n"])
def test_hazard_after_replay_started_is_bit_exact(drive):
    codes = _differential(_late_hazard, drive)
    assert codes == [REASON_RAM_HAZARD]


def test_hazard_fallback_is_counted_and_names_its_cycle():
    cfg = _late_hazard()
    mgr = ConfigurationManager()
    mgr.load(cfg)
    sim = Simulator(mgr, scheduler="fastpath")
    registry = MetricsRegistry()
    previous = set_metrics(registry)
    try:
        with pytest.warns(FastpathFallbackWarning) as caught:
            sim.run(5000)
    finally:
        set_metrics(previous)
    # sources fire at cycle 0, so write k and read k share cycle k + 1;
    # the read after the write of address 5 (write LATE) is the hazard
    assert caught[0].message.code == REASON_RAM_HAZARD
    assert f"cycle {LATE + 2} " in str(caught[0].message)
    assert registry.counter(f"fastpath.fallback.{REASON_RAM_HAZARD}") \
        .value == 1
    # the hazard read is the first to see the new value
    assert cfg.sinks["y"].received[:LATE + 2] == [5] * (LATE + 1) + [LATE]


def _random_netlist(seed):
    rng = np.random.default_rng(seed)
    words = int(rng.integers(2, 9))
    n_r, n_w = (int(x) for x in rng.integers(1, 40, 2))
    b = ConfigBuilder(f"random_{seed}")
    ram = b.ram(words=words,
                preload=[int(v) for v in rng.integers(-99, 99, words)])
    # address streams span beyond ``words`` and below zero: the RAM
    # takes them modulo its size
    b.connect(b.source("ra", rng.integers(-words, 2 * words, n_r)), 0,
              ram, "raddr", capacity=int(rng.integers(1, 4)))
    b.connect(b.source("wa", rng.integers(-words, 2 * words, n_w)), 0,
              ram, "waddr", capacity=int(rng.integers(1, 4)))
    # wdata trickles through a delay line, so writes lag their address
    delay = b.fifo(depth=int(rng.integers(1, 6)))
    b.connect(b.source("wd", rng.integers(-(1 << 30), 1 << 30, n_w)), 0,
              delay, 0)
    b.connect(delay, 0, ram, "wdata")
    b.connect(ram, "rdata", b.sink("y"), 0,
              capacity=int(rng.integers(1, 4)))
    return b.build()


def test_random_address_property():
    """Random read/write address streams: every run is bit-exact, with
    and without hazards (and the seeds exercise both)."""
    outcomes = set()
    for seed in range(40):
        codes = _differential(lambda: _random_netlist(seed), _drain)
        assert codes in ([], [REASON_RAM_HAZARD]), codes
        outcomes.add(bool(codes))
    assert outcomes == {False, True}


# -- a RAM in a feedback ring: epoch lowering -------------------------------------


def _pointer_chase(writes=()):
    """Each read's data is the next read's address (a linked list held
    in the RAM); a REG holds the ring's first token."""
    b = ConfigBuilder("pointer_chase")
    ram = b.ram(words=16, preload=[(7 * i + 3) % 16 for i in range(16)])
    head = b.alu("REG", init=(0,))
    b.connect(head, 0, ram, "raddr")
    b.connect(ram, "rdata", head, 0)
    b.connect(ram, "rdata", b.sink("y", expect=60), 0)
    if writes:
        b.connect(b.source("wa", [a for a, _ in writes]), 0, ram, "waddr")
        b.connect(b.source("wd", [d for _, d in writes]), 0, ram, "wdata")
    return b.build()


def test_ram_in_a_ring_lowers_to_the_epoch_kernel():
    mgr = ConfigurationManager()
    mgr.load(_pointer_chase())
    graph = capture(mgr)
    ram = next(n for n in graph.nodes if n.kind == "ram")
    assert graph.strategy(ram.i) == "epoch"
    assert _differential(_pointer_chase, _until_sinks) == []


def test_ring_ram_hazard_is_bit_exact():
    # rewiring the list mid-chase: the chase revisits rewritten words
    build = lambda: _pointer_chase(writes=[(3, 9), (9, 1), (1, 3)])  # noqa
    assert _differential(build, _until_sinks) == [REASON_RAM_HAZARD]
