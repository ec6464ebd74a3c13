"""Session workloads and DSP snapshot/restore differentials.

The migration contract: serialize a live receiver mid-run, round-trip
the state through JSON (what crosses the shard pipe), restore it in a
fresh object, and the continuation must be *bit-identical* to the
uninterrupted run.  Each test here is that differential for one layer
— tracker, rake session, streaming Viterbi, OFDM receiver — and then
for the full serve workloads via their chained digests.
"""

import json

import numpy as np
import pytest

from repro.ofdm.receiver import OfdmReceiver
from repro.ofdm.viterbi import StreamingViterbi
from repro.rake import RakeSession
from repro.rake.tracker import PathTracker
from repro.serve.session import (
    SessionSpec,
    build_workload,
    expand_sessions,
    slot_rng,
    workload_from_state,
)
from repro.wcdma import Basestation, DownlinkChannelConfig, \
    MultipathChannel, awgn

SF, CI = 16, 3
BLOCK = 256 * 12


def _roundtrip(d: dict) -> dict:
    """What shard migration does to state: a JSON wire round-trip."""
    return json.loads(json.dumps(d))


def make_block(delay, seed=0, snr_db=12):
    rng = np.random.default_rng(seed)
    bs = Basestation(0, [DownlinkChannelConfig(sf=SF, code_index=CI)],
                     rng=rng)
    ants, bits = bs.transmit(BLOCK)
    ch = MultipathChannel(delays=[delay], gains=[1.0], rng=rng)
    rx = awgn(ch.apply(ants[0])[:BLOCK + 16], snr_db, rng)
    return rx, bits[0]


class TestPathTrackerSnapshot:
    def test_roundtrip_preserves_tracking(self):
        session = RakeSession(sf=SF, code_index=CI, active_set=[0],
                              reacquire_interval=100)
        rx, _ = make_block(delay=5)
        session.process_block(rx, 8)
        tracker = session.trackers[0]
        clone = PathTracker.from_snapshot(_roundtrip(tracker.snapshot()))
        rx2, _ = make_block(delay=6, seed=1)
        a = tracker.update(rx2)
        b = clone.update(rx2)
        assert [(p.offset, p.energy, p.lost) for p in a] \
            == [(p.offset, p.energy, p.lost) for p in b]


class TestRakeSessionSnapshot:
    def test_midrun_restore_is_bit_exact(self):
        """Snapshot after 2 blocks; blocks 3-4 decode identically in
        the original and the restored session."""
        delays = [5, 5, 6, 7]
        cont = RakeSession(sf=SF, code_index=CI, active_set=[0],
                           reacquire_interval=3)
        for i in range(2):
            rx, _ = make_block(delays[i], seed=i)
            cont.process_block(rx, BLOCK // SF - 4)
        restored = RakeSession.from_snapshot(_roundtrip(cont.snapshot()))
        for i in range(2, 4):
            rx, _ = make_block(delays[i], seed=i)
            out_a, info_a = cont.process_block(rx, BLOCK // SF - 4)
            out_b, info_b = restored.process_block(rx, BLOCK // SF - 4)
            assert np.array_equal(out_a, out_b)
            assert info_a.offsets == info_b.offsets
            assert info_a.reacquired == info_b.reacquired

    def test_snapshot_covers_reacquisition_phase(self):
        """block_index survives the round-trip, so the periodic
        reacquisition schedule stays aligned."""
        session = RakeSession(sf=SF, code_index=CI, active_set=[0],
                              reacquire_interval=2)
        rx, _ = make_block(5, seed=0)
        session.process_block(rx, 8)
        restored = RakeSession.from_snapshot(
            _roundtrip(session.snapshot()))
        rx, _ = make_block(5, seed=1)
        _, info_a = session.process_block(rx, 8)
        _, info_b = restored.process_block(rx, 8)
        assert info_a.reacquired == info_b.reacquired

    def test_unacquired_tracker_roundtrips_as_none(self):
        session = RakeSession(sf=SF, code_index=CI, active_set=[0, 8])
        rx, _ = make_block(5, seed=0)
        session.process_block(rx, 8)        # bs 8 is absent: no tracker
        snap = session.snapshot()
        assert snap["trackers"]["8"] is None
        restored = RakeSession.from_snapshot(_roundtrip(snap))
        assert restored.trackers[8] is None


class TestStreamingViterbiSnapshot:
    def test_midstream_restore_is_bit_exact(self):
        rng = np.random.default_rng(42)
        soft = rng.normal(size=512)
        cont = StreamingViterbi(traceback_depth=24)
        out_a = []
        for t in range(128):
            bit = cont.update(soft[2 * t], soft[2 * t + 1])
            if bit is not None:
                out_a.append(bit)
        clone = StreamingViterbi.from_snapshot(_roundtrip(cont.snapshot()))
        out_b = list(out_a)
        for t in range(128, 256):
            for dec, sink in ((cont, out_a), (clone, out_b)):
                bit = dec.update(soft[2 * t], soft[2 * t + 1])
                if bit is not None:
                    sink.append(bit)
        assert np.array_equal(cont.flush(terminated=False),
                              clone.flush(terminated=False))
        assert out_a == out_b


class TestOfdmReceiverSnapshot:
    def test_roundtrip_preserves_configuration(self):
        rx = OfdmReceiver(use_fixed_fft=True, input_frac_bits=9)
        rx.degrade_to_float_fft(reason="test")
        clone = OfdmReceiver.from_snapshot(_roundtrip(rx.snapshot()))
        assert clone.use_fixed_fft == rx.use_fixed_fft
        assert clone.input_frac_bits == rx.input_frac_bits
        assert clone.degraded == rx.degraded

    def test_restore_in_place(self):
        rx = OfdmReceiver(use_fixed_fft=False)
        rx.restore(OfdmReceiver(use_fixed_fft=True).snapshot())
        assert rx.use_fixed_fft


class TestWorkloads:
    @pytest.mark.parametrize("kind", ["rake", "ofdm"])
    def test_digest_is_deterministic(self, kind):
        spec = SessionSpec(session_id="s", kind=kind, n_slots=3, seed=9)
        a, b = build_workload(spec), build_workload(spec)
        for _ in range(3):
            a.run_slot()
            b.run_slot()
        assert a.digest == b.digest
        assert a.counts == b.counts

    @pytest.mark.parametrize("kind", ["rake", "ofdm"])
    def test_migration_midrun_is_bit_exact(self, kind):
        """Run 2 of 5 slots, ship the state across a simulated pipe,
        finish on a 'different shard' — chained digest identical."""
        spec = SessionSpec(session_id="m", kind=kind, n_slots=5, seed=3)
        base = build_workload(spec)
        for _ in range(5):
            base.run_slot()
        moved = build_workload(spec)
        moved.run_slot()
        moved.run_slot()
        resumed = workload_from_state(spec, _roundtrip(moved.state()))
        while not resumed.done:
            resumed.run_slot()
        assert resumed.digest == base.digest
        assert resumed.counts == base.counts

    def test_rake_workload_decodes_cleanly(self):
        spec = SessionSpec(session_id="r", kind="rake", n_slots=2,
                           seed=11)
        w = build_workload(spec)
        w.run_slot()
        w.run_slot()
        assert w.counts["bit_errors"] == 0
        assert w.counts["data_bits"] > 0

    def test_kind_mismatch_rejected(self):
        spec = SessionSpec(session_id="x", kind="ofdm", n_slots=2, seed=1)
        state = build_workload(
            SessionSpec(session_id="x", kind="rake", n_slots=2,
                        seed=1)).state()
        with pytest.raises(ValueError):
            workload_from_state(spec, state)

    def test_slot_rng_is_pure_function_of_seed_and_slot(self):
        a = slot_rng(7, 3).integers(0, 1 << 30, size=8)
        b = slot_rng(7, 3).integers(0, 1 << 30, size=8)
        c = slot_rng(7, 4).integers(0, 1 << 30, size=8)
        assert np.array_equal(a, b)
        assert not np.array_equal(a, c)


class TestExpandSessions:
    def test_load_groups_and_explicit_sessions(self):
        specs = expand_sessions({
            "master_seed": 5,
            "sessions": [{"session_id": "vip", "kind": "rake",
                          "n_slots": 2}],
            "load": [{"kind": "ofdm", "count": 2, "tenant": "bulk",
                      "n_slots": 3}]})
        assert [s.session_id for s in specs] \
            == ["vip", "bulk/ofdm-0", "bulk/ofdm-1"]
        assert len({s.seed for s in specs}) == 3
        again = expand_sessions({
            "master_seed": 5,
            "sessions": [{"session_id": "vip", "kind": "rake",
                          "n_slots": 2}],
            "load": [{"kind": "ofdm", "count": 2, "tenant": "bulk",
                      "n_slots": 3}]})
        assert [s.seed for s in specs] == [s.seed for s in again]

    @pytest.mark.parametrize("spec", [
        {"sesions": [{"session_id": "a"}]},
        {"load": [{"kind": "rake", "cnt": 3}]},
        {"sessions": [{"session_id": "a", "slots": 40}]},
    ])
    def test_misspelled_keys_rejected(self, spec):
        """A misspelling used to run a default: no sessions, one
        session instead of three, 8 slots instead of 40."""
        with pytest.raises(ValueError, match="unknown key"):
            expand_sessions(spec)

    def test_duplicate_ids_rejected(self):
        with pytest.raises(ValueError):
            expand_sessions({"sessions": [
                {"session_id": "a", "kind": "rake"},
                {"session_id": "a", "kind": "ofdm"}]})
