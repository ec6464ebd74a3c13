"""Terminal sessions: the unit of work the service multiplexes.

A *session* is one logical terminal — a rake (WCDMA) or OFDM (802.11a)
receiver — progressing through ``n_slots`` slots of traffic.  The
paper time-multiplexes one physical finger across many logical
fingers; the service applies the same trick one level up, multiplexing
many sessions across a pool of simulator shards, so a session must be
**suspendable**: its entire inter-slot state serializes to a JSON dict
(:meth:`SessionWorkload.state`) and a fresh process can resume it
bit-exactly (:func:`workload_from_state`).

Determinism is the migration contract.  Slot ``k`` of a session draws
its randomness from ``SeedSequence(seed, spawn_key=(k,))`` — never
from a carried generator — so the stimulus depends only on ``(seed,
slot index)``; everything else a slot depends on (trackers, counters,
receiver mode flags) lives in the DSP snapshot.  A session that is
checkpointed, migrated, or replayed on another shard therefore
produces byte-identical output, which the running :attr:`digest`
(a chained SHA-256 over every slot's decoded bits) makes checkable.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass
from typing import Optional

import numpy as np

from repro.schema import check_keys

SESSION_KINDS = ("rake", "ofdm")

#: The keys :meth:`SessionSpec.from_dict` accepts.
SESSION_KEYS = ("session_id", "kind", "tenant", "n_slots", "seed",
                "params")
#: The keys of a service spec and of its ``load`` groups
#: (:func:`expand_sessions`).
SERVICE_KEYS = ("master_seed", "sessions", "load")
LOAD_KEYS = ("kind", "count", "tenant", "prefix", "n_slots", "params")


@dataclass(frozen=True)
class SessionSpec:
    """Declaration of one terminal session.

    ``params`` is a canonical ``((name, value), ...)`` tuple, as in
    :class:`repro.campaign.spec.JobSpec`, so specs are hashable and
    their dict form round-trips.
    """

    session_id: str
    kind: str = "rake"
    tenant: str = "default"
    n_slots: int = 8
    seed: int = 0
    params: tuple = ()

    def __post_init__(self):
        if self.kind not in SESSION_KINDS:
            raise ValueError(f"unknown session kind {self.kind!r}; "
                             f"have {SESSION_KINDS}")
        if self.n_slots < 1:
            raise ValueError("a session needs at least one slot")

    @property
    def param_dict(self) -> dict:
        return dict(self.params)

    def to_dict(self) -> dict:
        return {"session_id": self.session_id, "kind": self.kind,
                "tenant": self.tenant, "n_slots": self.n_slots,
                "seed": self.seed, "params": dict(self.params)}

    @classmethod
    def from_dict(cls, d: dict) -> "SessionSpec":
        check_keys(d, SESSION_KEYS, f"session {d.get('session_id')!r}")
        params = d.get("params") or {}
        return cls(session_id=str(d["session_id"]),
                   kind=d.get("kind", "rake"),
                   tenant=str(d.get("tenant", "default")),
                   n_slots=int(d.get("n_slots", 8)),
                   seed=int(d.get("seed", 0)),
                   params=tuple(sorted(params.items())))


def slot_rng(seed: int, slot: int) -> np.random.Generator:
    """Slot ``slot``'s private random stream — a pure function of
    ``(seed, slot)``, the campaign sharding idiom applied per slot so
    replay after migration redraws identical stimulus."""
    return np.random.default_rng(
        np.random.SeedSequence(seed, spawn_key=(slot,)))


def _chain_digest(digest_hex: str, payload: bytes) -> str:
    """One link of the per-session output chain."""
    return hashlib.sha256(bytes.fromhex(digest_hex) + payload).hexdigest()


class SessionWorkload:
    """Base class: slot loop, counts, digest, state round-trip."""

    KIND = ""

    def __init__(self, spec: SessionSpec):
        self.spec = spec
        self.slot_cursor = 0
        self.counts: dict = {"n_slots": 0}
        self.digest = hashlib.sha256(b"").hexdigest()

    @property
    def done(self) -> bool:
        return self.slot_cursor >= self.spec.n_slots

    def run_slot(self) -> dict:
        """Advance one slot; returns the per-slot facts (counts
        delta already folded into :attr:`counts`)."""
        if self.done:
            raise RuntimeError(
                f"session {self.spec.session_id} already complete")
        slot = self.slot_cursor
        out_bytes, facts = self._slot(slot, slot_rng(self.spec.seed, slot))
        self.digest = _chain_digest(self.digest, out_bytes)
        self.slot_cursor += 1
        self.counts["n_slots"] += 1
        return facts

    def _slot(self, slot: int, rng: np.random.Generator):
        raise NotImplementedError

    # -- checkpoint / migration --------------------------------------------------

    def state(self) -> dict:
        """The session's complete resumable state, JSON-serializable."""
        return {"kind": self.KIND, "slot_cursor": self.slot_cursor,
                "counts": dict(self.counts), "digest": self.digest,
                "dsp": self._dsp_state()}

    def load_state(self, state: dict) -> None:
        self.slot_cursor = int(state["slot_cursor"])
        self.counts = {k: int(v) for k, v in state["counts"].items()}
        self.digest = str(state["digest"])
        self._restore_dsp(state["dsp"])

    def _dsp_state(self) -> dict:
        return {}

    def _restore_dsp(self, dsp: dict) -> None:
        pass


class RakeSessionWorkload(SessionWorkload):
    """A WCDMA terminal in soft handover: one rake control loop.

    Each slot transmits a fresh downlink block, passes it through a
    slowly drifting multipath channel (``drift_every`` slots per chip
    of delay drift, so the tracker state genuinely matters across a
    migration) and runs :class:`repro.rake.session.RakeSession` on it.
    """

    KIND = "rake"

    def __init__(self, spec: SessionSpec):
        super().__init__(spec)
        from repro.rake import RakeSession

        p = spec.param_dict
        self.sf = int(p.get("sf", 16))
        self.code_index = int(p.get("code_index", 3))
        self.block_chips = int(p.get("block_chips", 3072))
        self.snr_db = float(p.get("snr_db", 12.0))
        self.base_delay = int(p.get("delay", 5))
        self.drift_every = int(p.get("drift_every", 2))
        self.n_symbols = int(p.get(
            "n_symbols", self.block_chips // self.sf - 4))
        active_set = list(p.get("active_set", (0,)))
        self.session = RakeSession(
            sf=self.sf, code_index=self.code_index, active_set=active_set,
            reacquire_interval=int(p.get("reacquire_interval", 10)))
        self.counts.update({"data_bits": 0, "bit_errors": 0,
                            "reacquisitions": 0})

    def _delay(self, slot: int) -> int:
        return self.base_delay + slot // max(self.drift_every, 1)

    def _slot(self, slot: int, rng: np.random.Generator):
        from repro.wcdma import (
            Basestation,
            DownlinkChannelConfig,
            MultipathChannel,
            awgn,
        )

        # soft handover: every active basestation transmits the *same*
        # dedicated-channel payload, each through its own multipath
        n_sym = self.block_chips // self.sf
        payload = rng.integers(0, 2, size=2 * n_sym)
        streams = []
        for bs_number in self.session.active_set:
            bs = Basestation(
                bs_number,
                [DownlinkChannelConfig(sf=self.sf,
                                       code_index=self.code_index)],
                rng=rng)
            ants, _bits = bs.transmit(self.block_chips,
                                      data_bits={0: payload})
            ch = MultipathChannel(delays=[self._delay(slot)], gains=[1.0],
                                  rng=rng)
            streams.append(ch.apply(ants[0])[:self.block_chips + 16])
        rx = awgn(np.sum(streams, axis=0), self.snr_db, rng) \
            if streams else np.zeros(self.block_chips + 16, complex)
        out, info = self.session.process_block(rx, self.n_symbols)
        ref = payload[:out.size]
        errors = int(np.sum(out[:ref.size] != ref))
        self.counts["data_bits"] += int(out.size)
        self.counts["bit_errors"] += errors
        self.counts["reacquisitions"] += len(info.reacquired)
        return_bytes = np.asarray(out, dtype=np.uint8).tobytes()
        return return_bytes, {"bit_errors": errors,
                              "reacquired": list(info.reacquired),
                              "fingers": info.logical_fingers}

    def _dsp_state(self) -> dict:
        return {"session": self.session.snapshot()}

    def _restore_dsp(self, dsp: dict) -> None:
        from repro.rake import RakeSession
        self.session = RakeSession.from_snapshot(dsp["session"])


class OfdmSessionWorkload(SessionWorkload):
    """An 802.11a terminal: one packet per slot through AWGN.

    The receiver's persistent mode flags (fixed-point FFT, fault
    degradation) ride the DSP snapshot; the per-packet pipeline is
    stateless by design, so the interesting migrating state is the
    accumulated counts and output digest.
    """

    KIND = "ofdm"

    def __init__(self, spec: SessionSpec):
        super().__init__(spec)
        from repro.ofdm.transmitter import OfdmTransmitter
        from repro.ofdm.receiver import OfdmReceiver

        p = spec.param_dict
        self.rate_mbps = int(p.get("rate_mbps", 12))
        self.snr_db = float(p.get("snr_db", 10.0))
        self.length_bytes = int(p.get("length_bytes", 40))
        self.pad_samples = int(p.get("pad_samples", 40))
        self.tx = OfdmTransmitter(self.rate_mbps)
        self.receiver = OfdmReceiver(
            use_fixed_fft=bool(p.get("use_fixed_fft", False)),
            input_frac_bits=int(p.get("input_frac_bits", 8)))
        self.counts.update({"data_bits": 0, "bit_errors": 0,
                            "packet_errors": 0})

    def _slot(self, slot: int, rng: np.random.Generator):
        from repro.ofdm.receiver import PacketError
        from repro.wcdma.channel import awgn

        psdu = rng.integers(0, 2, 8 * self.length_bytes)
        ppdu = self.tx.transmit(psdu)
        sig = awgn(np.concatenate([np.zeros(self.pad_samples, complex),
                                   ppdu.samples]), self.snr_db, rng)
        self.counts["data_bits"] += int(psdu.size)
        try:
            out, _report = self.receiver.receive(
                sig, expected_rate=self.rate_mbps)
        except PacketError:
            self.counts["packet_errors"] += 1
            self.counts["bit_errors"] += int(psdu.size)
            return b"\xff" + slot.to_bytes(4, "big"), \
                {"bit_errors": int(psdu.size), "packet_error": True}
        errors = int(np.sum(out != psdu)) if out.size == psdu.size \
            else int(psdu.size)
        self.counts["bit_errors"] += errors
        if errors:
            self.counts["packet_errors"] += 1
        return np.asarray(out, dtype=np.uint8).tobytes(), \
            {"bit_errors": errors, "packet_error": bool(errors)}

    def _dsp_state(self) -> dict:
        return {"receiver": self.receiver.snapshot()}

    def _restore_dsp(self, dsp: dict) -> None:
        self.receiver.restore(dsp["receiver"])


_WORKLOADS = {"rake": RakeSessionWorkload, "ofdm": OfdmSessionWorkload}


def build_workload(spec: SessionSpec) -> SessionWorkload:
    """A fresh (slot 0) workload for ``spec``."""
    return _WORKLOADS[spec.kind](spec)


def workload_from_state(spec: SessionSpec,
                        state: Optional[dict]) -> SessionWorkload:
    """A workload resumed from a checkpoint ``state`` (fresh when
    None) — the restore half of checkpoint/migration."""
    workload = build_workload(spec)
    if state is not None:
        if state.get("kind", spec.kind) != spec.kind:
            raise ValueError(
                f"state kind {state.get('kind')!r} does not match spec "
                f"kind {spec.kind!r} for session {spec.session_id}")
        workload.load_state(state)
    return workload


def expand_sessions(spec: dict) -> list:
    """Session specs from a service spec dict (the CLI's JSON format).

    Explicit ``sessions`` entries are taken as-is (each may omit
    ``seed``, derived from ``master_seed`` and its position).  ``load``
    entries generate ``count`` sessions each::

        {"master_seed": 7,
         "sessions": [{"session_id": "vip", "kind": "rake", ...}],
         "load": [{"kind": "ofdm", "count": 10, "tenant": "bulk",
                   "n_slots": 4, "params": {...}}]}

    Seeds derive as ``SeedSequence(master_seed, spawn_key=(index,))``
    over the flat enumeration order, so a spec file pins every
    session's stimulus without spelling out seeds.
    """
    check_keys(spec, SERVICE_KEYS, "service spec")
    master = int(spec.get("master_seed", 0))
    out = []

    def derived_seed(index: int) -> int:
        return int(np.random.SeedSequence(
            master, spawn_key=(index,)).generate_state(1)[0])

    index = 0
    for entry in spec.get("sessions", ()):
        d = dict(entry)
        d.setdefault("seed", derived_seed(index))
        out.append(SessionSpec.from_dict(d))
        index += 1
    for group in spec.get("load", ()):
        check_keys(group, LOAD_KEYS, "load group")
        count = int(group.get("count", 1))
        kind = group.get("kind", "rake")
        tenant = group.get("tenant", kind)
        for k in range(count):
            out.append(SessionSpec.from_dict({
                "session_id": group.get("prefix", f"{tenant}/{kind}")
                + f"-{k}",
                "kind": kind, "tenant": tenant,
                "n_slots": group.get("n_slots", 8),
                "seed": derived_seed(index),
                "params": group.get("params") or {}}))
            index += 1
    ids = [s.session_id for s in out]
    if len(set(ids)) != len(ids):
        raise ValueError("duplicate session_id in service spec")
    return out
