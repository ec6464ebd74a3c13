"""Workload ``serve_fleet``: the session service, golden DSP plus IPC.

Each *service* (the batch) is one ``SessionBroker(2)`` run with a
journal and otherwise default options, serving four rake and four
OFDM sessions of ``SLOTS`` slots each.  All eight are submitted at the
start, which is the broker's resident limit (4 x shards), so the
service is a closed loop: a round steps every resident session once
and the next round starts when every shard has replied.

The run times whole services back to back.  Set-up of a service is
construction, shard spawn, admission with warm-up and the first round
(each rake session's first slot acquires its paths); the rounds after
it are the steady part.  Both are read from the service's own journal
timestamps, so the bare run wraps nothing.  After the timed loop every
digest is checked against a replay of the same spec run directly,
without broker or shard protocol.
"""

from __future__ import annotations

import os
import time

from perfbench.common import emit, import_s, median, peak_rss_mb, \
    quantile
from perfbench.metrics import LAYERS, zeros
from perfbench.spans import Tracer, layer_metrics

SHARDS = 2
SESSIONS_PER_KIND = 4
SLOTS = 40


def _specs(seed: int, traced: bool, service: int) -> list:
    """The sessions of the ``service``-th service of a phase."""
    import numpy as np
    from repro.serve.session import SessionSpec

    specs = []
    for i in range(2 * SESSIONS_PER_KIND):
        kind = ("rake", "ofdm")[i // SESSIONS_PER_KIND]
        s = np.random.SeedSequence(seed, spawn_key=(int(traced), service,
                                                    i))
        specs.append(SessionSpec(
            session_id=f"{kind}-{i % SESSIONS_PER_KIND}", kind=kind,
            n_slots=SLOTS, seed=int(s.generate_state(1)[0])))
    return specs


def _install(tracer):
    from repro.serve.broker import SessionBroker
    from repro.serve.journal import ServeJournal
    from repro.serve.shard import ShardPool

    def note_send(span, args, _result):
        span.info = args[2][0]

    def note_collect(span, _args, result):
        span.info = result[0]           # [(shard, reply), ...]

    p = tracer.patch
    p(SessionBroker, "run", "serve.run", "serve.broker")
    p(ShardPool, "start", "pool.start", "pool.spawn")
    p(ShardPool, "send", "serve.send", "serve.ipc", after=note_send)
    p(ShardPool, "collect", "serve.collect", "serve.ipc",
      after=note_collect)
    p(ShardPool, "stop", "pool.stop", "pool.stop")
    p(ServeJournal, "emit", "serve.journal.emit", "serve.journal")


def _install_replay(tracer):
    from repro.ofdm.receiver import OfdmReceiver
    from repro.ofdm.transmitter import OfdmTransmitter
    from repro.rake.session import RakeSession
    from repro.wcdma.transmitter import Basestation

    p = tracer.patch
    p(Basestation, "transmit", "wcdma.tx", "wcdma.tx")
    p(OfdmTransmitter, "transmit", "ofdm.tx", "ofdm.tx")
    p(RakeSession, "process_block", "rake.block", "rake.session")
    p(OfdmReceiver, "receive", "ofdm.receive", "ofdm.receiver")


def _journal_facts(path, t_start: float) -> dict:
    """Set-up and steady-state timing from the journal's wall stamps."""
    from repro.serve.journal import read_journal

    records = read_journal(path)
    rounds = [r["t"] for r in records if r["event"] == "progress"]
    return {"setup_s": rounds[0] - t_start,
            "steady_s": rounds[-1] - rounds[0],
            "records": len(records),
            "bytes": os.path.getsize(path)}


def run(run):
    os.environ.pop("REPRO_XPP_SCHEDULER", None)
    from repro.serve.broker import SessionBroker

    services = {False: [], True: []}
    tracer = None
    n = 0
    for traced, deadline in run.phases():
        if traced:
            tracer = Tracer()
            _install(tracer)
        try:
            while not services[traced] \
                    or time.perf_counter() < deadline:
                specs = _specs(run.seed, traced, len(services[traced]))
                journal = run.path(f"service-{n}.jsonl")
                if tracer is not None:
                    tracer.op = n
                t_start = time.time()
                t0 = time.perf_counter()
                broker = SessionBroker(SHARDS, journal_path=journal)
                result = broker.run(specs)
                wall = time.perf_counter() - t0
                facts = _journal_facts(journal, t_start)
                facts.update(wall=wall, specs=specs, result=result,
                             index=n)
                services[traced].append(facts)
                n += 1
        finally:
            if tracer is not None:
                tracer.restore()
    rss = peak_rss_mb()
    imports = import_s(run, ("numpy", "repro.serve.broker",
                             "repro.serve.session"))

    # digests of the bare services are replayed in helper processes;
    # the traced ones in this process, where the replay is also timed
    bare_specs = [spec for svc in services[False] for spec in svc["specs"]]
    digests = iter(_replay_parallel(bare_specs))
    for svc in services[False]:
        _check(run, svc, [next(digests) for _ in svc["specs"]])
    replay = None
    if run.trace:
        replay = Tracer()
        _install_replay(replay)
        try:
            for svc in services[True]:
                _check(run, svc, [_replay(spec) for spec in svc["specs"]])
        finally:
            replay.restore()

    bare = services[False]
    # the first round of a service is part of its set-up
    steady_slots = 2 * SESSIONS_PER_KIND * (SLOTS - 1)
    e2e = {
        "setup_s": imports + median(s["setup_s"] for s in bare),
        "peak_rss_mb": rss,
        "ops_per_s": steady_slots / median(s["steady_s"] for s in bare),
    }
    table = [
        ("slots_per_s", e2e["ops_per_s"], "1/s"),
        ("slot_p95_s", median(s["result"].stats["p95_slot_s"]
                              for s in bare), "s"),
        ("service_wall_s", median(s["wall"] for s in bare), "s"),
        ("services", len(bare), "count"),
    ]
    layers = zeros()
    if run.trace:
        layers.update(_layer_metrics(tracer, replay, services))
        table.append(("traced services", len(services[True]), "count"))
    emit(run, e2e, layers, table)


def _replay(spec) -> str:
    """The digest of a session run directly, without broker or shard."""
    from repro.serve.session import build_workload

    workload = build_workload(spec)
    while not workload.done:
        workload.run_slot()
    return workload.digest


def _replay_worker(conn, specs) -> None:
    try:
        conn.send([_replay(spec) for spec in specs])
    finally:
        conn.close()


def _replay_parallel(specs) -> list:
    """:func:`_replay` of every spec, split over ``SHARDS`` forked
    helper processes (each is joined before returning)."""
    import multiprocessing

    ctx = multiprocessing.get_context("fork")
    helpers = []
    try:
        for i in range(SHARDS):
            conn, child = ctx.Pipe(duplex=False)
            proc = ctx.Process(target=_replay_worker,
                               args=(child, specs[i::SHARDS]))
            proc.start()
            child.close()
            helpers.append((proc, conn))
        digests = [None] * len(specs)
        for i, (_proc, conn) in enumerate(helpers):
            digests[i::SHARDS] = conn.recv()
        return digests
    finally:
        for proc, conn in helpers:
            conn.close()
            proc.join()


def _check(run, svc, digests) -> None:
    """Every session completed, none shed, each digest equals the
    replay's."""
    result = svc["result"]
    run.attempted += len(svc["specs"])
    label = f"service {svc['index']}"
    if result.status != "complete":
        run.fail(f"{label}: status {result.status}")
    for spec, digest in zip(svc["specs"], digests):
        rec = result.sessions.get(spec.session_id)
        if rec is None:
            run.fail(f"{label}: {spec.session_id} was shed")
        elif not rec["done"] or rec["digest"] != digest:
            run.fail(f"{label}: {spec.session_id} digest differs from "
                     f"the replay")


def _layer_metrics(tracer, replay, services) -> dict:
    from multiprocessing.reduction import ForkingPickler

    traced = services[True]
    kinds = {}
    for svc in traced:
        for spec in svc["specs"]:
            kinds[(svc["index"], spec.session_id)] = spec.kind

    spawn, admit, rounds, ipc, imbalance = [], [], [], [], []
    slot_s = {"rake": [], "ofdm": []}
    first_rake = []
    # sizes of the first traced service: its specs depend on the seed
    # only, so these counts repeat exactly from run to run
    first = traced[0]["index"]
    reply_bytes = 0
    slots = 0
    sends = []
    for span in list(tracer.spans):     # _add_compute appends spans
        if span.name == "serve.send":
            sends.append(span)
        elif span.name == "pool.start":
            spawn.append(span.dur)
        elif span.name == "serve.collect":
            what = {s.info for s in sends}
            if "admit" in what:
                span.layer = "serve.admit"
                admit.append(span.dur)
            elif what == {"step"}:
                per_shard = []
                for _shard, reply in span.info:
                    if reply[0] != "ok" or reply[1] != "step":
                        continue
                    if span.op == first:
                        reply_bytes += len(ForkingPickler.dumps(reply))
                        slots += len(reply[2]["advanced"])
                    payload = reply[2]
                    work = []
                    for rec, dt in zip(payload["advanced"],
                                       payload["slot_s"]):
                        kind = kinds[(span.op, rec["session_id"])]
                        slot_s[kind].append(dt)
                        work.append((kind, dt))
                        if kind == "rake" and rec["slot_cursor"] == 1:
                            first_rake.append(dt)
                    per_shard.append(work)
                if per_shard:
                    _add_compute(tracer, span, per_shard)
                    totals = [sum(dt for _k, dt in w) for w in per_shard]
                    round_s = span.end - sends[0].start
                    rounds.append(round_s)
                    ipc.append(round_s - max(totals))
                    imbalance.append(max(totals) * len(totals)
                                     / max(sum(totals), 1e-12))
            sends = []

    n = max(len(traced), 1)
    emit_s = sum(s.dur for s in tracer.named("serve.journal.emit"))
    out = {
        "pool.spawn_s": median(spawn),
        "serve.admit_s": median(admit),
        "serve.round_s.p50": quantile(rounds, 0.5),
        "serve.round_s.p95": quantile(rounds, 0.95),
        "serve.ipc_s_per_round": median(ipc),
        "serve.reply_bytes_per_slot": reply_bytes / max(slots, 1),
        "serve.round_imbalance": median(imbalance),
        "serve.journal.records": traced[0]["records"],
        "serve.journal.bytes": traced[0]["bytes"],
        "serve.journal.emit_s": emit_s / n,
        "serve.slot_s.rake.p50": median(slot_s["rake"]),
        "serve.slot_s.ofdm.p50": median(slot_s["ofdm"]),
        "rake.first_slot_s": median(first_rake),
    }

    n_rake = sum(1 for svc in traced for s in svc["specs"]
                 if s.kind == "rake") * SLOTS
    n_ofdm = sum(1 for svc in traced for s in svc["specs"]
                 if s.kind == "ofdm") * SLOTS
    out["wcdma.tx_s_per_slot"] = \
        sum(s.dur for s in replay.named("wcdma.tx")) / max(n_rake, 1)
    out["ofdm.tx_s_per_slot"] = \
        sum(s.dur for s in replay.named("ofdm.tx")) / max(n_ofdm, 1)
    out["rake.session.s_per_block"] = \
        sum(s.dur for s in replay.named("rake.block")) / max(n_rake, 1)

    wall = sum(s["wall"] for s in traced)
    roots = tracer.named("serve.run")
    self_s = tracer.self_times(roots)
    self_s["bench"] = self_s.get("bench", 0.0) + wall \
        - sum(s.dur for s in roots)
    out.update(layer_metrics(self_s, wall, len(traced), LAYERS))
    bare = median(s["wall"] for s in services[False])
    out["trace.overhead_share"] = \
        median(s["wall"] for s in traced) / bare - 1.0 if bare else 0.0
    return out


def _add_compute(tracer, collect, per_shard) -> None:
    """Lay the slowest shard's reported slot times under the collect
    span: that shard's compute is the part of the round the broker
    waited for; the rest of the collect is IPC and state shipping."""
    work = max(per_shard, key=lambda w: sum(dt for _k, dt in w))
    t = collect.start
    for kind, dt in work:
        end = min(t + dt, collect.end)
        tracer.add(f"shard.{kind}", f"serve.shard.{kind}", t, end, collect)
        t = end
