"""Workload ``campaign_sweep``: sharded Monte-Carlo campaigns.

Each *campaign* (the batch) is one ``run_campaign(workers=2)`` with a
checkpoint: a ``wcdma_dpch`` sweep over four SNR points (two shards
each, default backend) plus ``chaos`` jobs pinned to
``backend: fastpath`` — clean descrambler runs that share the
checkpoint's on-disk compile cache, and stuck-at runs whose fault taps
make the fastpath fall back.  ``repro.pool`` starts one process per
shard (at most two alive): a closed loop over shards.

Shard wall times come from the campaign's lifecycle event log.  After
the timed loop every campaign is run again serially in process; its
aggregate must be byte-equal, and its event log gives each shard's
runner time, so the shard overhead of the pool is shard wall minus
runner time.
"""

from __future__ import annotations

import json
import os
import time

from perfbench.common import emit, import_s, median, peak_rss_mb, \
    quantile
from perfbench.metrics import LAYERS, zeros
from perfbench.spans import Tracer, layer_metrics

WORKERS = 2
DPCH_SLOTS = 150
SNR_POINTS_DB = (0.0, 3.0, 6.0, 9.0)
CHAOS_CHIPS = 256


def _spec(seed: int, traced: bool, index: int):
    """The ``index``-th campaign of a phase."""
    import numpy as np
    from repro.campaign import CampaignSpec

    master = int(np.random.SeedSequence(seed, spawn_key=(int(traced), index))
                 .generate_state(1)[0])
    return CampaignSpec.from_dict({
        "name": f"perfbench-{index}",
        "master_seed": master,
        "jobs": [
            {"job_id": "chaos/clean", "kind": "chaos", "shards": 4,
             "backend": "fastpath", "params": {"n_chips": CHAOS_CHIPS}},
            {"job_id": "chaos/stuck-at", "kind": "chaos", "shards": 2,
             "backend": "fastpath",
             "params": {"n_chips": CHAOS_CHIPS, "stuck_at": 1.0,
                        "transient": 1.0}},
        ],
        "sweeps": [
            {"name": "dpch", "kind": "wcdma_dpch",
             "base": {"slot_format": 11, "n_slots": DPCH_SLOTS,
                      "doppler_hz": 10.0},
             "axes": {"snr_db": list(SNR_POINTS_DB)}, "shards": 2},
        ],
    })


def _shard_durations(events_path, spec) -> dict:
    """``(job_id, shard_index) -> (kind, seconds)`` from an event log."""
    from repro.telemetry.flight import read_events

    kinds = {job.job_id: job.kind for job in spec.jobs}
    return {(e["job_id"], e["shard_index"]): (kinds[e["job_id"]],
                                              e["duration_s"])
            for e in read_events(events_path)
            if e["event"] == "shard_finish"}


def _install(tracer):
    from repro.campaign import pool as campaign_pool
    from repro.campaign.checkpoint import Checkpoint
    from repro.pool import WorkerHandle
    from repro.telemetry.flight import EventLog
    import repro.pool as pool

    p = tracer.patch
    p(WorkerHandle, "spawn", "pool.spawn", "pool.spawn")
    p(pool, "wait_workers", "pool.wait", "pool.wait")
    p(WorkerHandle, "recv", "pool.recv", "pool.wait")
    p(WorkerHandle, "join", "pool.join", "pool.wait")
    p(Checkpoint, "append", "checkpoint.append", "campaign.checkpoint")
    p(EventLog, "emit", "events.emit", "campaign.events")
    p(campaign_pool, "aggregate", "campaign.aggregate",
      "campaign.aggregate")


def _install_replay(tracer, compiles):
    from repro.fastpath import runtime
    from repro.wcdma import link
    from repro.wcdma.fading import FadingMultipathChannel

    p = tracer.patch
    p(link.DpchLink, "run_slot", "wcdma.link.slot", "wcdma.link")
    p(FadingMultipathChannel, "apply", "wcdma.fading", "wcdma.fading")
    for fn in ("build_slot_bits", "bits_to_qpsk", "spread", "scramble"):
        p(link, fn, "wcdma.tx", "wcdma.tx")
    p(runtime, "compile_graph", "fastpath.compile", "fastpath.compile",
      after=lambda span, _args, result: compiles.append(
          (span.dur, result[3])))


def run(run):
    os.environ.pop("REPRO_XPP_SCHEDULER", None)
    os.environ.pop("REPRO_FASTPATH_CACHE_DIR", None)
    from repro.campaign import run_campaign
    from repro.telemetry.flight import read_events

    campaigns = {False: [], True: []}
    tracer = None
    n = 0
    for traced, deadline in run.phases():
        if traced:
            tracer = Tracer()
            _install(tracer)
        try:
            while not campaigns[traced] \
                    or time.perf_counter() < deadline:
                spec = _spec(run.seed, traced, len(campaigns[traced]))
                ck = run.path(f"campaign-{n}.ckpt.jsonl")
                t_start = time.time()
                t0 = time.perf_counter()
                if tracer is not None:
                    tracer.op = n
                    with tracer.span("campaign.run", "campaign.run"):
                        result = run_campaign(spec, workers=WORKERS,
                                              checkpoint_path=ck,
                                              flight_recorder=True)
                else:
                    result = run_campaign(spec, workers=WORKERS,
                                          checkpoint_path=ck)
                wall = time.perf_counter() - t0
                events = ck + ".events.jsonl"
                first = min(e["t"] for e in read_events(events)
                            if e["event"] == "shard_start")
                campaigns[traced].append({
                    "index": n, "spec": spec, "result": result,
                    "wall": wall, "setup_s": first - t_start,
                    "shards": _shard_durations(events, spec),
                    "ckpt_bytes": os.path.getsize(ck)})
                n += 1
        finally:
            if tracer is not None:
                tracer.restore()
    rss = peak_rss_mb()
    imports = import_s(run, ("numpy", "repro.campaign"))

    replay = Tracer() if run.trace else None
    compiles = []
    for traced in (False, True):
        if traced and replay is not None:
            _install_replay(replay, compiles)
        try:
            for c in campaigns[traced]:
                _check(run, c, clear_cache=traced)
        finally:
            if replay is not None:
                replay.restore()

    bare = campaigns[False]
    shards = [d for c in bare for _kind, d in c["shards"].values()]
    by_kind = {}
    for c in bare:
        for kind, d in c["shards"].values():
            by_kind.setdefault(kind, []).append(d)
    e2e = {
        "setup_s": imports + median(c["setup_s"] for c in bare),
        "peak_rss_mb": rss,
        "ops_per_s": len(shards) / len(bare)
        / median(c["wall"] for c in bare),
    }
    table = [
        ("campaign_wall_s", median(c["wall"] for c in bare), "s"),
        ("shard_p95_s", quantile(shards, 0.95), "s"),
        ("dpch_shard_s", median(by_kind.get("wcdma_dpch", [])), "s"),
        ("chaos_shard_s", median(by_kind.get("chaos", [])), "s"),
        ("campaigns", len(bare), "count"),
    ]
    layers = zeros()
    if run.trace:
        layers.update(_layer_metrics(tracer, replay, compiles, campaigns))
        table.append(("traced campaigns", len(campaigns[True]), "count"))
    emit(run, e2e, layers, table)


def _check(run, c, *, clear_cache: bool) -> None:
    """Every shard ok; the aggregate is byte-equal to a serial run of
    the same spec, whose event log gives each shard's runner time."""
    from repro.campaign import run_campaign
    from repro.fastpath.cache import clear_memory_cache

    result = c["result"]
    label = f"campaign {c['index']}"
    run.attempted += result.stats["total_shards"]
    for o in result.outcomes:
        if not o.ok:
            run.fail(f"{label}: shard {o.job_id}#{o.shard_index}: "
                     f"{o.error}")
    if clear_cache:
        clear_memory_cache()        # so the replay measures one compile
    events = run.path(f"serial-{c['index']}.events.jsonl")
    serial = run_campaign(c["spec"], workers=1, events_path=events)
    c["runner"] = _shard_durations(events, c["spec"])
    if json.dumps(serial.results, sort_keys=True) \
            != json.dumps(result.results, sort_keys=True):
        run.fail(f"{label}: aggregate differs from the serial run")


def _layer_metrics(tracer, replay, compiles, campaigns) -> dict:
    from repro.telemetry import flight

    bare, traced = campaigns[False], campaigns[True]
    out = {}
    # runner times from the unpatched serial runs of the bare campaigns
    runner = {}
    overhead = []
    for c in bare:
        for key, (kind, d) in c["runner"].items():
            runner.setdefault(kind, []).append(d)
            if key in c["shards"]:
                overhead.append(c["shards"][key][1] - d)
    out["campaign.runner_s.wcdma_dpch"] = median(runner.get("wcdma_dpch",
                                                            []))
    out["campaign.runner_s.chaos"] = median(runner.get("chaos", []))
    out["pool.shard_overhead_s"] = median(overhead)
    n_shards = sum(c["result"].stats["total_shards"] for c in bare)
    out["campaign.checkpoint.bytes_per_shard"] = \
        sum(c["ckpt_bytes"] for c in bare) / max(n_shards, 1)
    out["campaign.checkpoint.append_s"] = \
        median(s.dur for s in tracer.named("checkpoint.append"))

    hits = misses = fallbacks = fault_taps = 0.0
    for c in traced:
        rollups = flight.metric_rollups(c["result"].outcomes)

        def total(name):
            return rollups.get(name, {}).get("total", 0.0)
        hits += total("fastpath.cache.hit")
        misses += total("fastpath.cache.miss")
        fallbacks += total("fastpath.fallback")
        fault_taps += total("fastpath.fallback.fault-tap")
    n = max(len(traced), 1)
    out["fastpath.cache.hit_ratio"] = hits / max(hits + misses, 1.0)
    out["fastpath.cache.miss"] = misses / n
    out["fastpath.fallbacks"] = fallbacks / n
    out["fastpath.fallbacks.fault-tap"] = fault_taps / n
    out["fastpath.compile_s"] = median(d for d, hit in compiles if not hit)

    dpch_slots = sum(1 for c in traced for job in c["spec"].jobs
                     if job.kind == "wcdma_dpch"
                     for _ in range(job.shards)) * DPCH_SLOTS
    slot_spans = replay.named("wcdma.link.slot")
    out["wcdma.link.s_per_slot"] = \
        replay.self_times(slot_spans).get("wcdma.link", 0.0) \
        / max(dpch_slots, 1)
    out["wcdma.fading.s_per_slot"] = \
        sum(s.dur for s in replay.named("wcdma.fading")) / max(dpch_slots, 1)
    out["wcdma.tx_s_per_slot"] = \
        sum(s.dur for s in replay.named("wcdma.tx")
            if s.parent is not None) / max(dpch_slots, 1)

    wall = sum(c["wall"] for c in traced)
    roots = tracer.named("campaign.run")
    self_s = tracer.self_times(roots)
    self_s["bench"] = self_s.get("bench", 0.0) + wall \
        - sum(s.dur for s in roots)
    out.update(layer_metrics(self_s, wall, len(traced), LAYERS))
    bare_wall = median(c["wall"] for c in bare)
    out["trace.overhead_share"] = \
        median(c["wall"] for c in traced) / bare_wall - 1.0 \
        if bare_wall else 0.0
    return out
