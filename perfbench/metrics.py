"""Names and units of every metric the benchmark reports.

``BENCHMARK.json`` lists the same names; every workload reports every
metric (a per-layer metric a workload does not exercise reads 0).
"""

END_TO_END = (
    ("setup_s", "s"),
    ("peak_rss_mb", "MB"),
    ("ops_per_s", "1/s"),
)

#: Layers whose self time the traced run reports (``bench`` is the
#: benchmark's own glue and is left out of coverage).
LAYERS = (
    "sdr", "wlan.fig10", "ofdm.receiver", "ofdm.viterbi",
    "kernels.fft64", "xpp.manager", "xpp.simulator", "fastpath.capture",
    "rake.session", "serve.broker", "serve.admit", "serve.ipc",
    "serve.journal", "serve.shard.rake", "serve.shard.ofdm",
    "pool.spawn", "pool.wait", "pool.stop",
    "campaign.run", "campaign.checkpoint", "campaign.events",
    "campaign.aggregate", "bench",
)

PER_LAYER = (
    # terminal: array path per 802.11a packet
    ("kernels.fft64.calls_per_packet", "count"),
    ("kernels.fft64.s_per_call", "s"),
    ("kernels.fft64.build_s_per_call", "s"),
    ("xpp.simulator.run_s_per_call", "s"),
    ("xpp.host_us_per_cycle", "us"),
    ("xpp.cycles_per_packet", "count"),
    ("xpp.manager.loads_per_packet", "count"),
    ("xpp.manager.load_s_per_packet", "s"),
    ("fastpath.fallbacks_per_packet", "count"),
    ("fastpath.fallbacks_per_packet.unsupported-type", "count"),
    ("sdr.fig10.s_per_packet", "s"),
    ("ofdm.receiver.self_s_per_packet", "s"),
    ("ofdm.viterbi.s_per_packet", "s"),
    ("sdr.rtf_wlan", "s/s"),
    ("sdr.rtf_wcdma", "s/s"),
    ("rake.session.s_per_block", "s"),
    # serve_fleet: broker, IPC, journal, shard compute
    ("pool.spawn_s", "s"),
    ("serve.admit_s", "s"),
    ("serve.round_s.p50", "s"),
    ("serve.round_s.p95", "s"),
    ("serve.ipc_s_per_round", "s"),
    ("serve.reply_bytes_per_slot", "B"),
    ("serve.round_imbalance", "ratio"),
    ("serve.journal.records", "count"),
    ("serve.journal.bytes", "B"),
    ("serve.journal.emit_s", "s"),
    ("serve.slot_s.rake.p50", "s"),
    ("serve.slot_s.ofdm.p50", "s"),
    ("rake.first_slot_s", "s"),
    # stimulus and golden DSP, timed by in-process replays
    ("wcdma.tx_s_per_slot", "s"),
    ("ofdm.tx_s_per_slot", "s"),
    ("wcdma.fading.s_per_slot", "s"),
    ("wcdma.link.s_per_slot", "s"),
    # campaign_sweep: shards, checkpoint, compile cache
    ("campaign.runner_s.wcdma_dpch", "s"),
    ("campaign.runner_s.chaos", "s"),
    ("pool.shard_overhead_s", "s"),
    ("campaign.checkpoint.append_s", "s"),
    ("campaign.checkpoint.bytes_per_shard", "B"),
    ("fastpath.cache.hit_ratio", "ratio"),
    ("fastpath.cache.miss", "count"),
    ("fastpath.compile_s", "s"),
    ("fastpath.fallbacks", "count"),
    ("fastpath.fallbacks.fault-tap", "count"),
    # the host and tracing itself
    ("host.calibration_s", "s"),
    ("trace.coverage", "ratio"),
    ("trace.overhead_share", "ratio"),
) + tuple((f"layer.{name}.self_s", "s") for name in LAYERS)


def zeros() -> dict:
    """Every per-layer metric at 0, for a workload to fill in."""
    return {name: 0.0 for name, _unit in PER_LAYER}
