"""Checkpointing: kill-and-resume bit-identity, torn tails and
fingerprint guards."""

import json

import pytest

from repro.campaign import CampaignError, CampaignSpec, run_campaign


def _spec(seed=5):
    return CampaignSpec.from_dict(
        {"name": "resume", "master_seed": seed,
         "sweeps": [{"kind": "wcdma_dpch", "base": {"n_slots": 15},
                     "axes": {"snr_db": [3, 6]}, "shards": 3}]})


def _bytes(run) -> str:
    return json.dumps(run.results, sort_keys=True)


class TestResume:
    def test_killed_run_resumes_bit_identical(self, tmp_path):
        """Truncating the checkpoint mid-campaign (the kill) and
        resuming yields byte-identical aggregates to an uninterrupted
        run — even with a torn partial line at the kill point and a
        different worker count after resume."""
        ck = tmp_path / "ck.jsonl"
        full = run_campaign(_spec(), workers=1, checkpoint_path=ck)
        assert full.complete

        lines = ck.read_text().splitlines()
        assert len(lines) == 1 + 6          # header + one line per shard
        # keep header + 3 shards, then a torn write from the kill
        ck.write_text("\n".join(lines[:4]) + '\n{"type": "shard", "jo')

        resumed = run_campaign(_spec(), workers=2, checkpoint_path=ck)
        assert resumed.complete
        assert resumed.stats["resumed_shards"] == 3
        assert resumed.stats["executed_shards"] == 3
        assert _bytes(resumed) == _bytes(full)

    def test_torn_tail_then_resume_keeps_later_records(self, tmp_path):
        """A kill mid-write leaves a newline-less fragment at the end
        of the checkpoint and the event log.  The resumed run must
        terminate it before appending, so every record it writes stays
        visible to the next load, resume and status."""
        from repro.campaign.checkpoint import Checkpoint
        from repro.campaign.cli import main
        from repro.telemetry import flight

        spec_dict = {"name": "torn", "master_seed": 3,
                     "jobs": [{"job_id": "f", "kind": "fault",
                               "shards": 6}]}
        spec = CampaignSpec.from_dict(spec_dict)
        ck = tmp_path / "ck.jsonl"
        events = flight.events_path_for(ck)
        first = run_campaign(spec, workers=1, checkpoint_path=ck,
                             max_shards=3)
        assert first.stats["executed_shards"] == 3
        for path in (ck, events):
            with open(path, "a") as fh:
                fh.write('{"type": "shard", "jo')      # the kill

        resumed = run_campaign(spec, workers=1, checkpoint_path=ck)
        assert resumed.stats["executed_shards"] == 3
        assert len(Checkpoint(ck, spec).load()) == 6
        again = run_campaign(spec, workers=1, checkpoint_path=ck)
        assert again.stats["executed_shards"] == 0
        assert _bytes(again) == _bytes(run_campaign(spec, workers=1))

        log = flight.read_events(events)
        assert [e["resumed_shards"] for e in log
                if e["event"] == "campaign_start"] == [0, 3, 6]
        assert sum(e["event"] == "shard_finish" for e in log) == 6

        spec_path = tmp_path / "spec.json"
        spec_path.write_text(json.dumps(spec_dict))
        assert main(["status", "--checkpoint", str(ck),
                     "--spec", str(spec_path)]) == 0

    def test_max_shards_interrupt_then_resume(self, tmp_path):
        """--max-shards style interruption: the first call stops after
        its budget with an incomplete aggregate; resume finishes and
        matches an uninterrupted run."""
        ck = tmp_path / "ck.jsonl"
        first = run_campaign(_spec(), workers=1, checkpoint_path=ck,
                             max_shards=2)
        assert not first.complete
        assert first.stats["executed_shards"] == 2

        resumed = run_campaign(_spec(), workers=1, checkpoint_path=ck)
        assert resumed.complete
        assert resumed.stats["resumed_shards"] == 2
        uninterrupted = run_campaign(_spec(), workers=1)
        assert _bytes(resumed) == _bytes(uninterrupted)

    def test_partial_aggregate_uses_contiguous_prefix_only(self, tmp_path):
        """An interrupted run's aggregate only folds the contiguous
        shard prefix of each job, so partial numbers never disagree
        with the final ones."""
        ck = tmp_path / "ck.jsonl"
        first = run_campaign(_spec(), workers=1, checkpoint_path=ck,
                             max_shards=4)
        full = run_campaign(_spec(), workers=1)
        jobs = {j["job_id"]: j for j in first.results["jobs"]}
        for job in full.results["jobs"]:
            partial = jobs[job["job_id"]]
            n = partial["shards_included"]
            assert n <= job["shards_included"]
            if n and partial["counts"]:
                # included counts are a prefix sum of the full run's
                assert partial["counts"]["bit_errors"] \
                    <= job["counts"]["bit_errors"]

    def test_completed_checkpoint_reruns_nothing(self, tmp_path):
        ck = tmp_path / "ck.jsonl"
        run_campaign(_spec(), workers=1, checkpoint_path=ck)
        size = ck.stat().st_size
        again = run_campaign(_spec(), workers=1, checkpoint_path=ck)
        assert again.stats["executed_shards"] == 0
        assert again.stats["resumed_shards"] == 6
        assert again.complete
        assert ck.stat().st_size == size    # nothing appended

    def test_fingerprint_mismatch_refuses(self, tmp_path):
        ck = tmp_path / "ck.jsonl"
        run_campaign(_spec(seed=5), workers=1, checkpoint_path=ck)
        with pytest.raises(CampaignError, match="fingerprint"):
            run_campaign(_spec(seed=6), workers=1, checkpoint_path=ck)

    def test_non_checkpoint_file_refused(self, tmp_path):
        ck = tmp_path / "ck.jsonl"
        ck.write_text('{"hello": "world"}\n')
        with pytest.raises(CampaignError, match="not a campaign"):
            run_campaign(_spec(), workers=1, checkpoint_path=ck)

    def test_checkpoint_with_no_intact_record_starts_fresh(self, tmp_path):
        """A run killed while writing the header leaves only a
        fragment: the next run treats the file as fresh and writes a
        header, so the run after it resumes everything."""
        ck = tmp_path / "ck.jsonl"
        ck.write_text('{"type": "hea')
        assert run_campaign(_spec(), workers=1, checkpoint_path=ck).complete
        again = run_campaign(_spec(), workers=1, checkpoint_path=ck)
        assert again.stats["executed_shards"] == 0
        assert again.stats["resumed_shards"] == 6

    def test_failed_shards_are_not_resumed(self, tmp_path):
        """A shard that exhausted its retries is recorded; resume does
        not retry it (the spec would have to change to rerun it)."""
        spec = CampaignSpec.from_dict(
            {"name": "f", "master_seed": 1,
             "jobs": [{"job_id": "bad", "kind": "fault",
                       "params": {"mode": "raise"}, "shards": 1}]})
        ck = tmp_path / "ck.jsonl"
        first = run_campaign(spec, workers=1, retries=0,
                             backoff_s=0.0, checkpoint_path=ck)
        assert first.stats["failed_shards"] == 1
        again = run_campaign(spec, workers=1, retries=0,
                             backoff_s=0.0, checkpoint_path=ck)
        assert again.stats["executed_shards"] == 0
        assert again.stats["resumed_shards"] == 1
