"""Campaign specs, sweep expansion and deterministic sharding."""

from pathlib import Path

import numpy as np
import pytest

from repro.campaign import (
    CampaignError,
    CampaignSpec,
    EarlyStop,
    JobSpec,
    build_shards,
    expand_sweep,
)
from repro.testing import spawn_rngs, spawn_seedseqs


def _spec(**over):
    d = {"name": "t", "master_seed": 42,
         "jobs": [{"job_id": "a", "kind": "fault",
                   "params": {"mode": "ok"}, "shards": 3},
                  {"job_id": "b", "kind": "fault",
                   "params": {"mode": "ok"}, "shards": 2}]}
    d.update(over)
    return CampaignSpec.from_dict(d)


class TestSpec:
    def test_round_trip(self):
        spec = _spec()
        again = CampaignSpec.from_dict(spec.to_dict())
        assert again == spec
        assert again.fingerprint() == spec.fingerprint()

    def test_fingerprint_sensitive_to_everything(self):
        base = _spec()
        assert _spec(master_seed=43).fingerprint() != base.fingerprint()
        assert _spec(name="u").fingerprint() != base.fingerprint()
        changed = base.to_dict()
        changed["jobs"][0]["shards"] = 4
        assert CampaignSpec.from_dict(changed).fingerprint() \
            != base.fingerprint()

    def test_every_emitted_key_is_accepted(self):
        """Strict keys never refuse what ``to_dict`` writes, so saved
        specs and checkpoints keep loading."""
        spec = CampaignSpec.from_dict(
            {"name": "all", "master_seed": 3,
             "jobs": [{"job_id": "c", "kind": "chaos", "shards": 2,
                       "params": {"n_chips": 16}, "timeout_s": 9.0,
                       "backend": "fastpath",
                       "early_stop": {"min_error_events": 5,
                                      "target_rel_err": 0.2}}]})
        assert CampaignSpec.from_dict(spec.to_dict()) == spec

    @pytest.mark.parametrize("path,fingerprint", [
        ("examples/smoke_campaign.json", "c7c7d8ffcc79f3ee"),
        ("examples/chaos_campaign.json", "b26054bb2de9c575"),
    ])
    def test_example_fingerprints_unchanged(self, path, fingerprint):
        root = Path(__file__).resolve().parents[1]
        assert CampaignSpec.load(root / path).fingerprint() == fingerprint

    def test_duplicate_job_ids_rejected(self):
        with pytest.raises(CampaignError, match="duplicate"):
            _spec(jobs=[{"job_id": "a", "kind": "fault", "shards": 1},
                        {"job_id": "a", "kind": "fault", "shards": 1}])

    def test_empty_and_invalid(self):
        with pytest.raises(CampaignError):
            CampaignSpec.from_dict({"name": "x", "master_seed": 1,
                                    "jobs": []})
        with pytest.raises(CampaignError):
            CampaignSpec.from_dict({"master_seed": 1,
                                    "jobs": [{"job_id": "a",
                                              "kind": "fault"}]})
        with pytest.raises(CampaignError, match="unknown job kind"):
            JobSpec(job_id="x", kind="nope")
        with pytest.raises(CampaignError, match="shards"):
            JobSpec(job_id="x", kind="fault", shards=0)

    def test_params_must_be_scalars(self):
        with pytest.raises(CampaignError, match="JSON scalar"):
            CampaignSpec.from_dict(
                {"name": "x", "master_seed": 1,
                 "jobs": [{"job_id": "a", "kind": "fault",
                           "params": {"bad": [1, 2]}}]})

    def test_early_stop_validation(self):
        with pytest.raises(CampaignError):
            EarlyStop()
        with pytest.raises(CampaignError):
            EarlyStop(min_error_events=0)
        with pytest.raises(CampaignError):
            EarlyStop(target_rel_err=0.0)
        assert EarlyStop(min_error_events=10).to_dict() == \
            {"min_error_events": 10}


class TestSweep:
    def test_cross_product_in_axis_order(self):
        jobs = expand_sweep({"name": "s", "kind": "wcdma_dpch",
                             "base": {"n_slots": 15},
                             "axes": {"snr_db": [0, 3],
                                      "doppler_hz": [5, 50]},
                             "shards": 2})
        assert [j.job_id for j in jobs] == [
            "s/snr_db=0,doppler_hz=5", "s/snr_db=0,doppler_hz=50",
            "s/snr_db=3,doppler_hz=5", "s/snr_db=3,doppler_hz=50"]
        assert all(j.shards == 2 for j in jobs)
        assert jobs[0].param_dict == {"n_slots": 15, "snr_db": 0,
                                      "doppler_hz": 5}

    def test_axisless_sweep_is_one_job(self):
        jobs = expand_sweep({"kind": "rake_scenarios"})
        assert len(jobs) == 1 and jobs[0].job_id == "rake_scenarios"

    def test_sweep_and_jobs_combine(self):
        spec = CampaignSpec.from_dict(
            {"name": "x", "master_seed": 1,
             "jobs": [{"job_id": "j", "kind": "fault"}],
             "sweeps": [{"kind": "fault", "name": "s",
                         "axes": {"mode": ["ok"]}}]})
        assert [j.job_id for j in spec.jobs] == ["j", "s/mode=ok"]


class TestSharding:
    def test_flat_enumeration(self):
        tasks = build_shards(_spec())
        assert [(t.job_id, t.shard_index, t.flat_index) for t in tasks] \
            == [("a", 0, 0), ("a", 1, 1), ("a", 2, 2),
                ("b", 0, 3), ("b", 1, 4)]

    def test_seeds_match_spawn_rngs(self):
        """Shard streams are exactly the spawn_rngs streams: shard i's
        generator draws what spawn_rngs(master, n)[i] draws."""
        spec = _spec()
        tasks = build_shards(spec)
        reference = spawn_rngs(spec.master_seed, spec.total_shards)
        for task, ref in zip(tasks, reference):
            assert np.array_equal(task.rng().integers(0, 1 << 30, 8),
                                  ref.integers(0, 1 << 30, 8))

    def test_shard_reproducible_in_isolation(self):
        """A shard's stream depends only on (master_seed, flat index),
        equal to a directly constructed spawn-key SeedSequence."""
        task = build_shards(_spec())[3]
        direct = np.random.default_rng(
            np.random.SeedSequence(42, spawn_key=(3,)))
        assert np.array_equal(task.rng().integers(0, 1 << 30, 8),
                              direct.integers(0, 1 << 30, 8))

    def test_streams_are_independent(self):
        draws = [t.rng().integers(0, 1 << 62) for t in build_shards(_spec())]
        assert len(set(draws)) == len(draws)

    def test_spawn_seedseqs_are_spawn_children(self):
        child = spawn_seedseqs(7, 3)[2]
        assert child.entropy == 7 and child.spawn_key == (2,)


class TestRngsFixture:
    def test_rngs_fixture_gives_independent_streams(self, rngs):
        a, b = rngs(2)
        assert a.integers(0, 1 << 62) != b.integers(0, 1 << 62)
