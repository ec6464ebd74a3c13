"""Fuzzing the campaign-spec loader: hostile JSON fails structured.

The contract: :meth:`CampaignSpec.from_dict` (and :meth:`load`) either
returns a spec or raises :class:`~repro.campaign.spec.CampaignError` —
which is a ``ValueError``, so even callers that predate the fault work
catch it — never any other exception type.  ``tests/corpus/spec/``
holds JSON shapes that once crashed (or would crash) a naive loader.
"""

import json
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.campaign.spec import CampaignError, CampaignSpec
from repro.serve.session import SessionSpec

CORPUS = sorted((Path(__file__).parent / "corpus" / "spec").glob("*.json"))
SESSION_CORPUS = sorted(
    (Path(__file__).parent / "corpus" / "session").glob("*.json"))


@pytest.mark.parametrize("path", CORPUS, ids=lambda p: p.stem)
def test_corpus_regressions(path):
    with pytest.raises(CampaignError):
        CampaignSpec.from_dict(json.loads(path.read_text()))


def test_corpus_is_populated():
    assert len(CORPUS) >= 10
    assert SESSION_CORPUS


@pytest.mark.parametrize("path", SESSION_CORPUS, ids=lambda p: p.stem)
def test_session_corpus_regressions(path):
    """Misspelled session keys fail loudly instead of running the
    default (``"slots": 40`` used to run 8 slots)."""
    with pytest.raises(ValueError, match="unknown key"):
        SessionSpec.from_dict(json.loads(path.read_text()))


def test_session_spec_round_trips_under_strict_keys():
    spec = SessionSpec(session_id="s", kind="ofdm", tenant="t", n_slots=3,
                       seed=5, params=(("snr_db", 9.0),))
    assert SessionSpec.from_dict(spec.to_dict()) == spec


def test_unknown_key_error_names_key_and_accepted_set():
    with pytest.raises(CampaignError) as info:
        CampaignSpec.from_dict(
            {"name": "x", "master_seed": 1,
             "jobs": [{"job_id": "j", "kind": "fault", "timeout": 5}]})
    assert "'timeout'" in str(info.value)
    assert "'timeout_s'" in str(info.value)


def test_campaign_error_is_a_value_error():
    assert issubclass(CampaignError, ValueError)


def test_load_from_file_is_structured(tmp_path):
    p = tmp_path / "spec.json"
    p.write_text('{"name": "x", "jobs": "nope"}')
    with pytest.raises(CampaignError):
        CampaignSpec.load(p)


# arbitrary JSON values, nested a few levels deep
_JSON = st.recursive(
    st.none() | st.booleans() | st.integers(-10, 10)
    | st.floats(allow_nan=False, allow_infinity=False)
    | st.text(max_size=12),
    lambda children: st.lists(children, max_size=4)
    | st.dictionaries(st.text(max_size=8), children, max_size=4),
    max_leaves=25)

#: Keys the loader actually looks at, so fuzz cases hit real code paths.
_SPEC_KEYS = st.sampled_from([
    "name", "master_seed", "jobs", "sweeps", "job_id", "kind", "params",
    "shards", "early_stop", "timeout_s", "base", "axes",
    "min_error_events", "target_rel_err",
])


def _check(d):
    try:
        spec = CampaignSpec.from_dict(d)
    except CampaignError:
        return None
    # anything accepted must round-trip through its own JSON form
    assert CampaignSpec.from_dict(
        json.loads(json.dumps(spec.to_dict()))) == spec
    return spec


@settings(max_examples=150, deadline=None)
@given(_JSON)
def test_fuzz_arbitrary_json(value):
    _check(value)


@settings(max_examples=150, deadline=None)
@given(st.dictionaries(_SPEC_KEYS, _JSON, max_size=6))
def test_fuzz_spec_shaped_json(d):
    _check(d)


@settings(max_examples=100, deadline=None)
@given(job=st.dictionaries(_SPEC_KEYS, _JSON, max_size=6),
       sweep=st.dictionaries(_SPEC_KEYS, _JSON, max_size=6))
def test_fuzz_hostile_jobs_and_sweeps(job, sweep):
    """A well-formed envelope with hostile job/sweep entries inside."""
    _check({"name": "fuzz", "master_seed": 7,
            "jobs": [job], "sweeps": [sweep]})
