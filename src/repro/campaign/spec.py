"""Declarative campaign and job specifications.

A campaign is a named set of Monte-Carlo jobs over the repo's link
runners — the W-CDMA DPCH closed loop, the 802.11a OFDM decode chain
and the rake finger scenarios.  Each job is one operating point (one
combination of sweep-axis values) that fans out into ``shards``
independent shards at execution time; a sweep is the cross product of
axes expanded into jobs at parse time, so everything downstream of the
spec deals only in the flat job list.

The spec is pure data: :meth:`CampaignSpec.to_dict` /
:meth:`CampaignSpec.from_dict` round-trip through JSON, and
:meth:`CampaignSpec.fingerprint` hashes the canonical form so a
checkpoint can refuse to resume under a different spec.
"""

from __future__ import annotations

import dataclasses
import hashlib
import itertools
import json
from dataclasses import dataclass, field
from typing import Optional

from repro.schema import check_keys


class CampaignError(ValueError):
    """A campaign spec, checkpoint or run is invalid.

    A :class:`ValueError`: loaders promise hostile JSON surfaces as a
    structured error, never as a crash, and ``ValueError`` is the
    contract the fuzz suite holds them to.
    """


#: Job kinds the runner registry accepts (see
#: :data:`repro.campaign.runners.RUNNERS`).
KINDS = ("wcdma_dpch", "ofdm_link", "rake_scenarios", "fault", "chaos")

#: Simulator backends a job may pin (see
#: :data:`repro.xpp.scheduler._SCHEDULERS`); the shard runner exports
#: the choice through ``REPRO_XPP_SCHEDULER``.
BACKENDS = ("naive", "event", "fastpath")

#: The jobs a backend can affect (see :attr:`JobSpec.uses_array`).
ARRAY_JOBS = "chaos jobs and ofdm_link jobs with receiver 'array'"

#: The top-level keys each spec mapping accepts; anything else is a
#: misspelling that would otherwise silently run a default.
CAMPAIGN_KEYS = ("name", "master_seed", "jobs", "sweeps")
JOB_KEYS = ("job_id", "kind", "params", "shards", "early_stop",
            "timeout_s", "backend")
SWEEP_KEYS = ("name", "kind", "base", "axes", "shards", "early_stop",
              "timeout_s", "backend")
EARLY_STOP_KEYS = ("min_error_events", "target_rel_err")


@dataclass(frozen=True)
class EarlyStop:
    """Stop adding shards to a job once its primary error-rate estimate
    is good enough.

    Either bound may be set; the job stops at the first shard after
    which **any** configured criterion holds:

    * ``min_error_events`` — at least this many primary error events
      (bit errors, packet errors) have been observed;
    * ``target_rel_err`` — the Wilson half-width over the point
      estimate has dropped to this relative error or below.

    The decision is evaluated over shards **in shard-index order**
    (see :func:`repro.campaign.aggregate.included_prefix`), never over
    completion order, so aggregates stay identical for any worker
    count.
    """

    min_error_events: Optional[int] = None
    target_rel_err: Optional[float] = None

    def __post_init__(self) -> None:
        if self.min_error_events is None and self.target_rel_err is None:
            raise CampaignError("early_stop: set min_error_events and/or "
                                "target_rel_err")
        if self.min_error_events is not None and self.min_error_events < 1:
            raise CampaignError("early_stop: min_error_events must be >= 1")
        if self.target_rel_err is not None and not 0 < self.target_rel_err:
            raise CampaignError("early_stop: target_rel_err must be > 0")

    def to_dict(self) -> dict:
        out = {}
        if self.min_error_events is not None:
            out["min_error_events"] = self.min_error_events
        if self.target_rel_err is not None:
            out["target_rel_err"] = self.target_rel_err
        return out

    @classmethod
    def from_dict(cls, d: Optional[dict]) -> Optional["EarlyStop"]:
        if d is None:
            return None
        check_keys(d, EARLY_STOP_KEYS, "early_stop", CampaignError)
        return cls(min_error_events=d.get("min_error_events"),
                   target_rel_err=d.get("target_rel_err"))


@dataclass(frozen=True)
class JobSpec:
    """One operating point of a campaign."""

    job_id: str
    kind: str
    params: tuple = ()          # sorted ((name, value), ...) pairs
    shards: int = 1
    early_stop: Optional[EarlyStop] = None
    timeout_s: Optional[float] = None
    backend: str = "event"      # simulator scheduler for array runs

    def __post_init__(self) -> None:
        if self.kind not in KINDS:
            raise CampaignError(f"unknown job kind {self.kind!r}; "
                                f"expected one of {KINDS}")
        if self.shards < 1:
            raise CampaignError(f"job {self.job_id!r}: shards must be >= 1")
        if self.backend not in BACKENDS:
            raise CampaignError(f"job {self.job_id!r}: unknown backend "
                                f"{self.backend!r}; expected one of "
                                f"{BACKENDS}")
        if self.backend != "event" and not self.uses_array:
            raise CampaignError(f"job {self.job_id!r}: backend "
                                f"{self.backend!r} has no effect on a "
                                f"{self.kind} job; it applies only to "
                                f"{ARRAY_JOBS}")

    @property
    def param_dict(self) -> dict:
        return dict(self.params)

    @property
    def uses_array(self) -> bool:
        """Whether the job runs kernels on the simulated array — the
        only jobs whose results a ``backend`` can reach."""
        return self.kind == "chaos" or (
            self.kind == "ofdm_link"
            and self.param_dict.get("receiver") == "array")

    def to_dict(self) -> dict:
        out = {"job_id": self.job_id, "kind": self.kind,
               "params": self.param_dict, "shards": self.shards}
        if self.early_stop is not None:
            out["early_stop"] = self.early_stop.to_dict()
        if self.timeout_s is not None:
            out["timeout_s"] = self.timeout_s
        if self.backend != "event":
            # emitted only when non-default so the canonical form — and
            # with it every existing fingerprint — is unchanged
            out["backend"] = self.backend
        return out

    @classmethod
    def from_dict(cls, d: dict) -> "JobSpec":
        if not isinstance(d, dict):
            raise CampaignError(f"job spec must be a mapping, "
                                f"got {type(d).__name__}")
        if "job_id" not in d or "kind" not in d:
            raise CampaignError("job spec needs 'job_id' and 'kind'")
        check_keys(d, JOB_KEYS, f"job {d['job_id']!r}", CampaignError)
        early = d.get("early_stop")
        if early is not None and not isinstance(early, dict):
            raise CampaignError("'early_stop' must be a mapping")
        return cls(job_id=str(d["job_id"]), kind=str(d["kind"]),
                   params=_freeze_params(d.get("params", {})),
                   shards=int(d.get("shards", 1)),
                   early_stop=EarlyStop.from_dict(early),
                   timeout_s=d.get("timeout_s"),
                   backend=str(d.get("backend", "event")))


@dataclass(frozen=True)
class CampaignSpec:
    """A named, seeded set of jobs."""

    name: str
    master_seed: int
    jobs: tuple = field(default_factory=tuple)

    def __post_init__(self) -> None:
        if not self.jobs:
            raise CampaignError(f"campaign {self.name!r} has no jobs")
        ids = [j.job_id for j in self.jobs]
        dupes = {i for i in ids if ids.count(i) > 1}
        if dupes:
            raise CampaignError(f"duplicate job ids: {sorted(dupes)}")

    @property
    def total_shards(self) -> int:
        return sum(j.shards for j in self.jobs)

    def to_dict(self) -> dict:
        return {"name": self.name, "master_seed": self.master_seed,
                "jobs": [j.to_dict() for j in self.jobs]}

    def with_backend(self, backend: str) -> "CampaignSpec":
        """A copy of this campaign with every job that runs the array
        pinned to ``backend`` (a CLI ``--backend`` override); other
        jobs are left as they are, and a campaign with no such job is
        refused.  Changing the backend changes the fingerprint, so a
        checkpoint recorded under one simulator backend refuses to
        resume under another."""
        if not any(j.uses_array for j in self.jobs):
            raise CampaignError(f"campaign {self.name!r}: backend has no "
                                f"effect; it applies only to {ARRAY_JOBS}")
        jobs = tuple(dataclasses.replace(j, backend=backend)
                     if j.uses_array else j for j in self.jobs)
        return dataclasses.replace(self, jobs=jobs)

    def fingerprint(self) -> str:
        """Hash of the canonical spec; sharding and checkpoints key off
        it, so any change to jobs, seed or shard counts is a different
        campaign."""
        canon = json.dumps(self.to_dict(), sort_keys=True,
                           separators=(",", ":"))
        return hashlib.sha256(canon.encode()).hexdigest()[:16]

    @classmethod
    def from_dict(cls, d: dict) -> "CampaignSpec":
        """Build a spec from its JSON form, expanding any ``sweeps``.

        A sweep entry looks like::

            {"name": "dpch", "kind": "wcdma_dpch",
             "base": {"slot_format": 11, "n_slots": 30},
             "axes": {"snr_db": [0, 3, 6]},
             "shards": 4,
             "early_stop": {"min_error_events": 200}}

        and expands to one job per point of the axis cross product, in
        axis-declaration order, with ids like ``dpch/snr_db=3``.
        """
        if not isinstance(d, dict):
            raise CampaignError(f"campaign spec must be a mapping, "
                                f"got {type(d).__name__}")
        check_keys(d, CAMPAIGN_KEYS, "campaign spec", CampaignError)
        try:
            jobs_in = d.get("jobs", [])
            if not isinstance(jobs_in, (list, tuple)):
                raise CampaignError("'jobs' must be a list of job specs")
            jobs = [JobSpec.from_dict(j) for j in jobs_in]
            sweeps = d.get("sweeps", [])
            if not isinstance(sweeps, (list, tuple)):
                raise CampaignError("'sweeps' must be a list of sweeps")
            for sweep in sweeps:
                jobs.extend(expand_sweep(sweep))
            name = d.get("name")
            if not name or not isinstance(name, str):
                raise CampaignError("campaign spec needs a name")
            if "master_seed" not in d:
                raise CampaignError("campaign spec needs a master_seed")
            return cls(name=str(name), master_seed=int(d["master_seed"]),
                       jobs=tuple(jobs))
        except CampaignError:
            raise
        except (KeyError, TypeError, AttributeError, ValueError) as exc:
            # hostile JSON shapes (strings where mappings belong, lists
            # as scalars, words where numbers belong) must surface
            # structured, never as a crash
            raise CampaignError(
                f"malformed campaign spec: {type(exc).__name__}: "
                f"{exc}") from exc

    @classmethod
    def load(cls, path) -> "CampaignSpec":
        with open(path) as fh:
            return cls.from_dict(json.load(fh))


def expand_sweep(sweep: dict) -> list:
    """Cross-product a sweep declaration into concrete :class:`JobSpec`
    points."""
    if not isinstance(sweep, dict):
        raise CampaignError(f"sweep must be a mapping, "
                            f"got {type(sweep).__name__}")
    check_keys(sweep, SWEEP_KEYS, f"sweep {sweep.get('name')!r}",
               CampaignError)
    kind = sweep.get("kind")
    if kind not in KINDS:
        raise CampaignError(f"sweep kind {kind!r} unknown")
    prefix = sweep.get("name", kind)
    base = sweep.get("base", {})
    if not isinstance(base, dict):
        raise CampaignError("sweep 'base' must be a mapping")
    base = dict(base)
    axes = sweep.get("axes", {})
    if not isinstance(axes, dict) or \
            any(not isinstance(v, (list, tuple)) for v in axes.values()):
        raise CampaignError("sweep 'axes' must map names to value lists")
    early = EarlyStop.from_dict(sweep.get("early_stop"))
    shards = int(sweep.get("shards", 1))
    timeout_s = sweep.get("timeout_s")
    backend = str(sweep.get("backend", "event"))
    if not axes:
        return [JobSpec(job_id=prefix, kind=kind,
                        params=_freeze_params(base), shards=shards,
                        early_stop=early, timeout_s=timeout_s,
                        backend=backend)]
    names = list(axes)
    jobs = []
    for values in itertools.product(*(axes[n] for n in names)):
        params = dict(base)
        params.update(zip(names, values))
        point = ",".join(f"{n}={v}" for n, v in zip(names, values))
        jobs.append(JobSpec(job_id=f"{prefix}/{point}", kind=kind,
                            params=_freeze_params(params), shards=shards,
                            early_stop=early, timeout_s=timeout_s,
                            backend=backend))
    return jobs


def _freeze_params(params: dict) -> tuple:
    """Sorted hashable param pairs; values must be JSON scalars."""
    if not isinstance(params, dict):
        raise CampaignError(f"params must be a mapping, "
                            f"got {type(params).__name__}")
    for k, v in params.items():
        if not isinstance(v, (str, int, float, bool, type(None))):
            raise CampaignError(f"param {k!r} must be a JSON scalar, "
                                f"got {type(v).__name__}")
    return tuple(sorted(params.items()))
