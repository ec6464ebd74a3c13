"""JSON-lines checkpointing: crash-safe progress, exact resume.

The checkpoint is an append-only ``.jsonl`` file (:mod:`repro.jsonl`):
a header line binding it to one spec fingerprint, then one line per
finished shard (successful, failed-after-retries, or skipped by early
stop).  Append + flush after every shard means a killed run loses at
most the shard in flight; a torn line (the kill landed mid-write) is
skipped on load and terminated before the resumed run appends.

Resume is exact by construction: finished shards are skipped, the
shards that do run draw the same per-shard seed streams they always
would (:mod:`repro.campaign.sharding`), and the aggregate folds shards
in index order — so a resumed campaign's results are byte-identical to
an uninterrupted run's.
"""

from __future__ import annotations

import os
from typing import Optional

from repro.campaign.spec import CampaignError, CampaignSpec
from repro.jsonl import JsonlLog, read_jsonl

FORMAT_VERSION = 1


class Checkpoint:
    """Append-only shard-outcome log bound to one spec fingerprint."""

    def __init__(self, path, spec: CampaignSpec):
        self.path = os.fspath(path)
        self.fingerprint = spec.fingerprint()
        self._log = JsonlLog(self.path)
        self._needs_header = None       # unknown until load()

    # -- loading ------------------------------------------------------------

    def load(self) -> list:
        """Previously recorded outcome dicts, validating the header.

        Returns ``[]`` if the file holds no intact record yet.  Raises
        :class:`CampaignError` if the first intact record is not a
        header for this spec.
        """
        records = read_jsonl(self.path)
        self._needs_header = not records
        if not records:
            return []
        header = records[0]
        if header.get("type") != "header":
            raise CampaignError(f"{self.path}: not a campaign checkpoint")
        if header.get("fingerprint") != self.fingerprint:
            raise CampaignError(
                f"{self.path}: checkpoint fingerprint "
                f"{header.get('fingerprint')} does not match spec "
                f"{self.fingerprint}; refusing to mix campaigns")
        return [rec for rec in records[1:] if rec.get("type") == "shard"]

    # -- appending ----------------------------------------------------------

    def append(self, outcome) -> None:
        """Record one finished shard (a
        :class:`~repro.campaign.pool.ShardOutcome`)."""
        if self._needs_header is None:
            self.load()
        if self._needs_header:
            self._log.append({"type": "header", "version": FORMAT_VERSION,
                              "fingerprint": self.fingerprint})
            self._needs_header = False
        self._log.append({"type": "shard", **outcome.to_dict()})

    def close(self) -> None:
        self._log.close()

    def __enter__(self) -> "Checkpoint":
        return self

    def __exit__(self, *exc) -> None:
        self.close()


def open_checkpoint(path: Optional[str], spec: CampaignSpec):
    """``(checkpoint, done records)`` — both empty when ``path`` is
    None (checkpointing disabled)."""
    if path is None:
        return None, []
    ck = Checkpoint(path, spec)
    return ck, ck.load()
