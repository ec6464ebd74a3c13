"""Append-only JSON-lines logs: the one writer and the one reader.

The campaign checkpoint (:mod:`repro.campaign.checkpoint`), the
campaign lifecycle event log (:class:`repro.telemetry.flight.EventLog`)
and the serve journal (:class:`repro.serve.journal.ServeJournal`) are
all JSONL files that a killed writer can tear.  They share one
discipline:

* **Writing** — each record is one ``\\n``-terminated line, written
  with a single ``write()`` and flushed, in append mode.  A crash loses
  at most the line in flight, and concurrent appenders interleave at
  line granularity.  A writer that opens a file whose last byte is not
  ``\\n`` — the torn tail of a killed run — first terminates that line,
  so its own records never merge into the fragment.
* **Reading** — a line that does not decode to a JSON object is
  skipped, not treated as the end of the file: intact records can
  follow a torn one (another appender's, or a resumed run's).
"""

from __future__ import annotations

import json
import os
import time


class JsonlLog:
    """Append-only JSONL writer; the file is opened on the first record."""

    def __init__(self, path):
        self.path = os.fspath(path)
        self._fh = None

    def append(self, rec: dict) -> None:
        """Write ``rec`` as one line and flush it."""
        if self._fh is None:
            self._fh = open(self.path, "a")
            if self._fh.tell() and not _ends_with_newline(self.path):
                self._fh.write("\n")    # terminate a torn tail
        self._fh.write(json.dumps(rec, sort_keys=True) + "\n")
        self._fh.flush()

    def emit(self, event: str, **fields) -> dict:
        """Append an ``event`` record stamped with wall-clock ``t``."""
        rec = {"t": round(time.time(), 3), "event": event, **fields}
        self.append(rec)
        return rec

    def close(self) -> None:
        if self._fh is not None:
            self._fh.close()
            self._fh = None

    def __enter__(self):
        return self

    def __exit__(self, *exc) -> None:
        self.close()


def _ends_with_newline(path) -> bool:
    with open(path, "rb") as fh:
        fh.seek(-1, os.SEEK_END)
        return fh.read(1) == b"\n"


def read_jsonl(path) -> list:
    """Every intact record (a line holding a JSON object) of a log, in
    file order; ``[]`` if the file does not exist."""
    if not os.path.exists(path):
        return []
    records = []
    with open(path) as fh:
        for line in fh:
            try:
                rec = json.loads(line)
            except json.JSONDecodeError:
                continue                # torn line from a killed writer
            if isinstance(rec, dict):
                records.append(rec)
    return records
