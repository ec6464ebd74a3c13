"""The serve journal: multi-appender JSONL with torn-tail tolerance.

The broker and every shard append to one journal; a killed writer can
leave a torn line *anywhere*, not just at EOF (an appender that already
had the file open writes straight after the fragment).  Reading must
skip garbage lines and keep every intact record — these tests pin that
discipline down, including a real kill -9 mid-write.
"""

import json
import os
import signal
import time

from repro.pool import resolve_mp_context
from repro.serve.journal import (
    ServeJournal,
    clear_drain,
    drain_requested,
    journal_summary,
    read_journal,
    recover_sessions,
    request_drain,
)


class TestAppendRead:
    def test_roundtrip(self, tmp_path):
        path = tmp_path / "j.jsonl"
        with ServeJournal(path) as journal:
            journal.emit("session_admitted", session_id="a", spec={})
            journal.emit("shard_step", shard=0, sessions=1)
        records = read_journal(path)
        assert [r["event"] for r in records] \
            == ["session_admitted", "shard_step"]
        assert all("t" in r for r in records)

    def test_missing_file_reads_empty(self, tmp_path):
        assert read_journal(tmp_path / "absent.jsonl") == []

    def test_interleaved_appenders_all_survive(self, tmp_path):
        path = tmp_path / "j.jsonl"
        a, b = ServeJournal(path), ServeJournal(path)
        for i in range(10):
            (a if i % 2 == 0 else b).emit("shard_step", shard=i % 2,
                                          step=i)
        a.close()
        b.close()
        records = read_journal(path)
        assert [r["step"] for r in records] == list(range(10))


class TestTornTail:
    def test_torn_line_mid_file_is_skipped(self, tmp_path):
        """A writer killed mid-write leaves a partial line; the next
        appender to open the file terminates it first, so only the
        fragment is lost and every record on either side survives."""
        path = tmp_path / "j.jsonl"
        with open(path, "w") as fh:
            fh.write(json.dumps({"event": "session_admitted",
                                 "session_id": "a", "spec": {}}) + "\n")
            fh.write('{"event": "shard_st')     # killed mid-write
        with ServeJournal(path) as journal:     # another appender
            journal.emit("shard_step", shard=1, step=7)
            journal.emit("session_complete", session_id="a", digest="d")
        records = read_journal(path)
        assert [r["event"] for r in records] \
            == ["session_admitted", "shard_step", "session_complete"]

    def test_truncated_tail_is_skipped(self, tmp_path):
        path = tmp_path / "j.jsonl"
        with ServeJournal(path) as journal:
            for i in range(3):
                journal.emit("shard_step", shard=0, step=i)
        with open(path, "a") as fh:
            fh.write('{"event": "shard_step", "sha')   # torn at EOF
        records = read_journal(path)
        assert [r["step"] for r in records] == [0, 1, 2]

    def test_non_event_lines_are_skipped(self, tmp_path):
        path = tmp_path / "j.jsonl"
        with open(path, "w") as fh:
            fh.write("[1, 2, 3]\n")             # valid JSON, not a record
            fh.write("\n")
            fh.write(json.dumps({"event": "shard_step", "step": 0}) + "\n")
        records = read_journal(path)
        assert [r["event"] for r in records] == ["shard_step"]

    def test_kill_9_mid_write_leaves_readable_journal(self, tmp_path):
        """A real SIGKILL while a child floods the journal: whatever
        landed on disk parses, modulo at most torn lines."""
        path = tmp_path / "j.jsonl"

        def flood(conn):
            journal = ServeJournal(path)
            conn.send("go")
            i = 0
            while True:
                journal.emit("shard_step", shard=0, step=i,
                             pad="x" * 256)
                i += 1

        ctx = resolve_mp_context()
        parent, child = ctx.Pipe()
        proc = ctx.Process(target=flood, args=(child,))
        proc.start()
        child.close()
        parent.recv()                           # writer is running
        time.sleep(0.1)
        os.kill(proc.pid, signal.SIGKILL)
        proc.join()
        with ServeJournal(path) as journal:     # service lives on
            journal.emit("session_complete", session_id="z", digest="d")
        records = read_journal(path)
        assert records, "no intact records survived"
        steps = [r["step"] for r in records if r["event"] == "shard_step"]
        assert steps == sorted(steps)
        assert records[-1]["event"] == "session_complete"


class TestRecovery:
    def test_recover_latest_checkpoint_wins(self, tmp_path):
        path = tmp_path / "j.jsonl"
        spec = {"session_id": "a", "kind": "rake"}
        with ServeJournal(path) as journal:
            journal.emit("session_admitted", session_id="a", spec=spec)
            journal.emit("session_checkpoint", session_id="a",
                         state={"slot_cursor": 2, "digest": "x"})
            journal.emit("session_checkpoint", session_id="a",
                         state={"slot_cursor": 4, "digest": "y"})
            journal.emit("session_admitted", session_id="b", spec=spec)
        fates = recover_sessions(read_journal(path))
        assert fates["a"]["state"]["slot_cursor"] == 4
        assert not fates["a"]["complete"]
        assert fates["b"]["state"] is None

    def test_complete_session_recorded_with_digest(self, tmp_path):
        path = tmp_path / "j.jsonl"
        with ServeJournal(path) as journal:
            journal.emit("session_admitted", session_id="a", spec={})
            journal.emit("session_complete", session_id="a",
                         digest="abc123")
        fates = recover_sessions(read_journal(path))
        assert fates["a"]["complete"]
        assert fates["a"]["digest"] == "abc123"

    def test_summary_counts(self, tmp_path):
        path = tmp_path / "j.jsonl"
        with ServeJournal(path) as journal:
            journal.emit("session_admitted", session_id="a", spec={})
            journal.emit("session_admitted", session_id="b", spec={})
            journal.emit("session_shed", session_id="c", reason="full")
            journal.emit("shard_dead", shard=0, reason="EOF")
            journal.emit("session_migrated", session_id="a",
                         from_shard=0)
            journal.emit("session_complete", session_id="a", digest="d")
            journal.emit("progress", completed=1, admitted=2,
                         sessions_per_s=1.5, slots_per_s=6.0,
                         p95_slot_s=0.1)
        summary = journal_summary(read_journal(path))
        assert summary["admitted"] == 2
        assert summary["complete"] == 1
        assert summary["active"] == 1
        assert summary["shed"] == 1
        assert summary["migrations"] == 1
        assert summary["shard_deaths"] == 1
        assert summary["progress"]["sessions_per_s"] == 1.5


class TestDrainFlag:
    def test_request_poll_clear(self, tmp_path):
        journal = tmp_path / "j.jsonl"
        assert not drain_requested(journal)
        request_drain(journal)
        assert drain_requested(journal)
        clear_drain(journal)
        assert not drain_requested(journal)
        clear_drain(journal)                    # idempotent
