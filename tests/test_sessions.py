"""Session store: typed history, skill state, and crash-safe persistence."""

import contextlib
import errno
import io
import json
import os
import stat
import tempfile
import threading
from dataclasses import asdict
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

from skillet import EventKind, SessionStatus, SessionStore, UsageLog
from skillet.backends import ModelResponse, UsageRecord
from skillet.errors import (
    CorruptStore,
    LogWriteError,
    NotFound,
    OrphanToolResult,
    SessionClosed,
    UnknownParent,
    WorkspaceEscape,
)
from skillet.sessions import JsonlLog, read_log, snapshot_records

from conftest import REPAIR_DONE_WHEN


@pytest.fixture
def store(tmp_path):
    return SessionStore(tmp_path / "store")


@pytest.fixture
def ws(tmp_path):
    root = tmp_path / "ws"
    root.mkdir()
    return root


def make_session(store, ws, **kwargs):
    defaults = dict(task_text="task", task_type="misc", workspace_root=ws, done_when="")
    defaults.update(kwargs)
    return store.create_session(**defaults)


def record_usage(store_dir, session, *usages):
    """Record one model request per (input, output, cache, total) tuple."""
    usage_log = UsageLog(store_dir / "requests.jsonl")
    for usage in usages:
        usage_log.record(session, ModelResponse(usage=UsageRecord("p", "m", *usage)))


def reply(store, session, *usages):
    """Log one assistant_message per (input, output, cache, total) tuple, as
    the planner logs a model's reply with its request's usage."""
    for usage in usages:
        store.append_event(session.session_id, EventKind.ASSISTANT_MESSAGE,
                           {"text": "r", "tool_call": None, "usage": list(usage)})


class TestCreate:
    def test_top_level_session(self, store, ws):
        s = make_session(store, ws)
        assert s.parent_id is None
        assert s.status is SessionStatus.ACTIVE
        assert [e.kind for e in s.history] == [EventKind.USER_MESSAGE]
        assert s.history[0].payload["text"] == "task"

    def test_child_in_subdir(self, store, ws):
        parent = make_session(store, ws)
        sub = ws / "sub"
        sub.mkdir()
        child = make_session(store, sub, parent_id=parent.session_id)
        assert child.parent_id == parent.session_id

    def test_child_escaping_parent_root(self, store, ws, tmp_path):
        parent = make_session(store, ws)
        outside = tmp_path / "elsewhere"
        outside.mkdir()
        with pytest.raises(WorkspaceEscape):
            make_session(store, outside, parent_id=parent.session_id)

    def test_unknown_parent(self, store, ws):
        with pytest.raises(UnknownParent):
            make_session(store, ws, parent_id="s9999")

    def test_session_ids_are_deterministic(self, store, ws):
        assert make_session(store, ws).session_id == "s0001"
        assert make_session(store, ws).session_id == "s0002"

    def test_meta_record_holds_the_required_artifacts(self, store, ws):
        s = make_session(store, ws, done_when=REPAIR_DONE_WHEN)
        meta = read_log(store.store_dir, s.session_id)[1][0]
        assert meta["kind"] == "session_meta"
        assert meta["required_artifacts"] == ["out/report.md"]
        assert s.required_artifacts == ["out/report.md"]
        assert SessionStore(store.store_dir).session(s.session_id).required_artifacts == \
            ["out/report.md"]

    def test_a_meta_record_without_required_artifacts_requires_none(self, store, ws):
        # a log written before the meta record held them
        s = make_session(store, ws, done_when="write `out/report.md`")
        path = store.sessions_dir / f"{s.session_id}.log"
        meta, rest = path.read_text().split("\n", 1)
        record = json.loads(meta)
        del record["required_artifacts"]
        path.write_text(json.dumps(record) + "\n" + rest)
        assert SessionStore(store.store_dir).session(s.session_id).required_artifacts == []


class TestAppend:
    def test_seqs_are_consecutive(self, store, ws):
        s = make_session(store, ws)
        a = store.append_event(s.session_id, EventKind.ASSISTANT_MESSAGE, {"text": "hi"})
        b = store.append_event(s.session_id, EventKind.SYSTEM_NOTE, {"note": "n"})
        assert (a, b) == (2, 3)

    def test_orphan_tool_result(self, store, ws):
        s = make_session(store, ws)
        with pytest.raises(OrphanToolResult):
            store.append_event(s.session_id, EventKind.TOOL_RESULT,
                               {"call_id": "call-9", "name": "x", "ok": True, "output": {}})

    def test_result_after_matching_call(self, store, ws):
        s = make_session(store, ws)
        store.append_event(s.session_id, EventKind.TOOL_CALL,
                           {"name": "x", "args": {}, "call_id": "call-1", "accepted": True})
        store.append_event(s.session_id, EventKind.TOOL_RESULT,
                           {"call_id": "call-1", "name": "x", "ok": True, "output": {}})

    def test_closed_session_rejects_appends(self, store, ws):
        s = make_session(store, ws)
        store.append_event(s.session_id, EventKind.COMPLETION, {"report_text": "done"})
        store.set_status(s.session_id, SessionStatus.COMPLETED)
        with pytest.raises(SessionClosed):
            store.append_event(s.session_id, EventKind.SYSTEM_NOTE, {"note": "late"})

    def test_at_most_one_completion(self, store, ws):
        s = make_session(store, ws)
        store.append_event(s.session_id, EventKind.COMPLETION, {"report_text": "a"})
        with pytest.raises(SessionClosed):
            store.append_event(s.session_id, EventKind.COMPLETION, {"report_text": "b"})

    @pytest.mark.parametrize("closed", [SessionStatus.COMPLETED, SessionStatus.FAILED])
    def test_a_closed_session_stays_closed(self, tmp_path, store, ws, closed):
        s = make_session(store, ws)
        if closed is SessionStatus.COMPLETED:
            store.append_event(s.session_id, EventKind.COMPLETION, {"report_text": "a"})
        else:
            store.set_status(s.session_id, closed)
        log = tmp_path / "store" / "sessions" / f"{s.session_id}.log"
        before = log.read_bytes()
        for status in SessionStatus:
            if status is not closed:
                with pytest.raises(SessionClosed):
                    store.set_status(s.session_id, status)
        with pytest.raises(SessionClosed):
            store.append_event(s.session_id, EventKind.COMPLETION, {"report_text": "b"})
        with pytest.raises(SessionClosed):
            store.put_skill_state(s.session_id, "repair", {"phase": "late"})
        assert log.read_bytes() == before
        assert SessionStore(tmp_path / "store").session(s.session_id).status is closed

    def test_unknown_session(self, store):
        with pytest.raises(NotFound):
            store.append_event("s0404", EventKind.SYSTEM_NOTE, {})


class TestLiveEqualsReload:
    """Every write folds its record into the live session exactly as a
    reload of the log does."""

    def write(self, store, s, kind):
        if kind == "append":
            store.append_event(s.session_id, EventKind.ASSISTANT_MESSAGE, {"text": "hi"})
        elif kind == "completion":
            store.append_event(s.session_id, EventKind.COMPLETION, {"report_text": "r"})
        elif kind == "put_skill_state":
            doc = {"phase": "patch"}
            store.put_skill_state(s.session_id, "repair", doc)
            doc["phase"] = "changed after the put"  # the caller's dict is not the state
        elif kind == "set_status":
            store.set_status(s.session_id, SessionStatus.AWAITING_FOLLOWUP)

    @pytest.mark.parametrize("kind", ["create", "append", "completion",
                                      "put_skill_state", "set_status"])
    def test_live_session_equals_its_reload(self, tmp_path, ws, store, kind):
        s = make_session(store, ws)
        self.write(store, s, kind)
        again = SessionStore(tmp_path / "store").session(s.session_id)
        assert [(e.seq, e.kind, e.payload) for e in s.history] == \
            [(e.seq, e.kind, e.payload) for e in again.history]
        assert s.skill_state == again.skill_state
        assert s.status is again.status


class TestDurability:
    @pytest.fixture
    def fsyncs(self, monkeypatch):
        """The kind ("file" or "dir") and inode of every fsync, in order."""
        synced = []
        real_fsync = os.fsync

        def fsync(fd):
            st = os.fstat(fd)
            synced.append(("dir" if stat.S_ISDIR(st.st_mode) else "file", st.st_ino))
            real_fsync(fd)

        monkeypatch.setattr(os, "fsync", fsync)
        return synced

    @staticmethod
    def own_log(store, s):
        """What `fsyncs` records for an fsync of the session's own log."""
        return ("file", os.stat(store.sessions_dir / f"{s.session_id}.log").st_ino)

    def test_new_log_is_synced_once_and_then_its_name(self, store, ws, fsyncs):
        s = make_session(store, ws)
        assert fsyncs == [self.own_log(store, s), ("dir", os.stat(store.sessions_dir).st_ino)]
        again = read_log(store.store_dir, s.session_id)[0]
        assert [(e.seq, e.kind, e.payload) for e in again.history] == \
            [(1, EventKind.USER_MESSAGE, {"text": "task"})]

    def test_a_batch_defers_only_its_own_threads_fsyncs(self, store, ws, fsyncs):
        s = make_session(store, ws)
        log = self.own_log(store, s)
        del fsyncs[:]
        note = {"note": "n"}
        with store.batch(s.session_id):
            store.append_event(s.session_id, EventKind.SYSTEM_NOTE, note)
            store.set_status(s.session_id, SessionStatus.AWAITING_FOLLOWUP)
            assert fsyncs == []
            other = threading.Thread(target=store.append_event,
                                     args=(s.session_id, EventKind.SYSTEM_NOTE, note))
            other.start()
            other.join(10)
            assert not other.is_alive()
            assert fsyncs == [log]  # another thread's write is durable when it returns
            store.sync(s.session_id)
            # that fsync, through another descriptor of the same file, covered
            # this thread's writes too
            assert fsyncs == [log]
            store.append_event(s.session_id, EventKind.SYSTEM_NOTE, note)
            store.sync(s.session_id)
            assert fsyncs == [log] * 2
            store.append_event(s.session_id, EventKind.SYSTEM_NOTE, note)
        assert fsyncs == [log] * 3  # leaving the batch syncs
        store.append_event(s.session_id, EventKind.SYSTEM_NOTE, note)
        assert fsyncs == [log] * 4  # outside a batch every write syncs

    def test_closing_a_log_in_a_batch_syncs_it(self, store, ws, fsyncs):
        s = make_session(store, ws)
        log = self.own_log(store, s)
        del fsyncs[:]
        with store.batch(s.session_id):
            store.append_event(s.session_id, EventKind.SYSTEM_NOTE, {"note": "n"})
            store.append_event(s.session_id, EventKind.COMPLETION, {"report_text": "r"})
            assert fsyncs == [log]  # completing the session is a durability point
        assert fsyncs == [log]


class TestFailedAppends:
    """A session-log append whose write or fsync fails leaves the log as it
    was, so a reopened store holds what the live one folded in."""

    @staticmethod
    def fail_next_fsync(monkeypatch):
        """The next fsync raises EIO; the ones after it run."""
        pending = [OSError(errno.EIO, "Input/output error")]
        real_fsync = os.fsync

        def fsync(fd):
            if pending:
                raise pending.pop()
            real_fsync(fd)

        monkeypatch.setattr(os, "fsync", fsync)

    def test_a_failed_fsync_outside_a_batch_leaves_no_record(self, tmp_path, ws, store,
                                                             monkeypatch):
        s = make_session(store, ws)
        self.fail_next_fsync(monkeypatch)
        with pytest.raises(OSError):
            store.append_event(s.session_id, EventKind.SYSTEM_NOTE, {"i": 0})
        assert store.append_event(s.session_id, EventKind.SYSTEM_NOTE, {"i": 1}) == 2
        again = SessionStore(tmp_path / "store").session(s.session_id)
        assert [(e.seq, e.kind, e.payload) for e in again.history] == \
            [(e.seq, e.kind, e.payload) for e in s.history]
        assert [e.seq for e in again.history] == [1, 2]  # no seq is used twice

    def test_a_short_write_then_an_error_leaves_no_partial_line(self, tmp_path, ws, store,
                                                                monkeypatch):
        faults = []

        class FaultyLog(io.FileIO):
            def write(self, data):
                fault = faults.pop(0) if faults else None
                if fault == "short":
                    return super().write(data[:len(data) // 2])
                if fault is not None:
                    raise fault
                return super().write(data)

        monkeypatch.setattr("skillet.sessions.open", lambda path, mode, buffering=-1:
                            FaultyLog(path, mode), raising=False)
        s = make_session(store, ws)
        faults += ["short", OSError(errno.ENOSPC, "No space left on device")]
        with pytest.raises(OSError):
            store.append_event(s.session_id, EventKind.SYSTEM_NOTE, {"text": "x" * 100})
        for i in (1, 2):
            store.append_event(s.session_id, EventKind.SYSTEM_NOTE, {"i": i})
        log = tmp_path / "store" / "sessions" / f"{s.session_id}.log"
        assert log.read_bytes().endswith(b"\n")
        again = SessionStore(tmp_path / "store").session(s.session_id)
        assert [(e.seq, e.payload) for e in again.history] == \
            [(1, {"text": "task"}), (2, {"i": 1}), (3, {"i": 2})]

    def test_a_failed_second_append_in_a_batch_ends_the_file_after_the_first(
            self, tmp_path, monkeypatch):
        path = tmp_path / "x.jsonl"
        path.write_bytes(b'{"old": 0}\n')
        faults = []

        class FaultyLog(io.FileIO):
            def write(self, data):
                if faults:  # a short write, then the disk is full
                    faults.clear()
                    super().write(data[:3])
                    raise OSError(errno.ENOSPC, "No space left on device")
                return super().write(data)

        monkeypatch.setattr("skillet.sessions.open", lambda path, mode, buffering=-1:
                            FaultyLog(path, mode), raising=False)
        log = JsonlLog(path, None)
        with log.batch(), log.lock:
            log.append(b'{"first": 1}\n', True)
            faults.append("full")
            with pytest.raises(OSError):
                log.append(b'{"second": 2}\n', True)
        assert path.read_bytes() == b'{"old": 0}\n{"first": 1}\n'

    def test_a_batch_reads_the_files_length_once(self, tmp_path, monkeypatch):
        fstats = []
        real_fstat = os.fstat
        monkeypatch.setattr(os, "fstat", lambda fd: fstats.append(fd) or real_fstat(fd))
        log = JsonlLog(tmp_path / "x.jsonl", None)
        with log.batch(), log.lock:
            for i in range(5):
                log.append(b'{"i": %d}\n' % i, True)
        assert len(fstats) == 1  # at the open; each append adds what it wrote

    def test_a_failed_create_leaves_no_session(self, tmp_path, ws, store, monkeypatch):
        self.fail_next_fsync(monkeypatch)
        with pytest.raises(OSError):
            make_session(store, ws)
        assert store.sessions() == []
        again = SessionStore(tmp_path / "store")
        with pytest.raises(NotFound):
            again.session("s0001")
        assert again.sessions() == []
        assert make_session(again, ws).session_id == "s0002"  # ids are never reused

    def test_a_failed_directory_fsync_on_create_leaves_no_session(self, tmp_path, ws, store,
                                                                  monkeypatch):
        real_fsync = os.fsync

        def fsync(fd):  # the log's fsync succeeds, the fsync of sessions/ fails
            if stat.S_ISDIR(os.fstat(fd).st_mode):
                raise OSError(errno.EIO, "Input/output error")
            real_fsync(fd)

        monkeypatch.setattr(os, "fsync", fsync)
        with pytest.raises(OSError):
            make_session(store, ws)
        monkeypatch.setattr(os, "fsync", real_fsync)
        assert store.sessions() == []
        assert list((tmp_path / "store" / "sessions").iterdir()) == []
        again = SessionStore(tmp_path / "store")
        assert again.sessions() == []
        assert make_session(again, ws).session_id == "s0002"

    def test_a_failed_append_on_create_keeps_no_descriptor_and_warns_no_reopen(
            self, tmp_path, ws, store, monkeypatch, caplog):
        class FullDisk(io.FileIO):
            def write(self, data):
                raise OSError(errno.ENOSPC, "No space left on device")

        monkeypatch.setattr("skillet.sessions.open", lambda path, mode, buffering=-1:
                            FullDisk(path, mode), raising=False)
        baseline = len(os.listdir("/proc/self/fd"))
        with pytest.raises(OSError):
            make_session(store, ws)
        assert len(os.listdir("/proc/self/fd")) == baseline  # closed at once
        assert store._sessions == {}  # nor its JsonlLog, which only a session holds
        monkeypatch.undo()
        caplog.clear()
        again = SessionStore(tmp_path / "store")
        assert again.sessions() == []
        assert make_session(again, ws).session_id == "s0002"
        assert caplog.records == []  # nothing was left for the reopen to quarantine

    def test_a_log_whose_cut_back_failed_takes_no_more_appends(self, tmp_path, ws, store,
                                                               monkeypatch):
        s = make_session(store, ws)
        self.fail_next_fsync(monkeypatch)
        real_ftruncate = os.ftruncate
        failed = []

        def ftruncate(fd, length):
            if not failed:
                failed.append(length)
                raise OSError(errno.EIO, "Input/output error")
            real_ftruncate(fd, length)

        monkeypatch.setattr(os, "ftruncate", ftruncate)
        with pytest.raises(OSError):
            store.append_event(s.session_id, EventKind.SYSTEM_NOTE, {"i": 0})
        # the record stays in the file but was never folded in: a next append
        # would reuse its seq
        with pytest.raises(LogWriteError, match=f"{s.session_id}.log"):
            store.append_event(s.session_id, EventKind.SYSTEM_NOTE, {"i": 1})
        with pytest.raises(LogWriteError):
            store.set_status(s.session_id, SessionStatus.FAILED)
        again = SessionStore(tmp_path / "store")
        seqs = [e.seq for e in again.session(s.session_id).history]
        assert seqs == list(range(1, len(seqs) + 1))  # no seq is used twice
        assert again.append_event(s.session_id, EventKind.SYSTEM_NOTE, {"i": 2}) == 3


class TestSkillState:
    def test_get_before_put_is_empty_doc(self, store, ws):
        s = make_session(store, ws)
        assert store.get_skill_state(s.session_id, "repair") == {}

    def test_round_trip(self, store, ws):
        s = make_session(store, ws)
        doc = {"phase": "patch", "verification_passed": False}
        store.put_skill_state(s.session_id, "repair", doc)
        assert store.get_skill_state(s.session_id, "repair") == doc

    def test_returned_doc_is_a_copy(self, store, ws):
        s = make_session(store, ws)
        store.put_skill_state(s.session_id, "repair", {"phase": "patch"})
        got = store.get_skill_state(s.session_id, "repair")
        got["phase"] = "mutated"
        assert store.get_skill_state(s.session_id, "repair")["phase"] == "patch"

    @settings(max_examples=25, deadline=None)
    @given(writes=st.lists(
        st.tuples(st.sampled_from(["alpha", "beta"]), st.integers(0, 99)),
        min_size=1, max_size=12,
    ))
    def test_isolation_between_skills(self, writes):
        with tempfile.TemporaryDirectory() as tmp:
            ws = Path(tmp) / "ws"
            ws.mkdir()
            store = SessionStore(Path(tmp) / "store", fsync=False)
            s = store.create_session("t", "misc", ws, "")
            last = {}
            for skill_id, value in writes:
                store.put_skill_state(s.session_id, skill_id, {"value": value})
                last[skill_id] = value
            for skill_id, value in last.items():
                assert store.get_skill_state(s.session_id, skill_id) == {"value": value}
            untouched = {"alpha", "beta"} - set(last)
            for skill_id in untouched:
                assert store.get_skill_state(s.session_id, skill_id) == {}


def event_payloads() -> st.SearchStrategy:
    return st.fixed_dictionaries({
        "text": st.text(max_size=40),
        "n": st.integers(-5, 5),
    })


class TestPersistence:
    @settings(max_examples=25, deadline=None)
    @given(payloads=st.lists(event_payloads(), max_size=30))
    def test_round_trip_identity(self, payloads):
        with tempfile.TemporaryDirectory() as tmp:
            ws = Path(tmp) / "ws"
            ws.mkdir()
            store = SessionStore(Path(tmp) / "store", fsync=False)
            s = store.create_session("t", "misc", ws, "d")
            for p in payloads:
                store.append_event(s.session_id, EventKind.ASSISTANT_MESSAGE, p)
            reloaded = SessionStore(Path(tmp) / "store").session(s.session_id)
            assert [(e.seq, e.kind, e.payload) for e in reloaded.history] == \
                   [(e.seq, e.kind, e.payload) for e in s.history]
            assert [e.seq for e in reloaded.history] == \
                   list(range(1, len(reloaded.history) + 1))  # gapless
            assert reloaded.task_text == "t"
            assert reloaded.done_when == "d"

    def test_reload_empty_store(self, tmp_path):
        SessionStore(tmp_path / "store")
        assert SessionStore(tmp_path / "store").sessions() == []

    def test_torn_tail_truncated_with_earlier_records_kept(self, tmp_path, ws, store):
        s = store.create_session("t", "misc", ws, "")
        for i in range(9):
            store.append_event(s.session_id, EventKind.SYSTEM_NOTE, {"i": i})
        log = tmp_path / "store" / "sessions" / f"{s.session_id}.log"
        data = log.read_bytes()
        log.write_bytes(data[:-7])  # cut into the final record
        reloaded = SessionStore(tmp_path / "store").session(s.session_id)
        assert len(reloaded.history) == 9  # initial user_message + 8 notes
        assert reloaded.history[-1].payload == {"i": 7}

    def test_load_leaves_a_torn_tail_on_disk(self, tmp_path, ws, store):
        s = store.create_session("t", "misc", ws, "")
        store.append_event(s.session_id, EventKind.SYSTEM_NOTE, {"i": 0})
        log = tmp_path / "store" / "sessions" / f"{s.session_id}.log"
        log.write_bytes(log.read_bytes()[:-7])
        torn = log.read_bytes()
        # a store opened only to read (a trace) must not cut a record being written
        assert len(SessionStore(tmp_path / "store").session(s.session_id).history) == 1
        assert log.read_bytes() == torn

    def test_first_append_after_reload_starts_on_a_line_of_its_own(self, tmp_path, ws):
        tears = {
            "cut": lambda data: data[:-7],  # cut into the last note
            # a whole last line, newline and all, that does not parse
            "unparseable": lambda data: (data[:data.rindex(b"\n", 0, -1) + 1]
                                         + b'{"seq": 4, "ki\n'),
        }
        for name, tear in tears.items():
            store = SessionStore(tmp_path / name)
            s = store.create_session("t", "misc", ws, "")
            for i in range(3):
                store.append_event(s.session_id, EventKind.SYSTEM_NOTE, {"i": i})
            log = tmp_path / name / "sessions" / f"{s.session_id}.log"
            log.write_bytes(tear(log.read_bytes()))
            reloaded = SessionStore(tmp_path / name)
            seq = reloaded.append_event(s.session_id, EventKind.SYSTEM_NOTE, {"i": "after"})
            assert seq == 4, name
            again = SessionStore(tmp_path / name).session(s.session_id)
            assert [e.payload for e in again.history[1:]] == \
                [{"i": 0}, {"i": 1}, {"i": "after"}], name
            assert [e.seq for e in again.history] == [1, 2, 3, 4], name

    @pytest.mark.skipif(not os.path.isdir("/proc/self/fd"), reason="needs /proc/self/fd")
    def test_a_log_is_open_only_inside_a_batch_from_its_first_write(self, tmp_path, ws):
        def open_fds():
            return len(os.listdir("/proc/self/fd"))

        baseline = open_fds()
        store = SessionStore(tmp_path / "store")
        done, failed, waiting = (make_session(store, ws) for _ in range(3))
        assert open_fds() == baseline  # a create opens and closes its log
        record_usage(tmp_path / "store", done, (1, 1, 0, 2))
        store.append_event(done.session_id, EventKind.COMPLETION, {"report_text": "r"})
        store.set_status(failed.session_id, SessionStatus.FAILED)
        store.put_skill_state(waiting.session_id, "repair", {"phase": "patch"})
        assert open_fds() == baseline  # so does every write outside a batch
        with store.batch(waiting.session_id):
            assert open_fds() == baseline  # nothing is opened before the first write
            store.append_event(waiting.session_id, EventKind.SYSTEM_NOTE, {"note": "n"})
            assert open_fds() == baseline + 1
            store.set_status(waiting.session_id, SessionStatus.AWAITING_FOLLOWUP)
            store.sync(waiting.session_id)
            assert open_fds() == baseline + 1  # the batch's writes share one descriptor
        assert open_fds() == baseline  # leaving the batch closes it
        store.set_status(waiting.session_id, SessionStatus.ACTIVE)
        assert open_fds() == baseline
        reloaded = SessionStore(tmp_path / "store")
        assert [s.status for s in reloaded.sessions()] == [
            SessionStatus.COMPLETED, SessionStatus.FAILED, SessionStatus.ACTIVE]
        assert [e.kind for e in reloaded.session(waiting.session_id).history] == \
            [EventKind.USER_MESSAGE, EventKind.SYSTEM_NOTE]

    def test_open_sessions_hold_no_descriptors(self, tmp_path, ws):
        # the child alone runs under a soft limit of 256 descriptors; a store
        # that kept one per open log would fail with EMFILE past ~250 sessions
        import subprocess
        import sys
        code = (
            "import resource\n"
            "from skillet import SessionStore, EventKind\n"
            "_, hard = resource.getrlimit(resource.RLIMIT_NOFILE)\n"
            "resource.setrlimit(resource.RLIMIT_NOFILE, (256, hard))\n"
            f"store = SessionStore({str(tmp_path / 'store')!r}, fsync=False)\n"
            "for i in range(300):\n"
            f"    s = store.create_session('t', 'misc', {str(ws)!r}, '')\n"
            "    store.append_event(s.session_id, EventKind.SYSTEM_NOTE, {'i': i})\n"
        )
        proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True)
        assert proc.returncode == 0, proc.stderr
        reloaded = SessionStore(tmp_path / "store").sessions()
        assert len(reloaded) == 300
        assert all(len(s.history) == 2 for s in reloaded)

    def test_mid_file_corruption_raises(self, tmp_path, ws, store):
        s = store.create_session("t", "misc", ws, "")
        store.append_event(s.session_id, EventKind.SYSTEM_NOTE, {"i": 0})
        store.append_event(s.session_id, EventKind.SYSTEM_NOTE, {"i": 1})
        log = tmp_path / "store" / "sessions" / f"{s.session_id}.log"
        lines = log.read_bytes().splitlines(keepends=True)
        lines[1] = b'{"seq": 1, "kind": "busted...\n'
        log.write_bytes(b"".join(lines))
        with pytest.raises(CorruptStore):
            SessionStore(tmp_path / "store")

    def test_snapshot_reload_keeps_latest_at_or_before_tail(self, tmp_path, ws, store):
        s = store.create_session("t", "misc", ws, "")
        store.put_skill_state(s.session_id, "repair", {"phase": "reproduce"})
        store.append_event(s.session_id, EventKind.SYSTEM_NOTE, {"i": 0})
        store.put_skill_state(s.session_id, "repair", {"phase": "patch"})
        reloaded = SessionStore(tmp_path / "store").session(s.session_id)
        assert reloaded.skill_state["repair"] == {"phase": "patch"}
        snapshots = snapshot_records(read_log(tmp_path / "store", s.session_id)[1])
        assert [snap["state"]["phase"] for snap in snapshots] == ["reproduce", "patch"]

    def test_snapshots_do_not_consume_history_seqs(self, tmp_path, ws, store):
        s = store.create_session("t", "misc", ws, "")
        store.put_skill_state(s.session_id, "repair", {"phase": "reproduce"})
        seq = store.append_event(s.session_id, EventKind.SYSTEM_NOTE, {})
        assert seq == 2
        seqs = [e.seq for e in s.history]
        assert seqs == list(range(1, len(seqs) + 1))

    def test_usage_totals_survive_reload_via_the_session_log(self, tmp_path, ws, store):
        s = store.create_session("t", "misc", ws, "")
        reply(store, s, (10, 5, 0, 15), (7, 3, 1, 11))
        assert asdict(s.usage) == {"input_tokens": 17, "output_tokens": 8, "cache_tokens": 1,
                                   "total_tokens": 26, "request_count": 2}
        reloaded = SessionStore(tmp_path / "store").session(s.session_id)
        assert asdict(reloaded.usage) == asdict(s.usage)
        store.append_event(s.session_id, EventKind.COMPLETION, {"report_text": "r"})
        assert asdict(s.usage) == asdict(reloaded.usage)  # closing keeps the totals
        closed = SessionStore(tmp_path / "store").session(s.session_id)
        assert closed._usage is None  # built from the log's ends: folded when read
        assert asdict(closed.usage) == asdict(s.usage)

    def test_usage_totals_survive_a_crash_right_after_the_reply_is_logged(self, tmp_path, ws):
        import subprocess
        import sys
        code = (
            "import os\n"
            "from skillet import EventKind, SessionStore\n"
            f"store = SessionStore({str(tmp_path / 'store')!r})\n"
            f"s = store.create_session('t', 'misc', {str(ws)!r}, '')\n"
            "store.append_event(s.session_id, EventKind.ASSISTANT_MESSAGE,\n"
            "                   {'text': 'r', 'tool_call': None, 'usage': [10, 5, 2, 17]})\n"
            "os._exit(1)\n"
        )
        proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True)
        assert proc.returncode == 1, proc.stderr
        usage = SessionStore(tmp_path / "store").session("s0001").usage
        assert asdict(usage) == {"input_tokens": 10, "output_tokens": 5, "cache_tokens": 2,
                                   "total_tokens": 17, "request_count": 1}

    def test_a_torn_reply_counts_no_usage(self, tmp_path, ws, store):
        s = store.create_session("t", "misc", ws, "")
        reply(store, s, (10, 5, 0, 15), (7, 3, 1, 11))
        log = tmp_path / "store" / "sessions" / f"{s.session_id}.log"
        log.write_bytes(log.read_bytes()[:-9])  # cut into the second reply
        reloaded_store = SessionStore(tmp_path / "store")
        reloaded = reloaded_store.session(s.session_id)
        assert (reloaded.usage.total_tokens, reloaded.usage.request_count) == (15, 1)
        # the torn line is cut, so the next record starts on a line of its own
        reply(reloaded_store, reloaded, (1, 1, 0, 2))
        again = SessionStore(tmp_path / "store").session(s.session_id)
        assert (again.usage.total_tokens, again.usage.request_count) == (17, 2)

    def test_a_reply_logged_without_usage_counts_nothing(self, tmp_path, ws, store):
        # a log written before replies carried their usage
        s = store.create_session("t", "misc", ws, "")
        store.append_event(s.session_id, EventKind.ASSISTANT_MESSAGE,
                           {"text": "old", "tool_call": None})
        reply(store, s, (3, 1, 0, 4))
        assert (s.usage.total_tokens, s.usage.request_count) == (4, 1)
        reloaded = SessionStore(tmp_path / "store").session(s.session_id)
        assert asdict(reloaded.usage) == asdict(s.usage)

    def test_opening_a_store_reads_no_byte_of_the_usage_ledger(self, tmp_path, ws, store):
        s = store.create_session("t", "misc", ws, "")
        reply(store, s, (10, 5, 0, 15))
        record_usage(tmp_path / "store", s, (10, 5, 0, 15), (1, 1, 0, 2))
        requests = tmp_path / "store" / "requests.jsonl"
        first, second = requests.read_bytes().splitlines(keepends=True)
        requests.write_bytes(first + b"{corrupt\n" + second)  # a corrupt middle line
        reloaded = SessionStore(tmp_path / "store").session(s.session_id)
        assert asdict(reloaded.usage) == asdict(s.usage)
        assert requests.read_bytes() == first + b"{corrupt\n" + second

    def test_reload_reproduces_open_and_failed_statuses(self, tmp_path, ws, store):
        failed, parked, fresh = (make_session(store, ws) for _ in range(3))
        store.set_status(failed.session_id, SessionStatus.FAILED)
        store.set_status(parked.session_id, SessionStatus.AWAITING_FOLLOWUP)
        reloaded = SessionStore(tmp_path / "store")
        assert [reloaded.session(s.session_id).status for s in (failed, parked, fresh)] == \
            [SessionStatus.FAILED, SessionStatus.AWAITING_FOLLOWUP, SessionStatus.ACTIVE]

    def test_status_follows_log_order(self, tmp_path, ws, store):
        s = make_session(store, ws)
        store.set_status(s.session_id, SessionStatus.AWAITING_FOLLOWUP)
        store.set_status(s.session_id, SessionStatus.ACTIVE)
        store.append_event(s.session_id, EventKind.COMPLETION, {"report_text": "r"})
        store.set_status(s.session_id, SessionStatus.COMPLETED)
        reloaded = SessionStore(tmp_path / "store").session(s.session_id)
        assert reloaded.status is SessionStatus.COMPLETED
        assert [e.seq for e in reloaded.history] == [1, 2]  # status records take no seq

    def test_completed_without_a_completion_event_is_recorded(self, tmp_path, ws, store):
        s = make_session(store, ws)
        store.set_status(s.session_id, SessionStatus.COMPLETED)
        reloaded = SessionStore(tmp_path / "store").session(s.session_id)
        assert reloaded.status is SessionStatus.COMPLETED

    def test_unchanged_status_writes_nothing(self, tmp_path, ws, store):
        s = make_session(store, ws)
        store.set_status(s.session_id, SessionStatus.AWAITING_FOLLOWUP)
        store_files = sorted((tmp_path / "store").rglob("*"))
        log = tmp_path / "store" / "sessions" / f"{s.session_id}.log"
        before = log.read_bytes()
        store.set_status(s.session_id, SessionStatus.AWAITING_FOLLOWUP)
        store.set_status(s.session_id, "awaiting_followup")
        assert log.read_bytes() == before
        assert sorted((tmp_path / "store").rglob("*")) == store_files

    def test_completed_status_after_completion_event_writes_nothing(self, tmp_path, ws, store):
        s = make_session(store, ws)
        store.append_event(s.session_id, EventKind.COMPLETION, {"report_text": "r"})
        log = tmp_path / "store" / "sessions" / f"{s.session_id}.log"
        before = log.read_bytes()
        store.set_status(s.session_id, SessionStatus.COMPLETED)
        assert log.read_bytes() == before

    def test_store_keeps_no_index_file(self, tmp_path, ws, store):
        s = make_session(store, ws)
        store.set_status(s.session_id, SessionStatus.FAILED)
        assert sorted(p.name for p in (tmp_path / "store").iterdir()) == ["sessions"]

    def test_log_without_meta_is_quarantined_and_its_id_never_reused(self, tmp_path, ws, store):
        first, second = make_session(store, ws), make_session(store, ws, task_text="keep")
        sessions_dir = tmp_path / "store" / "sessions"
        meta_less = b"".join(
            (sessions_dir / f"{first.session_id}.log").read_bytes().splitlines(keepends=True)[1:])
        (sessions_dir / f"{first.session_id}.log").write_bytes(meta_less)

        reopened = SessionStore(tmp_path / "store")
        assert [s.session_id for s in reopened.sessions()] == [second.session_id]
        assert make_session(reopened, ws, task_text="new").session_id == "s0003"

        reloaded = SessionStore(tmp_path / "store")
        assert [(s.session_id, s.task_text) for s in reloaded.sessions()] == \
            [(second.session_id, "keep"), ("s0003", "new")]
        assert (tmp_path / "store" / "quarantine" / f"{first.session_id}.log") \
            .read_bytes() == meta_less
        assert make_session(reloaded, ws).session_id == "s0004"

    def test_concurrent_creates_and_status_changes_reload_exactly(self, tmp_path, ws):
        import sys
        import threading
        store = SessionStore(tmp_path / "store", fsync=False)
        shared = make_session(store, ws)
        cycle = [SessionStatus.AWAITING_FOLLOWUP, SessionStatus.ACTIVE]

        def worker(n: int) -> None:
            own = make_session(store, ws, task_text=f"w{n}")
            for i in range(60):
                # worker 0 writes to the shared log through batches' descriptors,
                # the others each through a descriptor of their own
                with store.batch(shared.session_id) if n == 0 else contextlib.nullcontext():
                    store.set_status(own.session_id, cycle[(n + i) % 2])
                    try:
                        store.set_status(shared.session_id, cycle[i % 2])
                        store.append_event(shared.session_id, EventKind.SYSTEM_NOTE,
                                           {"n": n, "i": i})
                    except SessionClosed:  # another worker set FAILED
                        pass
            store.set_status(own.session_id, SessionStatus.FAILED)
            store.set_status(shared.session_id, SessionStatus.FAILED)

        old = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            threads = [threading.Thread(target=worker, args=(n,)) for n in range(8)]
            for t in threads:
                t.start()
            for t in threads:
                t.join(timeout=30)
        finally:
            sys.setswitchinterval(old)
        assert not any(t.is_alive() for t in threads)
        reloaded = SessionStore(tmp_path / "store")
        assert sorted(s.task_text for s in reloaded.sessions()) == \
            sorted(["task"] + [f"w{n}" for n in range(8)])
        for live in store.sessions():
            again = reloaded.session(live.session_id)
            assert again.status is live.status
            assert [(e.seq, e.payload) for e in again.history] == \
                [(e.seq, e.payload) for e in live.history]

    def test_completion_event_forces_completed_status_on_load(self, tmp_path, ws, store):
        s = store.create_session("t", "misc", ws, "")
        store.append_event(s.session_id, EventKind.COMPLETION, {"report_text": "r"})
        # no set_status: simulate a crash right after the completion event
        reloaded = SessionStore(tmp_path / "store").session(s.session_id)
        assert reloaded.status is SessionStatus.COMPLETED

    def test_event_survives_a_hard_kill_after_append_returns(self, tmp_path, ws):
        # child process appends (append_event fsyncs before returning) then
        # dies without any cleanup; the event must be there on reload
        import subprocess
        import sys
        code = (
            "import os, sys\n"
            "from skillet import SessionStore, EventKind\n"
            f"store = SessionStore({str(tmp_path / 'store')!r})\n"
            f"s = store.create_session('t', 'misc', {str(ws)!r}, '')\n"
            "store.append_event(s.session_id, EventKind.ASSISTANT_MESSAGE,"
            " {'text': 'survives'})\n"
            "os._exit(1)\n"
        )
        proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True)
        assert proc.returncode == 1, proc.stderr
        session = SessionStore(tmp_path / "store").session("s0001")
        assert session.history[-1].payload == {"text": "survives"}

    def test_log_lines_are_self_delimiting_json(self, tmp_path, ws, store):
        s = store.create_session("t", "misc", ws, "")
        store.append_event(s.session_id, EventKind.ASSISTANT_MESSAGE, {"text": "x\ny"})
        log = tmp_path / "store" / "sessions" / f"{s.session_id}.log"
        for line in log.read_text().splitlines():
            json.loads(line)
