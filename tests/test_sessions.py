"""Session store: typed history, skill state, and crash-safe persistence."""

import gc
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
from skillet.backends import ModelRequest, ModelResponse, UsageRecord
from skillet.errors import (
    CorruptStore,
    NotFound,
    OrphanToolResult,
    SessionClosed,
    UnknownParent,
    WorkspaceEscape,
)
from skillet.sessions import read_log, snapshot_records


@pytest.fixture
def store(tmp_path):
    with SessionStore(tmp_path / "store") as store:
        yield store


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
        usage_log.record(session, ModelRequest([], [], session.session_id),
                         ModelResponse(usage=UsageRecord("p", "m", *usage)))


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

    def test_dropping_a_store_with_an_open_log_warns(self, tmp_path, ws):
        # what pyproject.toml turns into a failure of the test that drops it
        store = SessionStore(tmp_path / "store")
        make_session(store, ws)
        with pytest.warns(ResourceWarning):
            del store
            gc.collect()


class TestDurability:
    @pytest.fixture
    def fsyncs(self, monkeypatch):
        """The kind ("file" or "dir") of every fsync, in order."""
        kinds = []
        real_fsync = os.fsync

        def fsync(fd):
            kinds.append("dir" if stat.S_ISDIR(os.fstat(fd).st_mode) else "file")
            real_fsync(fd)

        monkeypatch.setattr(os, "fsync", fsync)
        return kinds

    def test_new_log_is_synced_once_and_then_its_name(self, store, ws, fsyncs):
        s = make_session(store, ws)
        assert fsyncs == ["file", "dir"]
        again = read_log(store.store_dir, s.session_id)[0]
        assert [(e.seq, e.kind, e.payload) for e in again.history] == \
            [(1, EventKind.USER_MESSAGE, {"text": "task"})]

    def test_a_batch_defers_only_its_own_threads_fsyncs(self, store, ws, fsyncs):
        s = make_session(store, ws)
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
            assert fsyncs == ["file"]  # another thread's write is durable when it returns
            store.sync(s.session_id)
            assert fsyncs == ["file"]  # that fsync covered this thread's writes too
            store.append_event(s.session_id, EventKind.SYSTEM_NOTE, note)
            store.sync(s.session_id)
            assert fsyncs == ["file"] * 2
            store.append_event(s.session_id, EventKind.SYSTEM_NOTE, note)
        assert fsyncs == ["file"] * 3  # leaving the batch syncs
        store.append_event(s.session_id, EventKind.SYSTEM_NOTE, note)
        assert fsyncs == ["file"] * 4  # outside a batch every write syncs

    def test_closing_a_log_in_a_batch_syncs_it(self, store, ws, fsyncs):
        s = make_session(store, ws)
        del fsyncs[:]
        with store.batch(s.session_id):
            store.append_event(s.session_id, EventKind.SYSTEM_NOTE, {"note": "n"})
            store.append_event(s.session_id, EventKind.COMPLETION, {"report_text": "r"})
            assert fsyncs == ["file"]
        assert fsyncs == ["file"]


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
            with SessionStore(Path(tmp) / "store", fsync=False) as store:
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
            with SessionStore(Path(tmp) / "store", fsync=False) as store:
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

    def test_first_append_after_reload_starts_on_a_line_of_its_own(self, tmp_path, ws, store):
        s = store.create_session("t", "misc", ws, "")
        for i in range(3):
            store.append_event(s.session_id, EventKind.SYSTEM_NOTE, {"i": i})
        store.close()
        log = tmp_path / "store" / "sessions" / f"{s.session_id}.log"
        log.write_bytes(log.read_bytes()[:-7])  # cut into the last note
        with SessionStore(tmp_path / "store") as reloaded:
            seq = reloaded.append_event(s.session_id, EventKind.SYSTEM_NOTE, {"i": "after"})
        assert seq == 4
        again = SessionStore(tmp_path / "store").session(s.session_id)
        assert [e.payload for e in again.history[1:]] == [{"i": 0}, {"i": 1}, {"i": "after"}]
        assert [e.seq for e in again.history] == [1, 2, 3, 4]

    @pytest.mark.skipif(not os.path.isdir("/proc/self/fd"), reason="needs /proc/self/fd")
    def test_log_descriptors_close_with_their_session_and_the_store(self, tmp_path, ws):
        def open_fds():
            return len(os.listdir("/proc/self/fd"))

        baseline = open_fds()
        store = SessionStore(tmp_path / "store")
        done, failed, waiting = (make_session(store, ws) for _ in range(3))
        assert open_fds() == baseline + 3  # one append descriptor per written log
        record_usage(tmp_path / "store", done, (1, 1, 0, 2))
        assert open_fds() == baseline + 3  # the usage log keeps none
        store.append_event(done.session_id, EventKind.COMPLETION, {"report_text": "r"})
        store.set_status(done.session_id, SessionStatus.COMPLETED)
        store.set_status(failed.session_id, SessionStatus.FAILED)
        store.set_status(waiting.session_id, SessionStatus.AWAITING_FOLLOWUP)
        assert open_fds() == baseline + 1
        store.close()
        assert open_fds() == baseline
        # a later write to a closed log opens it again
        store.set_status(failed.session_id, SessionStatus.ACTIVE)
        store.close()
        assert open_fds() == baseline
        reloaded = SessionStore(tmp_path / "store")
        assert [s.status for s in reloaded.sessions()] == [
            SessionStatus.COMPLETED, SessionStatus.ACTIVE, SessionStatus.AWAITING_FOLLOWUP]

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

    def test_usage_totals_survive_reload_via_requests_log(self, tmp_path, ws, store):
        s = store.create_session("t", "misc", ws, "")
        record_usage(tmp_path / "store", s, (10, 5, 0, 15), (7, 3, 1, 11))
        reloaded = SessionStore(tmp_path / "store").session(s.session_id)
        assert reloaded.usage.total_tokens == 26
        assert reloaded.usage.request_count == 2
        assert asdict(reloaded.usage) == asdict(s.usage)

    def test_usage_totals_survive_a_crash_right_after_record(self, tmp_path, ws):
        import subprocess
        import sys
        code = (
            "import os\n"
            "from skillet import SessionStore, UsageLog\n"
            "from skillet.backends import ModelRequest, ModelResponse, UsageRecord\n"
            f"store = SessionStore({str(tmp_path / 'store')!r})\n"
            f"s = store.create_session('t', 'misc', {str(ws)!r}, '')\n"
            f"UsageLog({str(tmp_path / 'store' / 'requests.jsonl')!r}).record(\n"
            "    s, ModelRequest([], [], s.session_id),\n"
            "    ModelResponse(usage=UsageRecord('p', 'm', 10, 5, 2, 17)))\n"
            "os._exit(1)\n"
        )
        proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True)
        assert proc.returncode == 1, proc.stderr
        usage = SessionStore(tmp_path / "store").session("s0001").usage
        assert asdict(usage) == {"input_tokens": 10, "output_tokens": 5, "cache_tokens": 2,
                                   "total_tokens": 17, "request_count": 1}

    def test_torn_last_line_of_requests_log_is_tolerated(self, tmp_path, ws, store):
        s = store.create_session("t", "misc", ws, "")
        record_usage(tmp_path / "store", s, (10, 5, 0, 15), (7, 3, 1, 11))
        requests = tmp_path / "store" / "requests.jsonl"
        requests.write_bytes(requests.read_bytes()[:-9])  # cut into the second line
        reloaded = SessionStore(tmp_path / "store").session(s.session_id)
        assert reloaded.usage.total_tokens == 15
        assert reloaded.usage.request_count == 1
        # the torn line is cut, so the next record starts on a line of its own
        record_usage(tmp_path / "store", reloaded, (1, 1, 0, 2))
        again = SessionStore(tmp_path / "store").session(s.session_id)
        assert again.usage.total_tokens == 17
        assert again.usage.request_count == 2

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

        with SessionStore(tmp_path / "store") as reopened:
            assert [s.session_id for s in reopened.sessions()] == [second.session_id]
            assert make_session(reopened, ws, task_text="new").session_id == "s0003"

        with SessionStore(tmp_path / "store") as reloaded:
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
        cycle = [SessionStatus.AWAITING_FOLLOWUP, SessionStatus.ACTIVE, SessionStatus.FAILED]

        def worker(n: int) -> None:
            own = make_session(store, ws, task_text=f"w{n}")
            for i in range(60):
                store.set_status(own.session_id, cycle[(n + i) % 3])
                store.set_status(shared.session_id, cycle[i % 3])
                try:
                    store.append_event(shared.session_id, EventKind.SYSTEM_NOTE,
                                       {"n": n, "i": i})
                except SessionClosed:  # another worker set FAILED
                    pass

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
        store.close()
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
