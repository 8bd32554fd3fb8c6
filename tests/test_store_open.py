"""Opening a store folds only its open logs; a closed session is built from
its log's ends and folds the rest from the log when it is read."""

import json
import os
import sys
import threading
from pathlib import Path

import pytest

from skillet import EventKind, ScriptedBackend, SessionStatus, SessionStore, UsageLog
from skillet.backends import ModelResponse, UsageRecord
from skillet.cli import build_parser, cmd_trace
from skillet.errors import CorruptStore
from skillet.sessions import (
    OPEN_STATUSES,
    Session,
    closing_status,
    parse_jsonl,
    read_ends,
    read_log,
    replay,
)
from skillet import sessions

from conftest import (
    canonical_runtime,
    evidence_step,
    write_repair_workspace,
)

RUNS = [(delegated, single) for delegated in (False, True) for single in (True, False)]


@pytest.fixture(scope="module")
def canonical(shared_registry, tmp_path_factory):
    """The store of each canonical run, by (delegated, single_worker)."""
    stores = {}
    for delegated, single in RUNS:
        tmp = tmp_path_factory.mktemp("canonical")
        ws = tmp / "ws"
        ws.mkdir()
        write_repair_workspace(ws)
        canonical_runtime(shared_registry, ws, tmp / "store", delegated=delegated,
                          single_worker=single).run_until_quiescent(25)
        stores[delegated, single] = tmp / "store"
    return stores


def lines_of(path: Path) -> list[bytes]:
    return path.read_bytes().splitlines(keepends=True)


def with_id(meta: bytes, session_id: str) -> bytes:
    record = json.loads(meta)
    record["session_id"] = session_id
    return json.dumps(record, sort_keys=True, separators=(",", ":")).encode() + b"\n"


def prefixes(store_dir: Path):
    """Every record-boundary prefix of every log of a store, also with a
    torn tail and ended by a FAILED or a COMPLETED status record."""
    for log in sorted((store_dir / "sessions").glob("*.log")):
        lines = lines_of(log)
        for k in range(1, len(lines) + 1):
            prefix = lines[:k]
            yield f"{log.stem}:{k}", prefix
            if k < len(lines):
                yield f"{log.stem}:{k}+torn", prefix + [lines[k][:len(lines[k]) // 2]]
            last_seq = replay([json.loads(line) for line in prefix]).last_seq
            for status in ("failed", "completed"):
                closing = {"kind": "session_status", "seq": last_seq, "status": status}
                yield f"{log.stem}:{k}+{status}", prefix + [
                    json.dumps(closing, sort_keys=True).encode() + b"\n"]


def write_logs(store_dir: Path, logs: list[list[bytes]]) -> list[str]:
    """Write each log under its own id; the ids."""
    (store_dir / "sessions").mkdir(parents=True)
    ids = []
    for i, lines in enumerate(logs, start=1):
        ids.append(f"s{i:04d}")
        (store_dir / "sessions" / f"{ids[-1]}.log").write_bytes(
            b"".join([with_id(lines[0], ids[-1]), *lines[1:]]))
    return ids


@pytest.fixture
def replays(monkeypatch):
    """The sessions each call of `sessions.replay` built."""
    built = []
    real = sessions.replay

    def counted(records):
        session = real(records)
        built.append(session.session_id)
        return session

    monkeypatch.setattr(sessions, "replay", counted)
    return built


class TestClassification:
    @pytest.mark.parametrize("delegated,single", RUNS, ids=[
        f"{'delegated' if d else 'plain'}-{'single' if s else 'threaded'}" for d, s in RUNS])
    def test_the_last_record_agrees_with_the_fold_at_every_prefix(
            self, canonical, tmp_path, delegated, single):
        cases = list(prefixes(canonical[delegated, single]))
        closed_seen = set()
        for name, lines in cases:
            path = tmp_path / "x.log"
            path.write_bytes(b"".join(lines))
            records, cut = parse_jsonl(path.read_bytes(), path.name)
            folded = replay(records)
            first, last, tail_cut = read_ends(path)
            assert (first, last, tail_cut) == (records[0], records[-1], cut), name
            expected = None if folded.status in OPEN_STATUSES else folded.status
            assert closing_status(last) is expected, name
            closed_seen.add(expected)
        assert closed_seen == {None, SessionStatus.COMPLETED, SessionStatus.FAILED}

    def test_a_store_of_every_prefix_folds_only_the_open_logs(
            self, canonical, tmp_path, replays):
        cases = [lines for _, lines in prefixes(canonical[True, False])]
        ids = write_logs(tmp_path / "store", cases)
        store = SessionStore(tmp_path / "store")
        opened = list(replays)
        for session_id in ids:
            session = store.session(session_id)
            again, _ = read_log(tmp_path / "store", session_id)
            assert session.status is again.status, session_id
            assert session.last_seq == again.last_seq, session_id
            assert (session_id in opened) == (again.status in OPEN_STATUSES), session_id
        assert 0 < len(opened) < len(ids)


class TestTailCut:
    @pytest.mark.parametrize("block", [sessions._BLOCK, 16])
    def test_the_cut_equals_parse_jsonls_at_every_prefix(
            self, canonical, tmp_path, monkeypatch, block):
        monkeypatch.setattr(sessions, "_BLOCK", block)
        data = (canonical[True, True] / "requests.jsonl").read_bytes()
        assert data.count(b"\n") >= 4
        last_line = data.rindex(b"\n", 0, -1) + 1
        before_last = data.rindex(b"\n", 0, last_line - 1) + 1
        first_line = data.index(b"\n") + 1
        bad = b'{"session_id": "s00\n'  # a whole line that does not parse
        cases = [data[:n] for n in range(len(data) + 1)]
        cases.append(data[:last_line] + bad)
        # a corrupt record short of the tail: both readers raise
        cases.append(data[:before_last] + bad + data[last_line:-1])  # then a torn line
        cases.append(data[:before_last] + bad + bad)  # then an unparseable last line
        cases.append(bad + data[first_line:])  # at line 1

        def outcome(read):
            try:
                return read()
            except CorruptStore:
                return CorruptStore

        path = tmp_path / "requests.jsonl"
        raised = 0
        for case in cases:
            path.write_bytes(case)
            parsed = outcome(lambda: parse_jsonl(case, path.name))
            if parsed is CorruptStore:
                raised += 1
            else:
                records, cut = parsed
                parsed = (records[-1] if records else None), cut
            assert outcome(lambda: read_ends(path)[1:]) == parsed, len(case)
        assert raised == 3

    def test_the_first_usage_append_reads_only_the_tail(self, tmp_path, monkeypatch):
        store = SessionStore(tmp_path / "store")
        ws = tmp_path / "ws"
        ws.mkdir()
        session = store.create_session("t", "misc", ws, "")
        path = tmp_path / "store" / "requests.jsonl"
        line = {"session_id": session.session_id, "provider": "p", "response_model": "m",
                "input_tokens": 1, "output_tokens": 1, "cache_tokens": 0, "total_tokens": 2,
                "ts_us": 0}
        path.write_bytes((json.dumps(line, sort_keys=True) + "\n").encode() * 5000
                         + b'{"session_id": "s0')  # and a torn tail
        whole = path.stat().st_size - len(b'{"session_id": "s0')
        read = []
        real_pread = os.pread
        monkeypatch.setattr(os, "pread", lambda fd, n, at: read.append(n) or real_pread(fd, n, at))
        monkeypatch.setattr(sessions, "parse_jsonl", None)  # any call fails
        monkeypatch.setattr(Path, "read_bytes", None)
        UsageLog(path).record(session, ModelResponse(usage=UsageRecord("p", "m", 1, 1, 0, 2)))
        monkeypatch.undo()
        assert sum(read) <= sessions._BLOCK
        assert path.stat().st_size > whole
        assert len(UsageLog(path).lines()) == 5001  # cut, then one line of its own


def closed_store(tmp_path, registry):
    """A store whose canonical delegated run closed both its sessions."""
    ws = tmp_path / "ws"
    ws.mkdir()
    write_repair_workspace(ws)
    runtime = canonical_runtime(registry, ws, tmp_path / "store", delegated=True,
                                single_worker=True)
    runtime.run_until_quiescent(25)
    return runtime, ws


class TestClosedSessions:
    def test_a_closed_session_folded_on_demand_equals_a_full_reload(self, tmp_path, registry):
        runtime, _ = closed_store(tmp_path, registry)
        requests = UsageLog(tmp_path / "store" / "requests.jsonl").lines()
        reopened = SessionStore(tmp_path / "store")
        for store in (runtime.store, reopened):  # closed by this process, or at open
            for session in store.sessions():
                full, _ = read_log(tmp_path / "store", session.session_id)
                assert session.status is SessionStatus.COMPLETED
                assert session._open is None and session._history is None
                assert [(e.seq, e.kind, e.payload) for e in session.history] == \
                    [(e.seq, e.kind, e.payload) for e in full.history]
                assert session.skill_state == full.skill_state
                assert session.rendered == full.rendered
                assert session.standing == full.standing
                assert session.guidance == full.guidance
                assert session.tool_call_ids == full.tool_call_ids
                assert session.last_seq == full.last_seq == full.history[-1].seq
                own = [r for r in requests if r["session_id"] == session.session_id]
                assert session.usage.request_count == len(own) > 0
                assert session.usage.total_tokens == sum(r["total_tokens"] for r in own)
                assert session._history is None  # a read does not keep it

    def test_sessions_keep_their_identity(self, tmp_path, registry):
        ws = tmp_path / "ws"
        ws.mkdir()
        write_repair_workspace(ws)
        runtime = canonical_runtime(registry, ws, tmp_path / "store", delegated=True,
                                    single_worker=True)
        (root,) = runtime.store.sessions()
        runtime.run_until_quiescent(25)
        assert root.status is SessionStatus.COMPLETED
        assert runtime.store.session(root.session_id) is root
        assert runtime.store.sessions()[0] is root
        reopened = SessionStore(tmp_path / "store")
        assert reopened.session("s0002") is reopened.sessions()[1]

    @pytest.mark.parametrize("single", [True, False], ids=["single", "threaded"])
    def test_a_delegated_run_folds_no_closed_session(self, tmp_path, registry, monkeypatch,
                                                     single):
        folds = []
        real = Session._fold
        monkeypatch.setattr(Session, "_fold", lambda s: folds.append(s.session_id) or real(s))
        ws = tmp_path / "ws"
        ws.mkdir()
        write_repair_workspace(ws)
        runtime = canonical_runtime(registry, ws, tmp_path / "store", delegated=True,
                                    single_worker=single)
        runtime.run_until_quiescent(25)
        runtime.summary()
        assert folds == []
        # a reused store: its sessions closed before it was opened
        again = tmp_path / "again"
        again.mkdir()
        write_repair_workspace(again)
        runtime = canonical_runtime(registry, again, tmp_path / "store", delegated=True,
                                    single_worker=single)
        runtime.queue.enqueue("s0001", "followup")  # a wakeup of a closed session
        runtime.run_until_quiescent(25)
        # a child of a closed session: the parent check and the ancestor walk
        child = runtime.store.create_session("t", "code_repair", ws, "", parent_id="s0002",
                                             routed_skills=["repair"])
        runtime.backend = ScriptedBackend([evidence_step(log_path="in/fail.log")])
        runtime.queue.enqueue(child.session_id, "initial")
        runtime.run_wakeup(runtime.queue.pop())
        statuses = {s.session_id: s.status for s in runtime.summary().sessions}
        assert statuses == {"s0003": "completed", "s0004": "completed",
                            child.session_id: "active"}
        assert folds == []
        assert child.tool_call_ids == {"call-1": "repair_collect_evidence"}


def corrupt_closed_log(tmp_path, registry) -> Path:
    closed_store(tmp_path, registry)
    log = tmp_path / "store" / "sessions" / "s0002.log"
    lines = lines_of(log)
    lines[2] = b'{"seq": 2, "kind": "busted...\n'
    log.write_bytes(b"".join(lines))
    return log


class TestCorruptClosedLog:
    def test_a_corrupt_closed_log_fails_when_it_is_first_folded(self, tmp_path, registry):
        corrupt_closed_log(tmp_path, registry)
        store = SessionStore(tmp_path / "store")  # opens: the log is not folded
        session = store.session("s0002")
        assert session.status is SessionStatus.COMPLETED
        with pytest.raises(CorruptStore, match=r"s0002\.log: corrupt record at line 3"):
            session.history
        with pytest.raises(CorruptStore, match=r"s0002\.log"):
            session.skill_state
        with pytest.raises(CorruptStore, match=r"s0002\.log"):
            [s.rendered for s in store.sessions()]
        assert store.session("s0001").history[-1].kind is EventKind.COMPLETION

    def test_trace_raises_naming_the_file(self, tmp_path, registry, capsys):
        corrupt_closed_log(tmp_path, registry)
        args = build_parser().parse_args(
            ["trace", "--store", str(tmp_path / "store"), "--session", "s0002"])
        with pytest.raises(CorruptStore, match=r"s0002\.log"):
            cmd_trace(args)


class TestOpenSessions:
    def test_history_is_folded_at_its_first_read_and_then_kept_live(self, tmp_path):
        ws = tmp_path / "ws"
        ws.mkdir()
        store = SessionStore(tmp_path / "store")
        session = store.create_session("t", "misc", ws, "")
        store.append_event(session.session_id, EventKind.SYSTEM_NOTE, {"i": 0})
        assert session._history is None
        history = session.history
        assert [e.seq for e in history] == [1, 2]
        store.append_event(session.session_id, EventKind.SYSTEM_NOTE, {"i": 1})
        assert session.history is history and history[-1].payload == {"i": 1}
        reopened = SessionStore(tmp_path / "store").session(session.session_id)
        assert reopened._history is None and reopened.rendered == session.rendered
        store.append_event(session.session_id, EventKind.COMPLETION, {"report_text": "r"})
        assert history[-1].kind is EventKind.COMPLETION  # the closing write lands too
        assert session._history is None and session._open is None

    def test_a_history_read_during_writes_misses_and_repeats_nothing(self, tmp_path):
        ws = tmp_path / "ws"
        ws.mkdir()
        store = SessionStore(tmp_path / "store", fsync=False)
        session = store.create_session("t", "misc", ws, "")
        writer = threading.Thread(target=lambda: [
            store.append_event(session.session_id, EventKind.SYSTEM_NOTE, {"i": i})
            for i in range(300)])
        old = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            writer.start()
            while session.last_seq < 50:
                pass
            history = session.history  # folded while the writer appends
        finally:
            writer.join()
            sys.setswitchinterval(old)
        assert session.history is history
        assert [e.seq for e in history] == list(range(1, 302))
