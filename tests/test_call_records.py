"""Each call fact is written once. A `tool_call` record holds its call id
and whether it was accepted, plus `args` only when validation changed them
(a filled schema default); a `tool_result` record holds its call id, `ok`
and `output`. The call's name and raw arguments live in the
`assistant_message` before them, and the fold puts them back, so history,
rendering and `skillet trace` read as they did when the records held them,
and logs whose records still hold them fold the same. `requests.jsonl`
lines are compact JSON."""

import io
import json
from contextlib import redirect_stdout
from pathlib import Path

import pytest

from skillet import DelegatedTask, EventKind, RoutedSkillSet, SkillRegistry, builtin_skills_dir
from skillet.bindings import executor
from skillet.cli import main as skillet_main
from skillet.sessions import read_log
from skillet.workspace import write_file

from conftest import make_runtime
from test_store_open import RUNS, canonical  # noqa: F401  (a fixture)

NOTES_PACKAGE = Path(__file__).parent / "skills" / "notes"


@executor("notes.write")
def notes_write(args, ctx):
    return write_file(ctx, f"notes/{args['file']}", args["text"])


def call_step(name, args):
    return {"respond": {"tool_call": {"name": name, "args": args}}}


@pytest.fixture
def notes_store(tmp_path):
    """A store whose one session, routed to the `notes` skill, made a call
    its schema refused, a call that gained a default and one that did not."""
    registry = SkillRegistry()
    registry.load_all(builtin_skills_dir())
    registry.load_skill_package(NOTES_PACKAGE)
    ws = tmp_path / "ws"
    ws.mkdir()
    script = [call_step("notes_write", {"file": "a.md"}),  # no text: refused
              call_step("notes_write", {"text": "hi"}),
              call_step("notes_write", {"text": "again", "file": "B.md"}),
              call_step("finish", {"report_text": "done"})]
    runtime = make_runtime(registry, ws, tmp_path / "store", script)
    runtime.submit_task(DelegatedTask("write notes", "notes", ws, ""),
                        routed=RoutedSkillSet(entries=[("notes", 1.0)]))
    runtime.run_until_quiescent(10)
    assert (ws / "notes" / "NOTE.md").read_text() == "hi"
    assert (ws / "notes" / "B.md").read_text() == "again"
    return tmp_path / "store"


def log_records(store_dir: Path) -> dict[str, list[dict]]:
    return {path.stem: [json.loads(line) for line in path.read_bytes().splitlines()]
            for path in sorted((store_dir / "sessions").glob("*.log"))}


def trace(store_dir: Path, session_id: str) -> str:
    out = io.StringIO()
    with redirect_stdout(out):
        assert skillet_main(["trace", "--store", str(store_dir), "--session", session_id]) == 0
    return out.getvalue()


def with_call_fields(records: list[dict]) -> list[dict]:
    """The records as a log written while call records held every call
    field would have them: a tool_call's name, an accepted one's args, and
    a tool_result's name."""
    call, names, out = None, {}, []
    for record in records:
        payload = record.get("payload")
        if record["kind"] == "assistant_message":
            call = payload["tool_call"]
        elif record["kind"] == "tool_call":
            payload = {"name": call["name"], **payload}
            if payload["accepted"]:
                payload.setdefault("args", call["args"])
            names[payload["call_id"]] = call["name"]
            record = {**record, "payload": payload}
        elif record["kind"] == "tool_result":
            record = {**record, "payload": {**payload, "name": names[payload["call_id"]]}}
        out.append(record)
    return out


def write_store(store_dir: Path, logs: dict[str, list[dict]]) -> None:
    (store_dir / "sessions").mkdir(parents=True)
    for session_id, records in logs.items():
        (store_dir / "sessions" / f"{session_id}.log").write_text("".join(
            json.dumps(r, sort_keys=True, separators=(",", ":")) + "\n" for r in records))


@pytest.mark.parametrize("delegated,single", RUNS)
def test_call_records_hold_no_field_the_assistant_line_holds(canonical, delegated, single):
    store_dir = canonical[delegated, single]
    calls = results = 0
    for records in log_records(store_dir).values():
        call = None
        for record in records:
            payload = record.get("payload")
            if record["kind"] == "assistant_message":
                call = payload["tool_call"]
            elif record["kind"] == "tool_call":
                calls += 1
                assert "name" not in payload
                assert "args" not in payload or payload["args"] != call["args"]
            elif record["kind"] == "tool_result":
                results += 1
                assert set(payload) == {"call_id", "ok", "output"}
    assert calls == results > 0


@pytest.mark.parametrize("delegated,single", RUNS)
def test_requests_jsonl_lines_are_compact(canonical, delegated, single):
    lines = (canonical[delegated, single] / "requests.jsonl").read_text().splitlines()
    assert lines
    assert [line for line in lines if '", "' in line or '": "' in line] == []


@pytest.mark.parametrize("delegated,single", RUNS)
def test_the_fold_puts_the_call_fields_back(canonical, delegated, single):
    store_dir = canonical[delegated, single]
    for session_id in log_records(store_dir):
        session, _ = read_log(store_dir, session_id)
        assert any(e.kind is EventKind.TOOL_CALL for e in session.history)
        for event in session.history:
            if event.kind is EventKind.ASSISTANT_MESSAGE and event.payload["tool_call"]:
                call = event.payload["tool_call"]
            elif event.kind is EventKind.TOOL_CALL:
                assert event.payload == {**call, "call_id": event.payload["call_id"],
                                         "accepted": True}
                assert session.tool_call_ids[event.payload["call_id"]] == call["name"]
            elif event.kind is EventKind.TOOL_RESULT:
                assert event.payload["name"] == call["name"]


def test_a_call_that_gains_a_default_keeps_its_args(notes_store):
    records = log_records(notes_store)["s0001"]
    calls = [r["payload"] for r in records if r["kind"] == "tool_call"]
    assert calls == [
        {"call_id": "call-1", "accepted": False},
        {"call_id": "call-2", "accepted": True, "args": {"text": "hi", "file": "NOTE.md"}},
        {"call_id": "call-3", "accepted": True},
        {"call_id": "call-4", "accepted": True},
    ]
    session, _ = read_log(notes_store, "s0001")
    history = [e.payload for e in session.history if e.kind is EventKind.TOOL_CALL]
    assert history == [
        {"name": "notes_write", "call_id": "call-1", "accepted": False},
        {"name": "notes_write", "call_id": "call-2", "accepted": True,
         "args": {"text": "hi", "file": "NOTE.md"}},
        {"name": "notes_write", "call_id": "call-3", "accepted": True,
         "args": {"text": "again", "file": "B.md"}},
        {"name": "finish", "call_id": "call-4", "accepted": True,
         "args": {"report_text": "done"}},
    ]
    results = [e.payload for e in session.history if e.kind is EventKind.TOOL_RESULT]
    assert [(r["name"], r["ok"]) for r in results] == [
        ("notes_write", False), ("notes_write", True), ("notes_write", True), ("finish", True)]
    shown = [line for line in trace(notes_store, "s0001").splitlines()
             if " tool_call " in line]
    assert '"args": {"file": "NOTE.md", "text": "hi"}' in shown[1]
    assert '"args": {"file": "B.md", "text": "again"}' in shown[2]
    assert '"args"' not in shown[0]


def compared(store_dir: Path) -> dict[str, tuple]:
    """What each session of a store folds to: its history payloads, its
    rendered messages, its call ids and its `skillet trace` output."""
    folded = {}
    for session_id in log_records(store_dir):
        session, _ = read_log(store_dir, session_id)
        folded[session_id] = (
            [(e.seq, e.kind, json.dumps(e.payload, sort_keys=True)) for e in session.history],
            list(session.rendered), dict(session.tool_call_ids), trace(store_dir, session_id))
    return folded


@pytest.mark.parametrize("delegated", [False, True])
def test_records_that_hold_every_call_field_fold_the_same(canonical, delegated, tmp_path):
    store_dir = canonical[delegated, True]
    logs = log_records(store_dir)
    full = {sid: with_call_fields(records) for sid, records in logs.items()}
    assert full != logs
    write_store(tmp_path / "full", full)
    assert compared(tmp_path / "full") == compared(store_dir)


def test_a_refused_call_and_a_filled_default_fold_the_same_from_full_records(
        notes_store, tmp_path):
    logs = log_records(notes_store)
    write_store(tmp_path / "full", {sid: with_call_fields(r) for sid, r in logs.items()})
    assert compared(tmp_path / "full") == compared(notes_store)
