"""Rendering in the session fold: each history event is rendered once, and
one supersede rule keeps stale text out of later requests: a skill's older
standing guidance, the results of a path read again later, and the
arguments of refused calls."""

import json
from dataclasses import replace

import pytest

from skillet import DelegatedTask, RunConfig, ScriptedBackend, SessionStatus, SessionStore
from skillet import sessions
from skillet.planner import render_messages
from skillet.schema import ActionSchema, object_spec
from skillet.sessions import EventKind, HistoryEvent, apply_record, read_log

from conftest import (
    CALC_PATCH,
    artifact_step,
    delegation_script,
    evidence_step,
    finish_step,
    make_runtime,
    patch_step,
    repair_script,
    submit_repair_task,
    verify_step,
)


def legacy_message(event):
    """The message an event rendered to before any supersede rule existed;
    None for an event that renders to nothing."""
    payload = event.payload
    if event.kind in (EventKind.USER_MESSAGE, EventKind.GUIDANCE_INJECTION):
        return ("user", payload["text"])
    if event.kind is EventKind.ASSISTANT_MESSAGE:
        text = payload.get("text") or ""
        call = payload.get("tool_call")
        if call:
            text += f"\n[tool_call] {call['name']}({json.dumps(call['args'], sort_keys=True)})"
        return ("assistant", text.strip())
    if event.kind is EventKind.TOOL_RESULT:
        return ("user", (
            f"[tool_result {payload['name']}] ok={str(payload['ok']).lower()} "
            f"{json.dumps(payload['output'], sort_keys=True)}"
        ))
    return None


def legacy_render(history):
    """The rendering from before standing guidance existed: every event that
    renders at all is kept."""
    return [m for m in map(legacy_message, history) if m is not None]


def standing(event):
    return (event.kind is EventKind.GUIDANCE_INJECTION
            and event.payload.get("standing") is not None)


def latest_blocks(history):
    """skill id -> the seqs of the standing injections under its last block
    id."""
    latest = {}
    for event in history:
        if standing(event):
            skill_id, block_id = event.payload["skill_id"], event.payload["standing"]
            if skill_id in latest and latest[skill_id][0] == block_id:
                latest[skill_id][1].append(event.seq)
            else:
                latest[skill_id] = (block_id, [event.seq])
    return {skill_id: seqs for skill_id, (_, seqs) in latest.items()}


def read_path(event):
    """The path of an ok fs_read result; None for any other event."""
    if (event.kind is EventKind.TOOL_RESULT and event.payload["name"] == "fs_read"
            and event.payload["ok"]):
        return event.payload["output"]["path"]
    return None


def refused_lines(history):
    """The seqs of the assistant lines whose call a refused tool_call record
    answered."""
    refused, line = set(), None
    for event in history:
        if event.kind is EventKind.ASSISTANT_MESSAGE:
            line = event.seq
        elif event.kind is EventKind.TOOL_CALL and event.payload["accepted"] is False:
            refused.add(line)
    return refused


def full_render(history):
    """A from-scratch rendering under the supersede rule: the legacy rendering
    of every event, except that standing injections a later block of the same
    skill superseded are dropped, an ok read of a path that a later ok read
    of it follows is a stub, and so are the arguments of a refused call."""
    keep = {seq for seqs in latest_blocks(history).values() for seq in seqs}
    last_read = {read_path(e): e.seq for e in history if read_path(e)}
    refused = refused_lines(history)
    messages = []
    for event in history:
        message = legacy_message(event)
        if message is None or (standing(event) and event.seq not in keep):
            continue
        path = read_path(event)
        if event.seq in refused:
            call = event.payload["tool_call"]
            message = ("assistant", f"{event.payload.get('text') or ''}\n[tool_call] "
                                    f"{call['name']}(...)".strip())
        elif path and last_read[path] != event.seq:
            message = ("user", '[tool_result fs_read] ok=true '
                               f'{{"path": "{path}", "superseded": "read again later"}}')
        messages.append(message)
    return messages


class RecordingBackend(ScriptedBackend):
    """A scripted backend that keeps each request with the history its
    session had when the request was made."""

    def __init__(self, steps, store):
        super().__init__(steps)
        self.store = store
        self.seen = []

    def complete(self, request):
        history = list(self.store.session(request.session_id).history)
        self.seen.append((request, history))
        return super().complete(request)


def run_canonical(registry, workspace, store_dir, delegated, single_worker, script=None,
                  backend=RecordingBackend):
    config = RunConfig.from_dict({"planner": {"single_worker": single_worker}})
    if script is None:
        script = delegation_script() if delegated else repair_script()
    runtime = make_runtime(registry, workspace, store_dir, [], config=config)
    runtime.backend = backend(script, runtime.store)
    if delegated:
        runtime.submit_task(DelegatedTask("coordinate the work", "coordination", workspace,
                                          "child reports back"))
    else:
        submit_repair_task(runtime, workspace)
    runtime.run_until_quiescent(40)
    assert {s.status for s in runtime.store.sessions()} == {SessionStatus.COMPLETED}
    return runtime


def assert_fold_matches_full_render(session):
    assert render_messages(session) == full_render(session.history)


@pytest.mark.parametrize("single_worker", [True, False], ids=["single", "threaded"])
@pytest.mark.parametrize("delegated", [False, True], ids=["plain", "delegated"])
class TestCanonicalRuns:
    def test_every_request_carries_the_full_render(self, registry, repair_workspace,
                                                   tmp_path, delegated, single_worker):
        runtime = run_canonical(registry, repair_workspace, tmp_path / "store",
                                delegated, single_worker)
        requests = runtime.backend.seen
        assert len(requests) >= 5
        for request, history in requests:
            assert request.messages == full_render(history)
            routed = runtime.store.session(request.session_id).routed_skills
            blocks = latest_blocks(history)
            assert sorted(blocks) == sorted(routed)
            texts = [text for _, text in request.messages]
            for skill_id, seqs in blocks.items():
                # one standing block per routed skill: its latest one, last
                block_texts = [e.payload["text"] for e in history if e.seq in seqs]
                assert texts[-len(block_texts):] == block_texts
                assert sum(text.startswith("[repair workflow]") for text in texts) == 1
            if not routed:
                assert not any(text.startswith("[repair workflow]") for text in texts)

    def test_fold_matches_after_every_record_and_on_reopen(self, registry, repair_workspace,
                                                           tmp_path, delegated, single_worker):
        runtime = run_canonical(registry, repair_workspace, tmp_path / "store",
                                delegated, single_worker)
        for live in runtime.store.sessions():
            assert_fold_matches_full_render(live)
            _, records = read_log(tmp_path / "store", live.session_id)
            session, superseded = None, 0
            for record in records:
                session = apply_record(session, record)
                assert_fold_matches_full_render(session)
                superseded = max(superseded, len(legacy_render(session.history))
                                 - len(render_messages(session)))
            assert session.rendered == live.rendered
            if live.routed_skills:
                assert superseded > 0  # the run did supersede guidance
        with SessionStore(tmp_path / "store") as reopened:
            for live in runtime.store.sessions():
                again = reopened.session(live.session_id)
                assert again.rendered == live.rendered
                assert render_messages(again) == render_messages(live)


def test_forced_action_and_blocked_notes_still_render(registry, repair_workspace, tmp_path):
    script = [
        {"when": {"phase_contains": "phase: reproduce"}, "respond": {"text": "thinking"}},
        evidence_step(argv=["python3", "in/test_calc.py"]),
        {"when": {"phase_contains": "phase: patch"}, "respond": {"text": "all done?"}},
        patch_step(),
        verify_step(),
        artifact_step(),
        finish_step(when={"phase_contains": "phase: report"}),
    ]
    runtime = run_canonical(registry, repair_workspace, tmp_path / "store",
                            delegated=False, single_worker=True, script=script)
    session = runtime.store.session("s0001")
    notes = [e for e in session.history
             if e.kind is EventKind.GUIDANCE_INJECTION and not standing(e)]
    assert [n.payload["text"].split(":")[0] for n in notes] == [
        "You must now call `repair_collect_evidence`.", "Completion is blocked"]
    last_request = runtime.backend.seen[-1][0]
    for note in notes:
        assert ("user", note.payload["text"]) in last_request.messages
    assert last_request.messages[-1][1].startswith("[repair workflow]")
    assert_fold_matches_full_render(session)


@pytest.mark.parametrize("delegated", [False, True], ids=["plain", "delegated"])
def test_a_log_without_the_marker_renders_as_before(registry, repair_workspace, tmp_path,
                                                    delegated):
    runtime = run_canonical(registry, repair_workspace, tmp_path / "store",
                            delegated, single_worker=True)
    for live in runtime.store.sessions():
        _, records = read_log(tmp_path / "store", live.session_id)
        session = None
        for record in records:
            record = json.loads(json.dumps(record))
            record.get("payload", {}).pop("standing", None)
            session = apply_record(session, record)
            assert session.rendered == legacy_render(session.history)
        if live.routed_skills:
            assert len(session.rendered) > len(render_messages(live))


def meta_record(tmp_path, routed):
    return {"seq": 0, "kind": "session_meta", "session_id": "s0001", "parent_id": None,
            "workspace_root": str(tmp_path), "task_text": "t", "task_type": "",
            "done_when": "", "routed_skills": routed}


def event_record(seq, kind, **payload):
    return {"seq": seq, "kind": kind.value, "payload": payload}


def guidance(seq, skill_id, text, block_id=None):
    return event_record(seq, EventKind.GUIDANCE_INJECTION, skill_id=skill_id, text=text,
                        **({"standing": block_id} if block_id is not None else {}))


def reply(seq, text):
    return event_record(seq, EventKind.ASSISTANT_MESSAGE, text=text, tool_call=None)


def fold_texts(records):
    """The texts a request carries after each record is folded, by seq of
    the record; the fold is checked against a full render throughout."""
    session, texts = None, {}
    for record in records:
        session = apply_record(session, record)
        assert_fold_matches_full_render(session)
        texts[record["seq"]] = [t for _, t in render_messages(session)]
    return session, texts


def test_blocks_of_several_skills_and_messages(tmp_path):
    """A block is every message one stage injected for a skill; the next
    block of that skill replaces it wherever it sits, and other skills'
    blocks keep their places."""
    session, texts = fold_texts([
        meta_record(tmp_path, ["a", "b"]),
        event_record(1, EventKind.USER_MESSAGE, text="task"),
        guidance(2, "a", "a1", 2), guidance(3, "a", "a2", 2), guidance(4, "b", "b1", 2),
        reply(5, "r1"),
        guidance(6, "runtime", "forced"),
        guidance(7, "a", "a3", 7),
        reply(8, "r2"),
        guidance(9, "b", "b2", 9), guidance(10, "b", "b3", 9),
        reply(11, "r3"),
        guidance(12, "a", "a4", 12), guidance(13, "b", "b4", 12),
    ])
    assert texts[4] == ["task", "a1", "a2", "b1"]
    assert texts[7] == ["task", "b1", "r1", "forced", "a3"]
    assert texts[10] == ["task", "r1", "forced", "a3", "r2", "b2", "b3"]
    assert texts[13] == ["task", "r1", "forced", "r2", "r3", "a4", "b4"]
    assert {k: b.tag for k, b in session.standing.items()} == {
        ("guidance", "a"): 12, ("guidance", "b"): 12}


def test_a_block_is_its_stage_not_a_run_of_adjacent_seqs(tmp_path):
    """Two stages whose injections sit at adjacent seqs, with only a status
    record between, are two blocks; one stage's injections with another
    thread's record between them are one block."""
    _, texts = fold_texts([
        meta_record(tmp_path, ["a"]),
        event_record(1, EventKind.USER_MESSAGE, text="task"),
        guidance(2, "a", "a1", 2),
        {"seq": 2, "kind": "session_status", "status": "awaiting_followup"},
        {"seq": 2, "kind": "session_status", "status": "active"},
        guidance(3, "a", "a2", 3),
        guidance(4, "a", "a3", 4),
        event_record(5, EventKind.USER_MESSAGE, text="[child_report s0002] done"),
        guidance(6, "a", "a4", 4),
        reply(7, "r1"),
        guidance(8, "a", "a5", 8),
    ])
    assert texts[2] == ["task", "a1"]
    assert texts[3] == ["task", "a2"]
    assert texts[6] == ["task", "a3", "[child_report s0002] done", "a4"]
    assert texts[8] == ["task", "[child_report s0002] done", "r1", "a5"]


def workflow_messages(request):
    return sum(text.startswith("[repair workflow]") for _, text in request.messages)


class CrashingBackend(ScriptedBackend):
    """Ends the run at its first request, as if the process died right after
    the wakeup's guidance was written."""

    def complete(self, request):
        raise SystemExit("died mid-wakeup")


def test_a_resumed_wakeup_supersedes_the_guidance_written_before_a_crash(
        registry, repair_workspace, tmp_path):
    store_dir = tmp_path / "store"
    runtime = make_runtime(registry, repair_workspace, store_dir, [])
    runtime.backend = CrashingBackend([])
    submit_repair_task(runtime, repair_workspace)
    with pytest.raises(SystemExit):
        runtime.run_until_quiescent(5)
    runtime.store.close()

    resumed = make_runtime(registry, repair_workspace, store_dir, [])
    resumed.backend = RecordingBackend(repair_script(), resumed.store)
    resumed.queue.enqueue("s0001", "resume")
    resumed.run_until_quiescent(20)
    session = resumed.store.session("s0001")
    assert session.status is SessionStatus.COMPLETED
    first_request, history = resumed.backend.seen[0]
    injections = [e for e in history if standing(e)]
    assert [e.seq for e in injections] == [2, 3]  # adjacent: nothing between them
    assert workflow_messages(first_request) == 1
    assert first_request.messages[-1][1] == injections[-1].payload["text"]
    for request, history in resumed.backend.seen:
        assert request.messages == full_render(history)
        assert workflow_messages(request) == 1



# -- the supersede rule's other users: refused calls and re-read files ----------

GHOST = ActionSchema(name="t_ghost", description="a tool no skill provides",
                     params=object_spec({}, []), executor_id="core.none")


class GhostBackend(RecordingBackend):
    """Also lets the script call `t_ghost`, which no skill provides, so the
    call reaches the runtime and is refused as an unknown tool."""

    def complete(self, request):
        return super().complete(replace(request, tools=[*request.tools, GHOST]))


def call_step(name, args, phase, text=""):
    return {"when": {"phase_contains": f"phase: {phase}"},
            "respond": {"text": text, "tool_call": {"name": name, "args": args}}}


GHOST_ARGS = {"marker": "ghost-" + "x" * 40}
MALFORMED_BODY = "replace the minus with a plus, " + "y" * 40
MISMATCHED_PATCH = CALC_PATCH.replace("-    return a - b", "-    return a * b")


def refusal_script():
    """The canonical repair with one refused call of each kind in its patch
    phase: an unknown tool, invalid arguments and a before_tool rejection."""
    return [
        evidence_step(argv=["python3", "in/test_calc.py"]),
        call_step("t_ghost", GHOST_ARGS, "patch", text="trying a tool"),
        call_step("repair_apply_unified_patch", {"target": "in/calc.py"}, "patch"),
        call_step("repair_apply_unified_patch",
                  {"target": "in/calc.py", "body": MALFORMED_BODY}, "patch"),
        *repair_script()[1:],
    ]


def read_script():
    """The canonical repair that reads in/calc.py before and after its patch
    (the second time spelled differently) and in/test_calc.py once."""
    return [
        evidence_step(argv=["python3", "in/test_calc.py"]),
        call_step("fs_read", {"path": "in/calc.py"}, "patch"),
        call_step("fs_read", {"path": "in/test_calc.py"}, "patch"),
        patch_step(),
        call_step("fs_read", {"path": "./in/calc.py"}, "verify"),
        *repair_script()[2:],
    ]


def failed_call_script():
    """The canonical repair whose first patch is accepted by the guard and
    fails in the executor, as its context does not match."""
    return [
        evidence_step(argv=["python3", "in/test_calc.py"]),
        patch_step(body=MISMATCHED_PATCH),
        *repair_script()[1:],
    ]


RUNS = {
    "refusals": (refusal_script, GhostBackend),
    "reads": (read_script, RecordingBackend),
    "failed_call": (failed_call_script, RecordingBackend),
}


@pytest.fixture
def checked_fold(monkeypatch):
    """Check, after every record folded in live or on reload, that the
    incremental rendering equals the from-scratch one."""
    fold = sessions.apply_record

    def apply_and_check(session, record):
        session = fold(session, record)
        if session is not None:
            assert render_messages(session) == full_render(session.history)
        return session

    monkeypatch.setattr(sessions, "apply_record", apply_and_check)


def run_script(registry, workspace, store_dir, run, single_worker=True):
    script, backend = RUNS[run]
    runtime = run_canonical(registry, workspace, store_dir, delegated=False,
                            single_worker=single_worker, script=script(), backend=backend)
    return runtime, runtime.store.session("s0001")


@pytest.mark.parametrize("single_worker", [True, False], ids=["single", "threaded"])
@pytest.mark.parametrize("run", sorted(RUNS))
def test_the_fold_matches_a_full_render_after_every_record(
        registry, repair_workspace, tmp_path, checked_fold, run, single_worker):
    runtime, live = run_script(registry, repair_workspace, tmp_path / "store", run,
                               single_worker)
    for request, history in runtime.backend.seen:
        assert request.messages == full_render(history)
        assert request.messages[-1][1].startswith("[repair workflow]")
    with SessionStore(tmp_path / "store") as reopened:  # folds through the check too
        again = reopened.session("s0001")
        assert again.rendered == live.rendered
        assert render_messages(again) == render_messages(live)


def texts_after(runtime, seq):
    """The message texts of every request made after the record at `seq`."""
    return [[t for _, t in request.messages] for request, history in runtime.backend.seen
            if history[-1].seq > seq]


def test_a_refused_call_keeps_its_name_and_reason_but_not_its_arguments(
        registry, repair_workspace, tmp_path):
    runtime, session = run_script(registry, repair_workspace, tmp_path / "store", "refusals")
    calls = [e for e in session.history if e.kind is EventKind.TOOL_CALL]
    refused = [e for e in calls if not e.payload["accepted"]]
    results = {e.payload["call_id"]: e for e in session.history
               if e.kind is EventKind.TOOL_RESULT}
    assert [results[e.payload["call_id"]].payload["output"]["error"] for e in refused] == [
        "unknown_tool", "invalid_arguments", "rejected"]
    for call in refused:  # the arguments are written once, in the assistant_message
        assert call.payload == {"name": call.payload["name"], "call_id": call.payload["call_id"],
                                "accepted": False}
    for call in calls:
        if call.payload["accepted"]:
            assert "args" in call.payload
    last = runtime.backend.seen[-1][0].messages
    texts = [t for _, t in last]
    assert "trying a tool\n[tool_call] t_ghost(...)" in texts
    assert texts.count("[tool_call] repair_apply_unified_patch(...)") == 2
    for later in texts_after(runtime, refused[0].seq):
        joined = "\n".join(later)
        assert GHOST_ARGS["marker"] not in joined and "y" * 40 not in joined
    for call in refused:  # each refusal still renders, with its reason
        result = results[call.payload["call_id"]]
        assert sessions.render_event(result) in last
    # the patch the executor ran keeps its arguments
    assert any(t.endswith(json.dumps({"body": CALC_PATCH, "target": "in/calc.py"},
                                     sort_keys=True) + ")") for t in texts)


def test_only_the_latest_read_of_a_path_is_sent(registry, repair_workspace, tmp_path):
    runtime, session = run_script(registry, repair_workspace, tmp_path / "store", "reads")
    reads = [e for e in session.history if read_path(e)]
    assert [read_path(e) for e in reads] == ["in/calc.py", "in/test_calc.py", "in/calc.py"]
    assert "a - b" in reads[0].payload["output"]["content"]
    assert "a + b" in reads[2].payload["output"]["content"]  # the log keeps every read
    stub = ("user", '[tool_result fs_read] ok=true '
                    '{"path": "in/calc.py", "superseded": "read again later"}')
    for request, history in runtime.backend.seen:
        later = [e for e in history if read_path(e)]
        if len(later) == 3:
            assert stub in request.messages
            assert sessions.render_event(reads[0]) not in request.messages
        else:  # before the second read of in/calc.py, its first read is sent whole
            assert stub not in request.messages
            assert all(sessions.render_event(e) in request.messages for e in later)
        assert all(sessions.render_event(e) in request.messages for e in later[1:])


def test_a_call_the_executor_ran_keeps_its_arguments_when_it_fails(
        registry, repair_workspace, tmp_path):
    runtime, session = run_script(registry, repair_workspace, tmp_path / "store", "failed_call")
    failed = next(e for e in session.history if e.kind is EventKind.TOOL_RESULT
                  and not e.payload["ok"])
    assert failed.payload["output"]["error"] == "hunk_mismatch"
    line = next(legacy_message(e)[1] for e in reversed(session.history[:failed.seq - 1])
                if e.kind is EventKind.ASSISTANT_MESSAGE)
    assert "return a * b" in line
    later = texts_after(runtime, failed.seq)
    assert later and all(line in texts for texts in later)


def read_call(seq, path):
    return event_record(seq, EventKind.ASSISTANT_MESSAGE, text="",
                        tool_call={"name": "fs_read", "args": {"path": path}})


def tool_call(seq, call_id, name, accepted=True, **extra):
    return event_record(seq, EventKind.TOOL_CALL, name=name, call_id=call_id,
                        accepted=accepted, **extra)


def read_result(seq, call_id, path, ok=True):
    output = ({"path": path, "content": f"content {seq}", "truncated": False} if ok
              else {"error": "ToolError", "message": f"no such file: {path}"})
    return event_record(seq, EventKind.TOOL_RESULT, call_id=call_id, name="fs_read",
                        ok=ok, output=output)


def read(seq, n, path, ok=True):
    """The three records of one read, from seq on."""
    call_id = f"call-{n}"
    return [read_call(seq, path), tool_call(seq + 1, call_id, "fs_read"),
            read_result(seq + 2, call_id, path, ok)]


def test_reads_of_other_paths_and_failed_reads_supersede_nothing(tmp_path):
    records = [
        meta_record(tmp_path, []),
        event_record(1, EventKind.USER_MESSAGE, text="task"),
        *read(2, 1, "a.txt"),
        *read(5, 2, "b.txt"),
        *read(8, 3, "a.txt", ok=False),
        *read(11, 4, "c.txt"),
        *read(14, 5, "a.txt"),
    ]
    _, texts = fold_texts(records)
    results = [legacy_message(HistoryEvent(r["seq"], EventKind(r["kind"]), r["payload"]))[1]
               for r in records if r["kind"] == EventKind.TOOL_RESULT.value]
    assert [t for t in texts[13] if t.startswith("[tool_result")] == results[:4]
    stub = '[tool_result fs_read] ok=true {"path": "a.txt", "superseded": "read again later"}'
    assert [t for t in texts[16] if t.startswith("[tool_result")] == [stub, *results[1:]]


def test_an_older_log_with_refused_arguments_renders_the_same(tmp_path):
    """A refused tool_call record written before the arguments were left out
    of it folds to the same rendering; a call that after_llm diverted, with no
    tool_call record, keeps its arguments."""
    call = {"name": "t_x", "args": {"big": "z" * 30}}
    records = [
        meta_record(tmp_path, []),
        event_record(1, EventKind.USER_MESSAGE, text="task"),
        event_record(2, EventKind.ASSISTANT_MESSAGE, text="first", tool_call=call),
        event_record(3, EventKind.ASSISTANT_MESSAGE, text="second", tool_call=call),
        tool_call(4, "call-1", "t_x", accepted=False, args=call["args"]),
        event_record(5, EventKind.TOOL_RESULT, call_id="call-1", name="t_x", ok=False,
                     output={"error": "unknown_tool"}),
    ]
    _, texts = fold_texts(records)
    args = json.dumps(call["args"], sort_keys=True)
    assert texts[5][1:3] == [f"first\n[tool_call] t_x({args})",
                             "second\n[tool_call] t_x(...)"]
    records[4]["payload"].pop("args")
    assert fold_texts(records)[1] == texts
