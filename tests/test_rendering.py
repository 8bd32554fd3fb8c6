"""Rendering in the session fold: each history event is rendered once, and a
request carries only each skill's latest standing guidance block."""

import json

import pytest

from skillet import DelegatedTask, RunConfig, ScriptedBackend, SessionStatus, SessionStore
from skillet.planner import render_messages
from skillet.sessions import EventKind, apply_record, read_log

from conftest import (
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


def legacy_render(history):
    """The rendering from before standing guidance existed: every event that
    renders at all is kept."""
    messages = []
    for event in history:
        payload = event.payload
        if event.kind in (EventKind.USER_MESSAGE, EventKind.GUIDANCE_INJECTION):
            messages.append(("user", payload["text"]))
        elif event.kind is EventKind.ASSISTANT_MESSAGE:
            text = payload.get("text") or ""
            call = payload.get("tool_call")
            if call:
                text += f"\n[tool_call] {call['name']}({json.dumps(call['args'], sort_keys=True)})"
            messages.append(("assistant", text.strip()))
        elif event.kind is EventKind.TOOL_RESULT:
            messages.append(("user", (
                f"[tool_result {payload['name']}] ok={str(payload['ok']).lower()} "
                f"{json.dumps(payload['output'], sort_keys=True)}"
            )))
    return messages


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


def full_render(history):
    """A from-scratch rendering under the standing rule: the legacy rendering
    of every event except the standing injections a later block of the same
    skill superseded."""
    keep = {seq for seqs in latest_blocks(history).values() for seq in seqs}
    return legacy_render([e for e in history if not standing(e) or e.seq in keep])


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


def run_canonical(registry, workspace, store_dir, delegated, single_worker, script=None):
    config = RunConfig.from_dict({"planner": {"single_worker": single_worker}})
    if script is None:
        script = delegation_script() if delegated else repair_script()
    runtime = make_runtime(registry, workspace, store_dir, [], config=config)
    runtime.backend = RecordingBackend(script, runtime.store)
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
    assert {k: b.block_id for k, b in session.standing.items()} == {"a": 12, "b": 12}


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

