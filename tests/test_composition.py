"""Two skills routed together: the repair skill and the test-only `docs`
skill (`tests/skills/docs`), which has a phase tool, a protected path and a
completion gate of its own, and whose workflow is its manifest's alone: it
has no before_llm or after_tool program. Each skill's phase governs its own
tools, so both skills' phase tools are visible, and only a skill's own
tools are refused out of its phase; the session completes only once both
gates pass; both skills' protected paths hold for every writer and for
repair's patch guard; and a forced action must name a tool the request
offers."""

import json
from pathlib import Path

import pytest

from skillet import (
    DelegatedTask,
    EventKind,
    RoutedSkillSet,
    SessionStatus,
    SessionStore,
    SkillRegistry,
    builtin_skills_dir,
)
from skillet.bindings import completion_gate, executor, hook_program
from skillet.hooks import HookDecision, HookPipeline
from skillet.repair import VERIFICATION_NOT_PASSED, RepairState
from skillet.workspace import orchestration_schemas, write_file

from conftest import (
    REPAIR_DONE_WHEN,
    REPAIR_TASK_TEXT,
    artifact_step,
    evidence_step,
    finish_step,
    make_runtime,
    patch_step,
    verify_step,
)

DOCS_PACKAGE = Path(__file__).parent / "skills" / "docs"
DONE = "done"
REPRODUCE, PATCH = "reproduce", "patch"  # repair's phases
NO_NOTE = "no docs note written"


@hook_program("docs.after_llm")
def docs_after_llm(ctx):
    force = ctx.config.get("force_on_text")  # set by a test
    if force and ctx.payload.tool_call is None:
        return HookDecision(force_action=force)
    return None


@executor("docs.write_note")
def docs_write_note(args, ctx):
    return write_file(ctx, "docs/NOTE.md", args["text"])


@executor("repair_notes.write")
def repair_notes_write(args, ctx):
    return write_file(ctx, "notes/repair.md", args["text"])


@completion_gate("docs")
def docs_gate(session, state):
    return [] if state.get("phase") == DONE else [NO_NOTE]


@pytest.fixture
def two_skills():
    registry = SkillRegistry()
    registry.load_all(builtin_skills_dir())
    registry.load_skill_package(DOCS_PACKAGE)
    return registry


def call_step(name, args, when=None):
    step = {"respond": {"tool_call": {"name": name, "args": args}}}
    if when:
        step["when"] = when
    return step


def run_both(registry, ws, store_dir, script, routed=("repair", "docs"), state=None,
             **kwargs):
    """Run the repair task routed to `routed` (repair and docs) until it is
    quiescent, from the skill states in `state` ({skill_id: state})."""
    runtime = make_runtime(registry, ws, store_dir, script, **kwargs)
    session = runtime.submit_task(
        DelegatedTask(REPAIR_TASK_TEXT, "code_repair", ws, REPAIR_DONE_WHEN),
        routed=RoutedSkillSet(entries=[(skill_id, 1.0) for skill_id in routed]))
    for skill_id, doc in (state or {}).items():
        runtime.store.put_skill_state(session.session_id, skill_id, doc)
    runtime.run_until_quiescent(20)
    return session


def results(session):
    return [e.payload for e in session.history if e.kind is EventKind.TOOL_RESULT]


@pytest.mark.parametrize("routed,visible", [
    (["repair"], {"finish", "fs_read", "repair_collect_evidence"}),
    (["docs"], {"docs_write_note", "finish", "fs_read"}),
    (["repair", "docs"], {"docs_write_note", "finish", "fs_read", "repair_collect_evidence"}),
    (["docs", "repair"], {"docs_write_note", "finish", "fs_read", "repair_collect_evidence"}),
])
def test_each_phase_governs_its_own_tools(two_skills, repair_workspace, tmp_path,
                                          routed, visible):
    store = SessionStore(tmp_path / "store")
    session = store.create_session("t", "code_repair", repair_workspace, "",
                                   routed_skills=routed)
    pipeline = HookPipeline(two_skills, store)
    candidates = orchestration_schemas() + [
        t for skill_id in routed for t in two_skills.lookup(skill_id).tools]

    def visible_now():
        return {t.name for t in pipeline.run_before_llm(session, candidates).visible_tools}

    assert visible_now() == visible
    if "docs" in routed:  # the note written, the docs phase tool goes
        store.put_skill_state(session.session_id, "docs", {"phase": DONE})
        assert visible_now() == visible - {"docs_write_note"}
    if "repair" in routed:
        store.put_skill_state(session.session_id, "repair", RepairState(phase=PATCH).to_doc())
        assert "repair_apply_unified_patch" in visible_now()


def test_the_session_completes_only_once_both_gates_pass(two_skills, repair_workspace,
                                                        tmp_path):
    report = {"phase_contains": "phase: report"}
    script = [
        evidence_step(argv=["python3", "in/test_calc.py"]),
        finish_step(when={"phase_contains": "phase: patch"}, report="premature"),
        patch_step(), verify_step(), artifact_step(),
        finish_step(when=report, report="repaired"),
        call_step("docs_write_note", {"text": "add() adds"},
                  when={"tool_visible": "docs_write_note"}),
        finish_step(when=report, report="repaired and noted"),
    ]
    session = run_both(two_skills, repair_workspace, tmp_path / "store", script)
    finishes = [r for r in results(session) if r["name"] == "finish"]
    assert [r["ok"] for r in finishes] == [False, False, True]
    assert VERIFICATION_NOT_PASSED in finishes[0]["output"]["reasons"]
    assert NO_NOTE in finishes[0]["output"]["reasons"]
    assert finishes[1]["output"]["reasons"] == [NO_NOTE]  # repair's gate has passed
    assert session.status is SessionStatus.COMPLETED
    assert (repair_workspace / "docs" / "NOTE.md").read_text() == "add() adds"


def test_both_protected_paths_hold_for_every_writer(two_skills, repair_workspace, tmp_path):
    protected = {"tests/t.py": "x = 1\n", "docs/locked/a.md": "x = 1\n"}
    for path, text in protected.items():
        (repair_workspace / path).parent.mkdir(parents=True)
        (repair_workspace / path).write_text(text)
    script = [evidence_step(log_path="in/fail.log")]
    for path in protected:
        script.append(call_step("fs_write", {"path": path, "content": "x = 2\n"}))
        script.append(patch_step(target=path, body="@@ -1,1 +1,1 @@\n-x = 1\n+x = 2\n"))
    # filters off, so that fs_write is offered: a policy holds for hidden tools too
    session = run_both(two_skills, repair_workspace, tmp_path / "store", script,
                       apply_tool_filters=False)
    writes = [r for r in results(session) if r["name"] != "repair_collect_evidence"]
    assert [(r["name"], r["ok"]) for r in writes] == [
        ("fs_write", False), ("repair_apply_unified_patch", False)] * 2
    for path, text in protected.items():
        assert (repair_workspace / path).read_text() == text


def test_the_patch_guard_refuses_every_routed_skills_protected_paths(
        two_skills, repair_workspace, tmp_path):
    locked = repair_workspace / "docs" / "locked" / "a.md"
    locked.parent.mkdir(parents=True)
    locked.write_text("x = 1\n")
    script = [evidence_step(log_path="in/fail.log"),
              patch_step(target="docs/locked/a.md", body="@@ -1,1 +1,1 @@\n-x = 1\n+x = 2\n")]
    session = run_both(two_skills, repair_workspace, tmp_path / "store", script)
    call = next(e.payload for e in session.history if e.kind is EventKind.TOOL_CALL
                and e.payload["name"] == "repair_apply_unified_patch")
    assert call["accepted"] is False
    result = next(r for r in results(session) if r["name"] == "repair_apply_unified_patch")
    assert (result["output"]["error"], result["output"]["rejected_by"]) == ("rejected", "repair")
    assert "protected" in result["output"]["reason"]
    assert locked.read_text() == "x = 1\n"


@pytest.mark.parametrize("tool,fault", [
    ("docs_write_note", False),
    ("repair_run_verification", True),  # hidden in the patch phase
])
def test_a_forced_action_must_be_visible(two_skills, repair_workspace, tmp_path, tool, fault):
    two_skills.lookup("docs").config["force_on_text"] = tool
    script = [evidence_step(log_path="in/fail.log"),
              {"when": {"phase_contains": "phase: patch"}, "respond": {"text": "hm"}}]
    session = run_both(two_skills, repair_workspace, tmp_path / "store", script)
    reply = next(i for i, e in enumerate(session.history)
                 if e.kind is EventKind.ASSISTANT_MESSAGE and e.payload["text"] == "hm")
    after = session.history[reply + 1]
    if fault:
        assert after.kind is EventKind.SYSTEM_NOTE
        assert (after.payload["note"], after.payload["skill_id"], after.payload["program_id"]) \
            == ("hook_fault", "docs", "docs.after_llm")
        assert tool in after.payload["detail"]
    else:
        assert (after.kind, after.payload) == (EventKind.GUIDANCE_INJECTION, {
            "skill_id": "docs", "text": f"You must now call `{tool}`."})


def test_the_docs_workflow_runs_with_no_hook_program_of_its_own(two_skills):
    assert [h.stage for h in two_skills.lookup("docs").hooks] == ["after_llm_response"]


def test_an_out_of_phase_call_is_refused_by_its_skills_workflow(
        two_skills, repair_workspace, tmp_path):
    # filters off, so that the done phase still offers docs_write_note
    script = [call_step("docs_write_note", {"text": "late"})]
    session = run_both(two_skills, repair_workspace, tmp_path / "store", script,
                       routed=("docs",), state={"docs": {"phase": DONE}},
                       apply_tool_filters=False)
    result, = results(session)
    assert (result["ok"], result["output"]["error"], result["output"]["rejected_by"]) == \
        (False, "rejected", "docs")
    assert result["output"]["reason"] == "docs_write_note is not available in phase done"
    assert not (repair_workspace / "docs" / "NOTE.md").exists()  # the executor never ran


def test_a_transition_needs_no_after_tool_program(two_skills, repair_workspace, tmp_path):
    script = [call_step("docs_write_note", {"text": "noted"}),
              finish_step(when={"tool_visible": "finish"}, report="noted")]
    session = run_both(two_skills, repair_workspace, tmp_path / "store", script,
                       routed=("docs",))
    assert session.skill_state["docs"] == {"phase": DONE}
    assert session.status is SessionStatus.COMPLETED


def test_a_workflow_refuses_only_its_own_skills_tools(two_skills, repair_workspace, tmp_path):
    # repair_notes_write carries repair's prefix, but repair_notes owns it
    pkg = tmp_path / "repair_notes"
    pkg.mkdir()
    (pkg / "manifest.json").write_text(json.dumps({
        "skill_id": "repair_notes", "version": "0.1.0", "description": "notes",
        "task_types": ["code_repair"], "trigger_keywords": [], "hooks": [], "policy": {},
        "tools": [{"name": "repair_notes_write", "description": "", "executor_id":
                   "repair_notes.write", "params": {"type": "object", "fields": {
                       "text": {"type": "string"}}, "required": ["text"]}}],
    }))
    two_skills.load_skill_package(pkg)
    script = [call_step("repair_notes_write", {"text": "seen in reproduce"})]
    session = run_both(two_skills, repair_workspace, tmp_path / "store", script,
                       routed=("repair", "repair_notes"))
    assert session.skill_state["repair"]["phase"] == REPRODUCE
    result, = results(session)
    assert result["ok"], result["output"]
    assert (repair_workspace / "notes" / "repair.md").read_text() == "seen in reproduce"
