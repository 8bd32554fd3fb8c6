"""The repair skill: inference rules, guards, executors, transitions, gates."""

import json
from pathlib import Path

import pytest

from skillet import SessionStore
from skillet.backends import ModelResponse, ToolCallRequest
from skillet.errors import (
    CommandNotAllowed,
    EmptyEvidence,
    HunkMismatch,
    StepBudgetExhausted,
    TargetMissing,
    ToolError,
)
from skillet.execution import ExecutionContext, RuntimeServices
from skillet.hooks import ContinuationKind, HookPipeline
from skillet.repair import (
    DIAGNOSE,
    PATCH,
    PHASE_ACTIONS,
    REPORT,
    REPRODUCE,
    VERIFY,
    RepairState,
    apply_unified_patch,
    collect_evidence,
    completion_gate_reasons,
    infer_required_artifacts,
    normalize_failure_signature,
    run_verification,
    workflow_message,
    write_artifact,
)

from conftest import (
    CALC_PATCH,
    evidence_step,
    make_runtime,
    patch_step,
    session_snapshots,
    submit_repair_task,
)


def make_ctx(ws, allowlist=("python3", "echo"), skill=None):
    return ExecutionContext(
        workspace_root=ws,
        command_allowlist=list(allowlist),
        command_timeout_s=10.0,
        output_truncate_bytes=32768,
        protected_globs=list(skill.policy.protected_path_globs) if skill else [],
        services=RuntimeServices(delegate=lambda *a: {}, finish=lambda *a: {}),
        skill=skill,
    )


@pytest.fixture
def rig(repair_workspace, tmp_path):
    # fresh registry per test: TestTransitions pokes at manifest config
    from skillet import SkillRegistry, builtin_skills_dir
    registry = SkillRegistry()
    registry.load_all(builtin_skills_dir())
    with SessionStore(tmp_path / "store") as store:
        session = store.create_session(
            "fix the bug", "code_repair", repair_workspace,
            "write the summary to `out/report.md`", routed_skills=["repair"],
        )
        yield HookPipeline(registry, store), store, session


def set_phase(store, session, phase, **extra):
    state = RepairState(phase=phase)
    for key, value in extra.items():
        setattr(state, key, value)
    store.put_skill_state(session.session_id, "repair", state.to_doc())
    return state


def candidate_tools(registry):
    from skillet.workspace import orchestration_schemas
    return orchestration_schemas() + registry.lookup("repair").tools


class TestInferRequiredArtifacts:
    WS = Path("/anywhere")

    def test_backticked_path(self):
        got = infer_required_artifacts("write the summary to `out/report.md`", self.WS)
        assert got == ["out/report.md"]

    def test_no_pathlike_tokens(self):
        assert infer_required_artifacts("make the tests pass", self.WS) == []

    def test_duplicates_collapse(self):
        text = "save `out/r.md` and make sure out/r.md is complete"
        assert infer_required_artifacts(text, self.WS) == ["out/r.md"]

    def test_bare_extension_token_counts(self):
        assert infer_required_artifacts("produce notes.txt when done", self.WS) == ["notes.txt"]

    def test_slash_token_with_punctuation(self):
        got = infer_required_artifacts("deliver out/summary.json, then stop.", self.WS)
        assert got == ["out/summary.json"]

    def test_escaping_tokens_are_ignored(self):
        assert infer_required_artifacts("never touch ../secrets.txt", self.WS) == []

    def test_order_of_appearance(self):
        got = infer_required_artifacts("emit `b/two.md` after `a/one.md`? no: `b/two.md` first",
                                       self.WS)
        assert got == ["b/two.md", "a/one.md"]


class TestFailureSignature:
    def test_picks_first_error_line_and_masks(self):
        sig = normalize_failure_signature(
            "collecting items\n/home/u/project/mod.py:42: AssertionError: want 5 got 12\n"
        )
        assert sig == "mod.py:N: AssertionError: want N got N"

    def test_falls_back_to_first_line(self):
        assert normalize_failure_signature("nothing suspicious\nat all\n") == "nothing suspicious"

    def test_empty_output(self):
        assert normalize_failure_signature("   \n \n") is None

    def test_stability_across_paths_and_numbers(self):
        a = normalize_failure_signature("Error in /tmp/x1/f.py line 10")
        b = normalize_failure_signature("Error in /var/z9/f.py line 77")
        assert a == b


class TestVisibility:
    EXPECTED = {
        REPRODUCE: {"repair_collect_evidence"},
        DIAGNOSE: {"repair_collect_evidence", "repair_apply_unified_patch"},
        PATCH: {"repair_collect_evidence", "repair_apply_unified_patch"},
        VERIFY: {"repair_run_verification"},
        REPORT: {"repair_write_artifact"},
    }

    @pytest.mark.parametrize("phase", list(EXPECTED))
    def test_phase_filter_matches_policy_table(self, rig, registry, phase):
        pipeline, store, session = rig
        set_phase(store, session, phase)
        outcome = pipeline.run_before_llm(session, candidate_tools(registry))
        repair_visible = {t.name for t in outcome.visible_tools if t.name.startswith("repair_")}
        assert repair_visible == self.EXPECTED[phase]

    def test_mutating_orchestration_tools_hidden(self, rig, registry):
        pipeline, store, session = rig
        set_phase(store, session, PATCH)
        outcome = pipeline.run_before_llm(session, candidate_tools(registry))
        names = {t.name for t in outcome.visible_tools}
        assert "fs_write" not in names
        assert "run_command" not in names
        assert "delegate_subtask" not in names
        assert {"fs_read", "finish"} <= names

    def test_guidance_message_contents(self, rig, registry):
        pipeline, store, session = rig
        set_phase(store, session, VERIFY, failure_signature="AssertionError: want N")
        outcome = pipeline.run_before_llm(session, candidate_tools(registry))
        (skill_id, text), = outcome.injections
        assert skill_id == "repair"
        assert "phase: verify" in text
        assert "reproduce -> patch -> verify -> report" in text
        assert "blocked until verification has passed" in text
        assert "out/report.md" in text
        assert "repair_apply_unified_patch" in text
        assert '{"name", "type", "args"}' in text
        assert "AssertionError: want N" in text

    def test_required_artifacts_inferred_once_per_session(self, rig, monkeypatch):
        import skillet.repair as repair_module
        pipeline, store, session = rig
        resolved = []
        real_resolve = repair_module.resolve

        def counting_resolve(root, raw):
            resolved.append(raw)
            return real_resolve(root, raw)

        monkeypatch.setattr(repair_module, "resolve", counting_resolve)
        tools = candidate_tools(pipeline.registry)
        first = pipeline.run_before_llm(session, tools)
        assert "out/report.md" in resolved
        snapshots = session_snapshots(store, session.session_id)
        resolved.clear()
        for _ in range(3):
            again = pipeline.run_before_llm(session, tools)
            assert again.injections == first.injections
        assert resolved == []
        assert session_snapshots(store, session.session_id) == snapshots
        assert store.get_skill_state(session.session_id, "repair")["required_artifacts"] == \
            ["out/report.md"]

    def test_reopened_session_does_not_infer_again(self, registry, repair_workspace,
                                                   tmp_path, monkeypatch):
        import skillet.repair as repair_module
        store_dir = tmp_path / "store"
        runtime = make_runtime(registry, repair_workspace, store_dir,
                               [evidence_step(argv=["python3", "in/test_calc.py"])])
        session = submit_repair_task(runtime, repair_workspace)
        with pytest.raises(StepBudgetExhausted):
            runtime.run_until_quiescent(1)
        runtime.store.close()

        resolved = []
        real_resolve = repair_module.resolve

        def counting_resolve(root, raw):
            resolved.append(raw)
            return real_resolve(root, raw)

        monkeypatch.setattr(repair_module, "resolve", counting_resolve)
        reopened = make_runtime(registry, repair_workspace, store_dir, [patch_step()])
        reopened.queue.enqueue(session.session_id, "followup")
        with pytest.raises(StepBudgetExhausted):
            reopened.run_until_quiescent(1)
        # only the patch target, by the guard and the executor: done_when is
        # not parsed again
        assert set(resolved) == {"in/calc.py"}
        assert reopened.store.get_skill_state(session.session_id, "repair")[
            "required_artifacts"] == ["out/report.md"]

    def test_required_artifacts_written_back_to_state(self, rig):
        pipeline, store, session = rig
        pipeline.run_before_llm(session, candidate_tools(pipeline.registry))
        state = store.get_skill_state(session.session_id, "repair")
        assert state["required_artifacts"] == ["out/report.md"]


class TestAfterLlmForcing:
    def force_kind(self, rig, registry, phase, **extra):
        pipeline, store, session = rig
        set_phase(store, session, phase, **extra)
        return pipeline.run_after_llm(session, ModelResponse(text="thinking out loud"))

    def test_reproduce_forces_evidence(self, rig, registry):
        decision = self.force_kind(rig, registry, REPRODUCE)
        assert decision.kind is ContinuationKind.FORCE_ACTION
        assert decision.tool_name == "repair_collect_evidence"

    def test_verify_forces_verification(self, rig, registry):
        decision = self.force_kind(rig, registry, VERIFY)
        assert decision.kind is ContinuationKind.FORCE_ACTION
        assert decision.tool_name == "repair_run_verification"

    @pytest.mark.parametrize("phase", [DIAGNOSE, PATCH, REPORT])
    def test_open_gates_left_to_the_completion_gate(self, rig, registry, phase):
        # gates are open (nothing verified, no artifact); the planner, not
        # the hook, consults the gate and blocks the finish
        decision = self.force_kind(rig, registry, phase)
        assert decision.kind is ContinuationKind.ALLOW_FINISH

    def test_tool_call_proceeds_untouched(self, rig, registry):
        pipeline, store, session = rig
        set_phase(store, session, REPRODUCE)
        response = ModelResponse(tool_call=ToolCallRequest("repair_collect_evidence", {}))
        assert pipeline.run_after_llm(session, response).kind is ContinuationKind.PROCEED_TO_TOOL

    def test_closed_gates_allow_finish(self, rig, registry, repair_workspace):
        pipeline, store, session = rig
        (repair_workspace / "out").mkdir()
        (repair_workspace / "out" / "report.md").write_text("done")
        set_phase(store, session, REPORT, verification_passed=True)
        decision = pipeline.run_after_llm(session, ModelResponse(text="all done"))
        assert decision.kind is ContinuationKind.ALLOW_FINISH


class TestGuards:
    def reject_reason(self, rig, phase, name, args):
        pipeline, store, session = rig
        set_phase(store, session, phase)
        outcome = pipeline.run_before_tool(
            session, {"name": name, "args": args, "call_id": "call-1"})
        return outcome

    def test_protected_path_rejected_with_redirect(self, rig, repair_workspace):
        (repair_workspace / "tests").mkdir()
        (repair_workspace / "tests" / "test_x.py").write_text("assert True\n")
        outcome = self.reject_reason(rig, PATCH, "repair_apply_unified_patch",
                                     {"target": "tests/test_x.py", "body": CALC_PATCH})
        assert not outcome.allowed
        assert "protected" in outcome.reason
        assert "repair_write_artifact" in outcome.redirect_hint

    def test_missing_hunk_marker_named(self, rig):
        outcome = self.reject_reason(rig, PATCH, "repair_apply_unified_patch",
                                     {"target": "in/calc.py", "body": "just replace the minus"})
        assert not outcome.allowed
        assert "@@" in outcome.reason

    def test_append_only_on_existing_file(self, rig):
        body = "@@ -2,0 +3,1 @@\n+# trailing note\n"
        outcome = self.reject_reason(rig, PATCH, "repair_apply_unified_patch",
                                     {"target": "in/calc.py", "body": body})
        assert not outcome.allowed
        assert "append-only" in outcome.reason

    def test_oversize_patch(self, rig):
        body = "@@ -0,0 +1,401 @@\n" + "".join(f"+line {i}\n" for i in range(401))
        outcome = self.reject_reason(rig, PATCH, "repair_apply_unified_patch",
                                     {"target": "in/fresh.py", "body": body})
        assert not outcome.allowed
        assert "401" in outcome.reason

    def test_missing_target_not_creation(self, rig):
        outcome = self.reject_reason(rig, PATCH, "repair_apply_unified_patch",
                                     {"target": "in/ghost.py", "body": CALC_PATCH})
        assert not outcome.allowed
        assert "does not exist" in outcome.reason

    def test_target_escape(self, rig):
        outcome = self.reject_reason(rig, PATCH, "repair_apply_unified_patch",
                                     {"target": "../decoy/keep.txt", "body": CALC_PATCH})
        assert not outcome.allowed
        assert "escapes" in outcome.reason

    def test_empty_check_list(self, rig):
        outcome = self.reject_reason(rig, VERIFY, "repair_run_verification", {"checks": []})
        assert not outcome.allowed
        assert "non-empty" in outcome.reason

    def test_empty_check_list_also_fails_schema_validation(self, rig):
        from skillet.schema import validate_action_args
        pipeline, _, _ = rig
        schema = next(t for t in pipeline.registry.lookup("repair").tools
                      if t.name == "repair_run_verification")
        result = validate_action_args(schema, {"checks": []})
        assert not result.ok

    def test_phase_mismatch_rejected(self, rig):
        outcome = self.reject_reason(rig, REPRODUCE, "repair_apply_unified_patch",
                                     {"target": "in/calc.py", "body": CALC_PATCH})
        assert not outcome.allowed
        assert "not available in phase reproduce" in outcome.reason

    def test_evidence_allowed_in_patch_phase(self, rig):
        outcome = self.reject_reason(rig, PATCH, "repair_collect_evidence",
                                     {"log_path": "in/fail.log"})
        assert outcome.allowed

    def test_finish_passes_through(self, rig):
        outcome = self.reject_reason(rig, REPRODUCE, "finish", {"report_text": "x"})
        assert outcome.allowed  # gates handle it at completion time


class TestEvidenceExecutor:
    def test_failing_command_yields_signature(self, repair_workspace):
        out = collect_evidence({"command": ["python3", "in/test_calc.py"]},
                               make_ctx(repair_workspace))
        assert out["exit_code"] != 0
        assert "AssertionError" in out["output"]
        assert "N" in out["signature"]

    def test_log_path_evidence(self, repair_workspace):
        out = collect_evidence({"log_path": "in/fail.log"}, make_ctx(repair_workspace))
        assert out["exit_code"] is None
        assert out["signature"] == "AssertionError: add(N,N) returned -N"

    def test_missing_log_is_empty_evidence(self, repair_workspace):
        with pytest.raises(EmptyEvidence):
            collect_evidence({"log_path": "in/nope.log"}, make_ctx(repair_workspace))

    def test_silent_success_is_empty_evidence(self, repair_workspace):
        with pytest.raises(EmptyEvidence):
            collect_evidence({"command": ["python3", "-c", "pass"]},
                             make_ctx(repair_workspace))

    def test_output_is_cut_to_the_byte_cap(self, repair_workspace):
        (repair_workspace / "in" / "wide.log").write_text("é" * 20, encoding="utf-8")
        ctx = make_ctx(repair_workspace)
        ctx.output_truncate_bytes = 21
        out = collect_evidence({"log_path": "in/wide.log"}, ctx)
        assert out["output"] == "é" * 10

    def test_command_allowlist_enforced(self, repair_workspace):
        with pytest.raises(CommandNotAllowed):
            collect_evidence({"command": ["bash", "-c", "exit 1"]},
                             make_ctx(repair_workspace, allowlist=("python3",)))


class TestPatchExecutor:
    def test_success_rewrites_file(self, repair_workspace):
        out = apply_unified_patch({"target": "in/calc.py", "body": CALC_PATCH},
                                  make_ctx(repair_workspace))
        assert out == {"target": "in/calc.py", "created": False,
                       "hunks": 1, "changed_lines": 2}
        assert "a + b" in (repair_workspace / "in" / "calc.py").read_text()

    def test_mismatch_leaves_file_byte_identical(self, repair_workspace):
        target = repair_workspace / "in" / "calc.py"
        target.write_text("something else entirely\n")
        before = target.read_bytes()
        with pytest.raises(HunkMismatch):
            apply_unified_patch({"target": "in/calc.py", "body": CALC_PATCH},
                                make_ctx(repair_workspace))
        assert target.read_bytes() == before

    def test_pure_creation(self, repair_workspace):
        body = "@@ -0,0 +1,2 @@\n+alpha\n+beta\n"
        out = apply_unified_patch({"target": "in/new.txt", "body": body},
                                  make_ctx(repair_workspace))
        assert out["created"] is True
        assert (repair_workspace / "in" / "new.txt").read_text() == "alpha\nbeta\n"

    def test_missing_target(self, repair_workspace):
        with pytest.raises(TargetMissing):
            apply_unified_patch({"target": "in/ghost.py", "body": CALC_PATCH},
                                make_ctx(repair_workspace))


class TestVerificationExecutor:
    def test_command_exit_zero_pass_and_fail(self, repair_workspace):
        out = run_verification({"checks": [
            {"name": "ok", "type": "command_exit_zero",
             "args": {"argv": ["python3", "-c", "print('y')"]}},
            {"name": "bad", "type": "command_exit_zero",
             "args": {"argv": ["python3", "-c", "raise SystemExit(3)"]}},
        ]}, make_ctx(repair_workspace))
        assert out["passed"] is False
        assert [(c["name"], c["passed"]) for c in out["checks"]] == [("ok", True), ("bad", False)]

    def test_file_checks(self, repair_workspace):
        out = run_verification({"checks": [
            {"name": "there", "type": "file_exists", "args": {"path": "in/calc.py"}},
            {"name": "content", "type": "file_contains",
             "args": {"path": "in/calc.py", "needle": "def add"}},
            {"name": "missing", "type": "file_exists", "args": {"path": "in/zzz.py"}},
        ]}, make_ctx(repair_workspace))
        results = {c["name"]: c["passed"] for c in out["checks"]}
        assert results == {"there": True, "content": True, "missing": False}

    def test_output_matches(self, repair_workspace):
        out = run_verification({"checks": [
            {"name": "regex", "type": "output_matches",
             "args": {"argv": ["echo", "value=42"], "pattern": r"value=\d+"}},
        ]}, make_ctx(repair_workspace))
        assert out["passed"] is True

    def test_disallowed_command_raises_not_fails(self, repair_workspace):
        with pytest.raises(CommandNotAllowed):
            run_verification({"checks": [
                {"name": "evil", "type": "command_exit_zero", "args": {"argv": ["rm", "-rf"]}},
            ]}, make_ctx(repair_workspace))

    def test_unknown_check_type_fails_that_check(self, repair_workspace):
        out = run_verification({"checks": [
            {"name": "odd", "type": "file_exists", "args": {"path": "in/calc.py"}},
        ]}, make_ctx(repair_workspace))
        assert out["passed"] is True


class TestTransitions:
    def drive_after_tool(self, rig, phase, name, ok, result, config_extra=None, **state_extra):
        pipeline, store, session = rig
        set_phase(store, session, phase, **state_extra)
        if config_extra:
            manifest = pipeline.registry.lookup("repair")
            manifest.config = {**manifest.config, **config_extra}
        pipeline.run_after_tool(session, {"name": name, "ok": ok, "args": {},
                                          "result": result, "seq": 7})
        return RepairState.from_doc(store.get_skill_state(session.session_id, "repair"))

    def test_evidence_advances_reproduce_to_patch(self, rig):
        state = self.drive_after_tool(rig, REPRODUCE, "repair_collect_evidence", True,
                                      {"signature": "AssertionError: want N"})
        assert state.phase == PATCH
        assert state.failure_signature == "AssertionError: want N"
        assert state.last_tool == {"name": "repair_collect_evidence", "ok": True, "seq": 7}

    def test_evidence_in_diagnose_keeps_phase(self, rig):
        state = self.drive_after_tool(rig, DIAGNOSE, "repair_collect_evidence", True,
                                      {"signature": "sig"})
        assert state.phase == DIAGNOSE

    def test_contextual_diagnosis_reroutes_reproduce(self, rig):
        state = self.drive_after_tool(rig, REPRODUCE, "repair_collect_evidence", True,
                                      {"signature": "sig"},
                                      config_extra={"contextual_diagnosis": True})
        assert state.phase == DIAGNOSE

    def test_failed_evidence_does_not_advance(self, rig):
        state = self.drive_after_tool(rig, REPRODUCE, "repair_collect_evidence", False,
                                      {"error": "empty_evidence"})
        assert state.phase == REPRODUCE

    def test_patch_advances_to_verify(self, rig):
        state = self.drive_after_tool(rig, PATCH, "repair_apply_unified_patch", True,
                                      {"target": "in/calc.py"})
        assert state.phase == VERIFY

    def test_diagnose_patch_rejoins_main_flow(self, rig):
        state = self.drive_after_tool(rig, DIAGNOSE, "repair_apply_unified_patch", True,
                                      {"target": "in/calc.py"})
        assert state.phase == PATCH

    def test_verification_pass_advances_to_report(self, rig):
        state = self.drive_after_tool(rig, VERIFY, "repair_run_verification", True,
                                      {"passed": True, "checks": []})
        assert state.phase == REPORT
        assert state.verification_passed is True

    def test_verification_failure_returns_to_patch(self, rig):
        state = self.drive_after_tool(
            rig, VERIFY, "repair_run_verification", True,
            {"passed": False,
             "checks": [{"name": "tests", "passed": False},
                        {"name": "style", "passed": True}]})
        assert state.phase == PATCH
        assert state.verification_passed is False


class TestCompletionGate:
    def test_all_clear(self, repair_workspace):
        (repair_workspace / "out").mkdir()
        (repair_workspace / "out" / "report.md").write_text("r")
        state = RepairState(phase=REPORT, verification_passed=True,
                            required_artifacts=["out/report.md"])
        assert completion_gate_reasons(state, repair_workspace) == []

    def test_verification_not_passed(self, repair_workspace):
        state = RepairState(phase=REPORT, verification_passed=False)
        assert completion_gate_reasons(state, repair_workspace) == ["verification not passed"]

    def test_missing_artifact_reason_string(self, repair_workspace):
        state = RepairState(phase=REPORT, verification_passed=True,
                            required_artifacts=["out/report.md"])
        assert completion_gate_reasons(state, repair_workspace) == \
            ["missing artifact out/report.md"]

    def test_reasons_accumulate(self, repair_workspace):
        state = RepairState(verification_passed=False, required_artifacts=["out/a.md"])
        reasons = completion_gate_reasons(state, repair_workspace)
        assert reasons == ["verification not passed", "missing artifact out/a.md"]


class TestArtifactExecutor:
    def test_write_and_relative_path(self, repair_workspace):
        out = write_artifact({"path": "out/report.md", "content": "# done\n"},
                             make_ctx(repair_workspace))
        assert out["path"] == "out/report.md"
        assert (repair_workspace / "out" / "report.md").read_text() == "# done\n"

    def test_escape_rejected(self, repair_workspace):
        from skillet.errors import PathEscape
        with pytest.raises(PathEscape):
            write_artifact({"path": "/etc/owned", "content": "x"}, make_ctx(repair_workspace))

    def test_protected_path_refused_before_any_write(self, repair_workspace, registry):
        protected = repair_workspace / "tests" / "t.py"
        protected.parent.mkdir()
        protected.write_text("assert True\n")
        ctx = make_ctx(repair_workspace, skill=registry.lookup("repair"))
        with pytest.raises(ToolError, match="protected path"):
            write_artifact({"path": "tests/t.py", "content": "# clobbered\n"}, ctx)
        assert protected.read_text() == "assert True\n"

    def test_path_outside_artifact_dir_refused_before_any_write(self, repair_workspace,
                                                                  registry):
        calc = repair_workspace / "in" / "calc.py"
        before = calc.read_bytes()
        ctx = make_ctx(repair_workspace, skill=registry.lookup("repair"))
        for path in ("in/calc.py", "in/notes.md", "out"):
            with pytest.raises(ToolError, match="outside the artifact directory"):
                write_artifact({"path": path, "content": "x"}, ctx)
        assert calc.read_bytes() == before
        assert not (repair_workspace / "in" / "notes.md").exists()
        assert not (repair_workspace / "out").exists()


def test_workflow_message_is_pure():
    state = RepairState(phase=PATCH, failure_signature="sig N")
    a = workflow_message(state, ["x", "y"], ["out/r.md"])
    b = workflow_message(state, ["x", "y"], ["out/r.md"])
    assert a == b
    assert "phase: patch" in a


def test_phase_actions_cover_all_phases():
    assert set(PHASE_ACTIONS) == {REPRODUCE, DIAGNOSE, PATCH, VERIFY, REPORT}
