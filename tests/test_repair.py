"""The repair skill: inference rules, guards, executors, transitions, gates."""

import json
import tracemalloc
from pathlib import Path

import pytest

from skillet import SessionStore, repair
from skillet.backends import ModelResponse, ToolCallRequest
from skillet.errors import (
    CommandNotAllowed,
    EmptyEvidence,
    HunkMismatch,
    StepBudgetExhausted,
    TargetMissing,
    ToolError,
)
from skillet.execution import ExecutionContext
from skillet.hooks import ForcedAction, HookPipeline
from skillet.registry import PolicyConfig
from skillet.repair import (
    PHASE_EDGES,
    RepairState,
    apply_unified_patch,
    collect_evidence,
    completion_gate_reasons,
    normalize_failure_signature,
    run_verification,
    workflow_message,
    write_artifact,
)
from skillet.workspace import anchor_globs, infer_required_artifacts, resolve

from conftest import (
    CALC_PATCH,
    REPAIR_DONE_WHEN,
    canonical_runtime,
    evidence_step,
    finish_step,
    make_runtime,
    patch_step,
    repair_script,
    session_snapshots,
    submit_repair_task,
    verify_step,
)

# the phases of the repair manifest's workflow
REPRODUCE, DIAGNOSE, PATCH, VERIFY, REPORT = "reproduce", "diagnose", "patch", "verify", "report"


def make_ctx(ws, allowlist=("python3", "echo"), skill=None):
    return ExecutionContext(
        workspace_root=ws,
        command_allowlist=list(allowlist),
        command_timeout_s=10.0,
        output_truncate_bytes=32768,
        protected_globs=anchor_globs(ws, skill.policy.protected_path_globs) if skill else [],
        artifact_dir=(skill.policy if skill else PolicyConfig()).artifact_dir,
    )


@pytest.fixture
def rig(repair_workspace, tmp_path):
    # fresh registry per test: TestTransitions pokes at manifest config
    from skillet import SkillRegistry, builtin_skills_dir
    registry = SkillRegistry()
    registry.load_all(builtin_skills_dir())
    store = SessionStore(tmp_path / "store")
    session = store.create_session(
        "fix the bug", "code_repair", repair_workspace,
        "write the summary to `out/report.md`", routed_skills=["repair"],
    )
    return HookPipeline(registry, store), store, session


def set_phase(store, session, phase, **extra):
    state = RepairState(phase=phase)
    for key, value in extra.items():
        setattr(state, key, value)
    store.put_skill_state(session.session_id, "repair", state.to_doc())
    return state


def count_inferences(monkeypatch) -> list[str]:
    """Record the done_when of every required-artifact inference from here on."""
    import skillet.sessions
    calls = []
    real = skillet.sessions.infer_required_artifacts

    def counting(done_when, root):
        calls.append(done_when)
        return real(done_when, root)

    monkeypatch.setattr(skillet.sessions, "infer_required_artifacts", counting)
    return calls


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
        assert infer_required_artifacts("nor `/etc/motd.txt` or `a/../../b.md`", self.WS) == []

    def test_a_symlink_out_of_the_root_is_required_and_never_satisfied(self, tmp_path):
        # the inference reads only the text; the gate resolves, and finds it missing
        ws, outside = tmp_path / "ws", tmp_path / "outside"
        ws.mkdir()
        outside.mkdir()
        (ws / "out").symlink_to(outside)
        (outside / "report.md").write_text("written through the link")
        required = infer_required_artifacts("write `out/report.md`", ws)
        assert required == ["out/report.md"]
        assert completion_gate_reasons(RepairState(phase=REPORT), required, ws) == \
            ["missing artifact out/report.md"]

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
        pipeline, store, session = rig
        inferred = count_inferences(monkeypatch)
        tools = candidate_tools(pipeline.registry)
        first = pipeline.run_before_llm(session, tools)
        assert "required artifacts: out/report.md" in first.injections[0][1]
        snapshots = session_snapshots(store, session.session_id)
        for _ in range(3):
            again = pipeline.run_before_llm(session, tools)
            assert again.injections == first.injections
        assert inferred == []  # the session's, from its create, serve every wakeup
        assert session_snapshots(store, session.session_id) == snapshots
        assert session.required_artifacts == ["out/report.md"]

    def test_reopened_session_does_not_infer_again(self, registry, repair_workspace,
                                                   tmp_path, monkeypatch):
        store_dir = tmp_path / "store"
        runtime = make_runtime(registry, repair_workspace, store_dir,
                               [evidence_step(argv=["python3", "in/test_calc.py"])])
        session = submit_repair_task(runtime, repair_workspace)
        with pytest.raises(StepBudgetExhausted):
            runtime.run_until_quiescent(1)

        inferred = count_inferences(monkeypatch)
        reopened = make_runtime(registry, repair_workspace, store_dir, [patch_step()])
        reopened.queue.enqueue(session.session_id, "followup")
        with pytest.raises(StepBudgetExhausted):
            reopened.run_until_quiescent(1)
        assert inferred == []  # the reload folds the meta record's list
        assert reopened.store.session(session.session_id).required_artifacts == \
            ["out/report.md"]

    def test_a_session_starts_in_the_workflows_initial_phase(self, rig):
        pipeline, store, session = rig
        manifest = pipeline.registry.lookup("repair")
        manifest.workflow = manifest.workflow._replace(initial=PATCH)
        outcome = pipeline.run_before_llm(session, candidate_tools(pipeline.registry))
        assert store.get_skill_state(session.session_id, "repair")["phase"] == PATCH
        assert "repair_apply_unified_patch" in {t.name for t in outcome.visible_tools}

    def test_first_snapshot_holds_only_the_skills_decisions(self, rig):
        pipeline, store, session = rig
        pipeline.run_before_llm(session, candidate_tools(pipeline.registry))
        state = store.get_skill_state(session.session_id, "repair")
        assert state == {"phase": REPRODUCE, "failure_signature": None}
        assert session.required_artifacts == ["out/report.md"]


class TestCompletionFacts:
    """Each completion fact has one home: the session's meta record holds the
    required artifacts, and the repair state holds only the skill's own
    decisions, from which verification_passed is read."""

    def test_inference_runs_once_per_session_at_create(self, registry, repair_workspace,
                                                       tmp_path, monkeypatch):
        inferred = count_inferences(monkeypatch)
        store_dir = tmp_path / "store"
        runtime = canonical_runtime(registry, repair_workspace, store_dir, delegated=True,
                                    single_worker=True)
        assert len(inferred) == 1  # the coordinator's, at its submission
        runtime.run_until_quiescent(25)
        assert [s.status.value for s in runtime.store.sessions()] == ["completed"] * 2
        assert inferred == ["child reports back", REPAIR_DONE_WHEN]
        reopened = SessionStore(store_dir)
        assert inferred == ["child reports back", REPAIR_DONE_WHEN]  # none on reload
        assert [s.required_artifacts for s in reopened.sessions()] == [[], ["out/report.md"]]

    def test_no_snapshot_of_a_full_run_copies_a_completion_fact(self, registry,
                                                                repair_workspace, tmp_path):
        runtime = make_runtime(registry, repair_workspace, tmp_path / "store",
                               repair_script())
        session = submit_repair_task(runtime, repair_workspace)
        runtime.run_until_quiescent(25)
        assert session.status.value == "completed"
        states = [r["state"] for r in session_snapshots(runtime.store, session.session_id)]
        assert [state["phase"] for state in states] == [REPRODUCE, PATCH, VERIFY, REPORT]
        assert all(set(state) == {"phase", "failure_signature"} for state in states)

    def test_a_reopened_stores_gate_blocks_finish_while_the_artifact_is_missing(
            self, registry, repair_workspace, tmp_path):
        store_dir = tmp_path / "store"
        runtime = make_runtime(registry, repair_workspace, store_dir, [
            evidence_step(argv=["python3", "in/test_calc.py"]), patch_step(), verify_step()])
        session = submit_repair_task(runtime, repair_workspace)
        with pytest.raises(StepBudgetExhausted):
            runtime.run_until_quiescent(3)
        assert runtime.store.get_skill_state(session.session_id, "repair")["phase"] == REPORT

        reopened = make_runtime(registry, repair_workspace, store_dir, [finish_step()])
        reopened.queue.enqueue(session.session_id, "followup")
        with pytest.raises(StepBudgetExhausted):
            reopened.run_until_quiescent(1)
        live = reopened.store.session(session.session_id)
        assert live.required_artifacts == ["out/report.md"]
        assert live.status.value != "completed"
        result = live.history[-1].payload
        assert (result["name"], result["ok"]) == ("finish", False)
        assert result["output"]["reasons"] == ["missing artifact out/report.md"]


class TestAfterLlmForcing:
    @staticmethod
    def after_llm(rig, response):
        """run_after_llm over the tools the phase's request offers."""
        pipeline, _, session = rig
        outcome = pipeline.run_before_llm(session, candidate_tools(pipeline.registry))
        return pipeline.run_after_llm(session, response, outcome.visible_tools)

    def force_kind(self, rig, registry, phase, **extra):
        _, store, session = rig
        set_phase(store, session, phase, **extra)
        return self.after_llm(rig, ModelResponse(text="thinking out loud"))

    def test_reproduce_forces_evidence(self, rig, registry):
        forced = self.force_kind(rig, registry, REPRODUCE)
        assert forced == ForcedAction("repair_collect_evidence", "repair")

    def test_verify_forces_verification(self, rig, registry):
        forced = self.force_kind(rig, registry, VERIFY)
        assert forced == ForcedAction("repair_run_verification", "repair")

    @pytest.mark.parametrize("phase", [DIAGNOSE, PATCH, REPORT])
    def test_open_gates_left_to_the_completion_gate(self, rig, registry, phase):
        # gates are open (nothing verified, no artifact); the planner, not
        # the hook, consults the gate and blocks the finish
        assert self.force_kind(rig, registry, phase) is None

    def test_tool_call_proceeds_untouched(self, rig, registry):
        _, store, session = rig
        set_phase(store, session, REPRODUCE)
        response = ModelResponse(tool_call=ToolCallRequest("repair_collect_evidence", {}))
        assert self.after_llm(rig, response) is None

    def test_closed_gates_allow_finish(self, rig, registry, repair_workspace):
        _, store, session = rig
        (repair_workspace / "out").mkdir()
        (repair_workspace / "out" / "report.md").write_text("done")
        set_phase(store, session, REPORT)
        assert self.after_llm(rig, ModelResponse(text="all done")) is None


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

    @pytest.mark.parametrize("before,after", [
        (b"a = 1\r\nb = 2\r\nc = 3", b"a = 1\r\nb = 3\r\nc = 3"),
        (b"a = 1\nb = 2\nc = 3", b"a = 1\nb = 3\nc = 3"),
    ], ids=["crlf_no_final_newline", "lf_no_final_newline"])
    def test_bytes_outside_the_hunk_are_kept(self, repair_workspace, before, after):
        target = repair_workspace / "in" / "calc.py"
        target.write_bytes(before)
        apply_unified_patch({"target": "in/calc.py", "body": "@@ -2,1 +2,1 @@\n-b = 2\n+b = 3\n"},
                            make_ctx(repair_workspace))
        assert target.read_bytes() == after

    def test_non_utf8_target_is_a_tool_error(self, repair_workspace):
        target = repair_workspace / "in" / "calc.py"
        target.write_bytes("caf\xe9 = 1\n".encode("latin-1"))
        with pytest.raises(ToolError, match="not UTF-8"):
            apply_unified_patch({"target": "in/calc.py",
                                 "body": "@@ -1,1 +1,1 @@\n-x\n+y\n"},
                                make_ctx(repair_workspace))
        assert target.read_bytes() == "caf\xe9 = 1\n".encode("latin-1")


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


class TestFileContains:
    def check(self, ws, needle, path="big.txt"):
        out = run_verification({"checks": [
            {"name": "c", "type": "file_contains", "args": {"path": path, "needle": needle}},
        ]}, make_ctx(ws))
        return out["checks"][0]["passed"]

    def test_needle_straddling_a_chunk_boundary(self, repair_workspace):
        chunk = repair._CHUNK_CHARS
        (repair_workspace / "big.txt").write_text(
            "a" * (chunk - 3) + "NEEDLE" + "b" * chunk, encoding="utf-8")
        assert self.check(repair_workspace, "NEEDLE")
        assert not self.check(repair_workspace, "NEEDLES")

    def test_multibyte_character_split_at_a_chunk_boundary(self, repair_workspace):
        chunk = repair._CHUNK_CHARS
        # the euro sign is the first chunk's last character, its three bytes
        # straddle the 64 KiB byte boundary too
        (repair_workspace / "big.txt").write_text(
            "a" * (chunk - 1) + "\u20acuro" + "b" * 10, encoding="utf-8")
        assert self.check(repair_workspace, "a\u20acu")
        assert not self.check(repair_workspace, "\ufffd")

    @pytest.mark.parametrize("data", [
        b"", b"abc", b"x\r\ny\r\nz", b"x\ry\r", b"ab\xffcd\xe2\x82",
        "caf\u00e9 \u20ac\U0001f600!".encode("utf-8"), b"abababab\nab",
    ])
    def test_agrees_with_a_search_of_the_whole_text(self, tmp_path, monkeypatch, data):
        monkeypatch.setattr(repair, "_CHUNK_CHARS", 2)
        path = tmp_path / "f.txt"
        path.write_bytes(data)
        whole = path.read_text(encoding="utf-8", errors="replace")
        needles = {"", "a", "ab", "bab", "abababab\nab", "x\ny", "\r\n", "\r", "y\nz",
                   "\ufffd", "b\ufffdc", "\ufffd\ufffd", "\u00e9 \u20ac", "\U0001f600!"}
        needles |= {whole[i:j] for i in range(len(whole)) for j in range(i, len(whole) + 1)}
        scoped = resolve(tmp_path, "f.txt")
        for needle in needles:
            assert repair._contains(scoped, needle) == (needle in whole), (data, needle)

    def test_a_large_file_is_searched_in_bounded_memory(self, repair_workspace):
        size = 2 * 1024 * 1024
        (repair_workspace / "big.txt").write_bytes(b"x" * (size - 6) + b"needle")
        tracemalloc.start()
        try:
            found = self.check(repair_workspace, "needle")
            absent = self.check(repair_workspace, "!")  # a one-character needle keeps no tail
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert (found, absent) == (True, False)
        assert peak < size // 4, peak


class TestTransitions:
    def drive_after_tool(self, rig, phase, name, ok, result, config_extra=None, **state_extra):
        pipeline, store, session = rig
        set_phase(store, session, phase, **state_extra)
        if config_extra:
            manifest = pipeline.registry.lookup("repair")
            manifest.config = {**manifest.config, **config_extra}
        pipeline.run_after_tool(session, {"name": name, "ok": ok, "args": {},
                                          "result": result})
        return RepairState.from_doc(store.get_skill_state(session.session_id, "repair"))

    def test_evidence_advances_reproduce_to_patch(self, rig):
        state = self.drive_after_tool(rig, REPRODUCE, "repair_collect_evidence", True,
                                      {"signature": "AssertionError: want N"})
        assert state.phase == PATCH
        assert state.failure_signature == "AssertionError: want N"

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
        state = RepairState(phase=REPORT)
        assert completion_gate_reasons(state, ["out/report.md"], repair_workspace) == []

    def test_verification_not_passed(self, repair_workspace):
        for phase in (REPRODUCE, DIAGNOSE, PATCH, VERIFY):
            assert completion_gate_reasons(RepairState(phase=phase), [], repair_workspace) == \
                ["verification not passed"]

    def test_missing_artifact_reason_string(self, repair_workspace):
        state = RepairState(phase=REPORT)
        assert completion_gate_reasons(state, ["out/report.md"], repair_workspace) == \
            ["missing artifact out/report.md"]

    def test_reasons_accumulate(self, repair_workspace):
        reasons = completion_gate_reasons(RepairState(), ["out/a.md"], repair_workspace)
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


def test_state_doc_round_trips_and_ignores_unknown_keys():
    state = RepairState(phase=VERIFY, failure_signature="sig N")
    doc = state.to_doc()
    assert doc == {"phase": VERIFY, "failure_signature": "sig N"}
    # an older snapshot's stored copies of the phase and the session's artifacts
    older = {**doc, "verification_passed": True, "required_artifacts": ["out/report.md"],
             "last_tool": "repair_apply_unified_patch"}
    assert RepairState.from_doc(older) == state
    assert RepairState.from_doc(older).verification_passed is False


def test_workflow_message_is_pure():
    state = RepairState(phase=PATCH, failure_signature="sig N")
    a = workflow_message(state, ["x", "y"], ["out/r.md"])
    b = workflow_message(state, ["x", "y"], ["out/r.md"])
    assert a == b
    assert "phase: patch" in a


def test_phase_edges_are_the_manifest_workflows_six():
    # written out here, so Criterion 2's oracle does not depend on the
    # manifest; the registry's load checks cover the block's consistency
    assert PHASE_EDGES == {(REPRODUCE, PATCH), (REPRODUCE, DIAGNOSE), (DIAGNOSE, PATCH),
                           (PATCH, VERIFY), (VERIFY, REPORT), (VERIFY, PATCH)}
