"""Hook pipeline composition: ordering, intersection, short-circuit, faults.

Uses synthetic skills whose hook programs are configured through module
globals, so each test states exactly what its hooks decide.
"""

import json

import pytest

from skillet import SessionStore, SkillRegistry
from skillet.backends import ModelResponse, ToolCallRequest
from skillet.bindings import HOOK_PROGRAMS
from skillet.errors import HookFault
from skillet.hooks import ContinuationKind, HookDecision, HookPipeline, Reject
from skillet.schema import ActionSchema, object_spec

# behavior the synthetic programs execute, set per test
BEHAVIOR: dict[str, object] = {}
CALLS: list[str] = []


def _program(name):
    def run(ctx):
        CALLS.append(name)
        behavior = BEHAVIOR.get(name)
        if callable(behavior):
            return behavior(ctx)
        return behavior
    return run


for _n in ("t.alpha_before_llm", "t.alpha_after_llm", "t.alpha_before_tool",
           "t.alpha_after_tool", "t.beta_before_llm", "t.beta_after_llm",
           "t.beta_before_tool", "t.beta_after_tool"):
    HOOK_PROGRAMS.setdefault(_n, _program(_n))


def synth_manifest(tmp_path, skill_id: str, order: int = 10):
    manifest = {
        "skill_id": skill_id,
        "version": "0.1.0",
        "description": f"synthetic {skill_id}",
        "task_types": ["misc"],
        "trigger_keywords": [],
        "tools": [],
        "hooks": [
            {"stage": "before_llm_call", "program_id": f"t.{skill_id}_before_llm", "order": order},
            {"stage": "after_llm_response", "program_id": f"t.{skill_id}_after_llm", "order": order},
            {"stage": "before_tool_call", "program_id": f"t.{skill_id}_before_tool", "order": order},
            {"stage": "after_tool_call", "program_id": f"t.{skill_id}_after_tool", "order": order},
        ],
        "policy": {},
    }
    pkg = tmp_path / skill_id
    pkg.mkdir()
    (pkg / "manifest.json").write_text(json.dumps(manifest))
    (pkg / "config.json").write_text("{}")
    return pkg


CANDIDATES = [
    ActionSchema(n, "", object_spec({}, []), "core.fs_read")
    for n in ("t_a", "t_b", "t_c")
]


@pytest.fixture
def rig(tmp_path):
    """Registry with skills alpha and beta routed, plus a live store session."""
    BEHAVIOR.clear()
    CALLS.clear()
    registry = SkillRegistry()
    registry.load_skill_package(synth_manifest(tmp_path, "alpha"))
    registry.load_skill_package(synth_manifest(tmp_path, "beta"))
    ws = tmp_path / "ws"
    ws.mkdir()
    with SessionStore(tmp_path / "store") as store:
        session = store.create_session("t", "misc", ws, "", routed_skills=["alpha", "beta"])
        yield HookPipeline(registry, store), store, session


class TestBeforeLlm:
    def test_no_hooks_means_all_candidates(self, tmp_path):
        registry = SkillRegistry()
        ws = tmp_path / "ws"
        ws.mkdir()
        with SessionStore(tmp_path / "store") as store:
            session = store.create_session("t", "misc", ws, "")
            outcome = HookPipeline(registry, store).run_before_llm(session, CANDIDATES)
        assert outcome.visible_tools == CANDIDATES
        assert outcome.injections == []

    def test_filters_intersect(self, rig):
        pipeline, _, session = rig
        BEHAVIOR["t.alpha_before_llm"] = HookDecision(tool_filter={"t_a", "t_b"})
        BEHAVIOR["t.beta_before_llm"] = HookDecision(tool_filter={"t_b", "t_c"})
        outcome = pipeline.run_before_llm(session, CANDIDATES)
        assert [t.name for t in outcome.visible_tools] == ["t_b"]

    def test_absent_filter_means_no_narrowing(self, rig):
        pipeline, _, session = rig
        BEHAVIOR["t.alpha_before_llm"] = HookDecision(injected_messages=["hello"])
        outcome = pipeline.run_before_llm(session, CANDIDATES)
        assert [t.name for t in outcome.visible_tools] == ["t_a", "t_b", "t_c"]
        assert outcome.injections == [("alpha", "hello")]

    def test_injections_in_hook_order(self, rig):
        pipeline, _, session = rig
        BEHAVIOR["t.alpha_before_llm"] = HookDecision(injected_messages=["one"])
        BEHAVIOR["t.beta_before_llm"] = HookDecision(injected_messages=["two"])
        outcome = pipeline.run_before_llm(session, CANDIDATES)
        assert outcome.injections == [("alpha", "one"), ("beta", "two")]

    def test_state_update_persists(self, rig):
        pipeline, store, session = rig
        BEHAVIOR["t.alpha_before_llm"] = HookDecision(state_update={"seen": 1})
        pipeline.run_before_llm(session, CANDIDATES)
        assert store.get_skill_state(session.session_id, "alpha") == {"seen": 1}
        assert store.get_skill_state(session.session_id, "beta") == {}

    def test_filters_ignored_when_disabled(self, rig):
        pipeline, store, session = rig
        pipeline.apply_tool_filters = False
        BEHAVIOR["t.alpha_before_llm"] = HookDecision(tool_filter={"t_a"})
        outcome = pipeline.run_before_llm(session, CANDIDATES)
        assert len(outcome.visible_tools) == 3


class TestAfterLlm:
    def test_default_proceed_when_tool_call(self, rig):
        pipeline, _, session = rig
        response = ModelResponse(text="", tool_call=ToolCallRequest("t_a", {}))
        assert pipeline.run_after_llm(session, response).kind is ContinuationKind.PROCEED_TO_TOOL

    def test_default_allow_finish_on_plain_text(self, rig):
        pipeline, _, session = rig
        decision = pipeline.run_after_llm(session, ModelResponse(text="done"))
        assert decision.kind is ContinuationKind.ALLOW_FINISH

    def test_first_non_proceed_wins(self, rig):
        pipeline, _, session = rig
        BEHAVIOR["t.alpha_after_llm"] = HookDecision(force_action="t_a")
        BEHAVIOR["t.beta_after_llm"] = HookDecision(force_action="t_b")
        decision = pipeline.run_after_llm(session, ModelResponse(text=""))
        assert decision.kind is ContinuationKind.FORCE_ACTION
        assert decision.tool_name == "t_a"
        assert decision.skill_id == "alpha"
        # the loser still ran (decisions are composed, conflict logged)
        assert "t.beta_after_llm" in CALLS

    def test_schedule_followup(self, rig):
        pipeline, _, session = rig
        BEHAVIOR["t.beta_after_llm"] = HookDecision(schedule_followup=True)
        decision = pipeline.run_after_llm(session, ModelResponse(text="hm"))
        assert decision.kind is ContinuationKind.SCHEDULE_FOLLOWUP


class TestBeforeTool:
    PENDING = {"name": "t_a", "args": {"x": 1}, "call_id": "call-1"}

    def test_allow_unchanged_with_no_deciding_hooks(self, rig):
        pipeline, _, session = rig
        outcome = pipeline.run_before_tool(session, dict(self.PENDING))
        assert outcome.allowed
        assert outcome.args == {"x": 1}

    def test_reject_short_circuits(self, rig):
        pipeline, _, session = rig
        BEHAVIOR["t.alpha_before_tool"] = HookDecision(
            reject=Reject(reason="nope", redirect_hint="try t_b"))
        outcome = pipeline.run_before_tool(session, dict(self.PENDING))
        assert not outcome.allowed
        assert (outcome.reason, outcome.redirect_hint) == ("nope", "try t_b")
        assert outcome.rejecting_skill == "alpha"
        assert "t.beta_before_tool" not in CALLS

    def test_rewrite_threads_through(self, rig):
        pipeline, _, session = rig
        BEHAVIOR["t.alpha_before_tool"] = HookDecision(rewrite_args={"x": 2})
        seen = {}
        def beta(ctx):
            seen["args"] = ctx.payload["args"]
            return None
        BEHAVIOR["t.beta_before_tool"] = beta
        outcome = pipeline.run_before_tool(session, dict(self.PENDING))
        assert outcome.allowed
        assert outcome.args == {"x": 2}
        assert seen["args"] == {"x": 2}


class TestAfterTool:
    RECORD = {"name": "t_a", "ok": True, "args": {}, "result": {}, "seq": 5}

    def test_no_hooks_no_updates(self, tmp_path):
        registry = SkillRegistry()
        ws = tmp_path / "ws"
        ws.mkdir()
        with SessionStore(tmp_path / "store") as store:
            session = store.create_session("t", "misc", ws, "")
            outcome = HookPipeline(registry, store).run_after_tool(session, dict(self.RECORD))
        assert not outcome.followup_needed

    def test_schedule_followup_sets_followup_needed(self, rig):
        pipeline, _, session = rig
        BEHAVIOR["t.beta_after_tool"] = HookDecision(schedule_followup=True)
        outcome = pipeline.run_after_tool(session, dict(self.RECORD))
        assert outcome.followup_needed

    def test_state_updates_applied_in_order(self, rig):
        pipeline, store, session = rig
        BEHAVIOR["t.alpha_after_tool"] = HookDecision(state_update={"k": "a"})
        BEHAVIOR["t.beta_after_tool"] = HookDecision(state_update={"k": "b"})
        pipeline.run_after_tool(session, dict(self.RECORD))
        assert store.get_skill_state(session.session_id, "alpha") == {"k": "a"}
        assert store.get_skill_state(session.session_id, "beta") == {"k": "b"}


class TestFaultsAndOrdering:
    def test_raising_hook_becomes_hook_fault(self, rig):
        pipeline, _, session = rig
        def bomb(ctx):
            raise RuntimeError("boom")
        BEHAVIOR["t.alpha_before_llm"] = bomb
        with pytest.raises(HookFault, match="alpha"):
            pipeline.run_before_llm(session, CANDIDATES)

    def test_stage_illegal_field_is_a_fault(self, rig):
        pipeline, _, session = rig
        BEHAVIOR["t.alpha_before_llm"] = HookDecision(force_action="t_a")
        with pytest.raises(HookFault, match="force_action"):
            pipeline.run_before_llm(session, CANDIDATES)

    def test_reject_invalid_outside_before_tool(self, rig):
        pipeline, _, session = rig
        BEHAVIOR["t.alpha_after_tool"] = HookDecision(reject=Reject("no"))
        with pytest.raises(HookFault, match="reject"):
            pipeline.run_after_tool(session, dict(TestAfterTool.RECORD))

    def test_execution_order_is_routing_then_declaration(self, rig):
        pipeline, _, session = rig
        pipeline.run_before_llm(session, CANDIDATES)
        assert CALLS == ["t.alpha_before_llm", "t.beta_before_llm"]

    def test_composition_is_deterministic(self, rig):
        pipeline, _, session = rig
        BEHAVIOR["t.alpha_before_llm"] = HookDecision(tool_filter={"t_a", "t_c"},
                                                      injected_messages=["m"])
        first = pipeline.run_before_llm(session, CANDIDATES)
        second = pipeline.run_before_llm(session, CANDIDATES)
        assert [t.name for t in first.visible_tools] == [t.name for t in second.visible_tools]
        assert first.injections == second.injections

    def test_hook_only_sees_own_skill_state(self, rig):
        pipeline, store, session = rig
        store.put_skill_state(session.session_id, "alpha", {"mine": True})
        seen = {}
        def peek(ctx):
            seen[ctx.skill_id] = ctx.state
            return None
        BEHAVIOR["t.alpha_before_llm"] = peek
        BEHAVIOR["t.beta_before_llm"] = peek
        pipeline.run_before_llm(session, CANDIDATES)
        assert seen["alpha"] == {"mine": True}
        assert seen["beta"] == {}
