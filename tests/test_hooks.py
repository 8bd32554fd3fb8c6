"""Hook pipeline composition: ordering, intersection, short-circuit, faults.

Uses synthetic skills whose hook programs are configured through module
globals, so each test states exactly what its hooks decide, and whose
workflow blocks each test writes out.
"""

import json

import pytest

from skillet import SessionStore, SkillRegistry
from skillet.backends import ModelResponse, ToolCallRequest
from skillet.bindings import HOOK_PROGRAMS
from skillet.errors import HookFault
from skillet.hooks import ForcedAction, HookDecision, HookPipeline, Reject
from skillet.schema import ActionSchema, object_spec
from skillet.sessions import read_log, snapshot_records
from skillet.workspace import orchestration_schemas

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


def synth_manifest(tmp_path, skill_id: str, order: int = 10, workflow=None):
    manifest = {
        "skill_id": skill_id,
        "version": "0.1.0",
        "description": f"synthetic {skill_id}",
        "task_types": ["misc"],
        "trigger_keywords": [],
        "tools": [{"name": f"{skill_id}_{n}", "description": "", "executor_id": "core.fs_read",
                   "params": {"type": "object", "fields": {}, "required": []}}
                  for n in ("x", "y")],
        "hooks": [
            {"stage": "before_llm_call", "program_id": f"t.{skill_id}_before_llm", "order": order},
            {"stage": "after_llm_response", "program_id": f"t.{skill_id}_after_llm", "order": order},
            {"stage": "before_tool_call", "program_id": f"t.{skill_id}_before_tool", "order": order},
            {"stage": "after_tool_call", "program_id": f"t.{skill_id}_after_tool", "order": order},
        ],
        "policy": {},
    }
    if workflow is not None:
        manifest["workflow"] = workflow
    pkg = tmp_path / skill_id
    pkg.mkdir()
    (pkg / "manifest.json").write_text(json.dumps(manifest))
    (pkg / "config.json").write_text("{}")
    return pkg


CANDIDATES = [
    ActionSchema(n, "", object_spec({}, []), "core.fs_read")
    for n in ("t_a", "t_b", "t_c")
]
# the runtime's tools, which a workflow may name
RUNTIME_TOOLS = [t for t in orchestration_schemas()
                 if t.name in ("fs_read", "fs_write", "run_command")]
# a workflow for alpha whose first phase moves on when alpha_x succeeds: to
# `passed` if its result says so, else to `later`
TWO_STEP = {"initial": "first", "phases": {
    "first": {"tools": ["alpha_x", "fs_read"], "next": [
        {"tool": "alpha_x", "when": {"result": "passed"}, "to": "passed"},
        {"tool": "alpha_x", "to": "later"}]},
    "passed": {"tools": ["alpha_y"]},
    "later": {"tools": ["alpha_x", "alpha_y"]},
}}


def one_phase(*tools):
    return {"initial": "only", "phases": {"only": {"tools": list(tools)}}}


def make_rig(tmp_path, alpha_workflow=None, beta_workflow=None):
    """Registry with skills alpha and beta routed, plus a live store session."""
    BEHAVIOR.clear()
    CALLS.clear()
    registry = SkillRegistry()
    registry.load_skill_package(synth_manifest(tmp_path, "alpha", workflow=alpha_workflow))
    registry.load_skill_package(synth_manifest(tmp_path, "beta", workflow=beta_workflow))
    ws = tmp_path / "ws"
    ws.mkdir()
    store = SessionStore(tmp_path / "store")
    session = store.create_session("t", "misc", ws, "", routed_skills=["alpha", "beta"])
    return HookPipeline(registry, store), store, session


@pytest.fixture
def rig(tmp_path):
    return make_rig(tmp_path)


class TestBeforeLlm:
    def test_no_hooks_means_all_candidates(self, tmp_path):
        registry = SkillRegistry()
        ws = tmp_path / "ws"
        ws.mkdir()
        store = SessionStore(tmp_path / "store")
        session = store.create_session("t", "misc", ws, "")
        outcome = HookPipeline(registry, store).run_before_llm(session, CANDIDATES)
        assert outcome.visible_tools == CANDIDATES
        assert outcome.injections == []

    def test_phases_intersect_on_the_runtimes_tools(self, tmp_path):
        pipeline, _, session = make_rig(tmp_path, one_phase("alpha_x", "fs_read", "fs_write"),
                                        one_phase("fs_write", "run_command"))
        own = list(pipeline.registry.lookup("alpha").tools)
        outcome = pipeline.run_before_llm(session, RUNTIME_TOOLS + own)
        # alpha's phase hides alpha_y; alpha_x passes beta's, which governs
        # only beta's own tools and the runtime's
        assert [t.name for t in outcome.visible_tools] == ["fs_write", "alpha_x"]

    def test_the_phase_comes_from_the_skill_state(self, tmp_path):
        pipeline, store, session = make_rig(tmp_path, TWO_STEP)
        own = list(pipeline.registry.lookup("alpha").tools)
        store.put_skill_state(session.session_id, "alpha", {"phase": "later"})
        outcome = pipeline.run_before_llm(session, RUNTIME_TOOLS + own)
        assert [t.name for t in outcome.visible_tools] == ["alpha_x", "alpha_y"]

    def test_a_phase_the_workflow_lacks_is_a_fault(self, tmp_path):
        pipeline, store, session = make_rig(tmp_path, TWO_STEP)
        store.put_skill_state(session.session_id, "alpha", {"phase": "gone"})
        with pytest.raises(HookFault, match="unknown phase 'gone'"):
            pipeline.run_before_llm(session, RUNTIME_TOOLS)

    def test_absent_workflow_means_no_narrowing(self, rig):
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

    def test_phases_ignored_when_filters_are_disabled(self, tmp_path):
        pipeline, _, session = make_rig(tmp_path, one_phase("fs_read"))
        pipeline.apply_tool_filters = False
        outcome = pipeline.run_before_llm(session, RUNTIME_TOOLS)
        assert len(outcome.visible_tools) == 3


class TestAfterLlm:
    def test_default_proceed_when_tool_call(self, rig):
        pipeline, _, session = rig
        response = ModelResponse(text="", tool_call=ToolCallRequest("t_a", {}))
        assert pipeline.run_after_llm(session, response, CANDIDATES) is None

    def test_default_allow_finish_on_plain_text(self, rig):
        pipeline, _, session = rig
        assert pipeline.run_after_llm(session, ModelResponse(text="done"), CANDIDATES) is None

    def test_first_non_proceed_wins(self, rig):
        pipeline, _, session = rig
        BEHAVIOR["t.alpha_after_llm"] = HookDecision(force_action="t_a")
        BEHAVIOR["t.beta_after_llm"] = HookDecision(force_action="t_b")
        forced = pipeline.run_after_llm(session, ModelResponse(text=""), CANDIDATES)
        assert forced == ForcedAction(tool_name="t_a", skill_id="alpha")
        # the loser still ran (decisions are composed, conflict logged)
        assert "t.beta_after_llm" in CALLS

    def test_forcing_a_hidden_tool_is_a_fault(self, rig):
        pipeline, _, session = rig
        BEHAVIOR["t.beta_after_llm"] = HookDecision(force_action="t_c")
        with pytest.raises(HookFault, match="t_c"):
            pipeline.run_after_llm(session, ModelResponse(text=""), CANDIDATES[:2])


class TestBeforeTool:
    PENDING = {"name": "t_a", "args": {"x": 1}, "call_id": "call-1"}

    def test_allow_unchanged_with_no_deciding_hooks(self, rig):
        pipeline, _, session = rig
        pending = dict(self.PENDING)
        assert pipeline.run_before_tool(session, pending).allowed
        assert pending == self.PENDING

    def test_reject_short_circuits(self, rig):
        pipeline, _, session = rig
        BEHAVIOR["t.alpha_before_tool"] = HookDecision(
            reject=Reject(reason="nope", redirect_hint="try t_b"))
        outcome = pipeline.run_before_tool(session, dict(self.PENDING))
        assert not outcome.allowed
        assert (outcome.reason, outcome.redirect_hint) == ("nope", "try t_b")
        assert outcome.rejecting_skill == "alpha"
        assert "t.beta_before_tool" not in CALLS

    def test_an_own_tool_out_of_phase_is_refused_before_any_hook(self, tmp_path):
        pipeline, _, session = make_rig(tmp_path, TWO_STEP, one_phase("beta_x"))
        outcome = pipeline.run_before_tool(session, {"name": "alpha_y", "args": {},
                                                     "call_id": "call-1"})
        assert (outcome.allowed, outcome.rejecting_skill) == (False, "alpha")
        assert (outcome.reason, outcome.redirect_hint) == (
            "alpha_y is not available in phase first", "allowed now: alpha_x")
        assert CALLS == []
        # beta's phase does not govern alpha's tools, nor the runtime's calls
        for name in ("alpha_x", "fs_write"):
            assert pipeline.run_before_tool(
                session, {"name": name, "args": {}, "call_id": "call-1"}).allowed

    def test_hooks_share_one_copy_of_the_args(self, rig):
        pipeline, _, session = rig
        seen = []

        def edit(ctx):
            seen.append(dict(ctx.payload["args"]))
            ctx.payload["args"]["x"] += 1

        BEHAVIOR["t.alpha_before_tool"] = BEHAVIOR["t.beta_before_tool"] = edit
        pending = {"name": "t_a", "args": {"x": 1}, "call_id": "call-1"}
        assert pipeline.run_before_tool(session, pending).allowed
        assert seen == [{"x": 1}, {"x": 2}]
        assert pending["args"] == {"x": 1}


class TestAfterTool:
    RECORD = {"name": "t_a", "ok": True, "args": {}, "result": {}}

    def test_no_hooks_no_updates(self, tmp_path):
        registry = SkillRegistry()
        ws = tmp_path / "ws"
        ws.mkdir()
        store = SessionStore(tmp_path / "store")
        session = store.create_session("t", "misc", ws, "")
        HookPipeline(registry, store).run_after_tool(session, dict(self.RECORD))
        assert snapshot_records(read_log(store.store_dir, session.session_id)[1]) == []

    def test_state_updates_applied_in_order(self, rig):
        pipeline, store, session = rig
        BEHAVIOR["t.alpha_after_tool"] = HookDecision(state_update={"k": "a"})
        BEHAVIOR["t.beta_after_tool"] = HookDecision(state_update={"k": "b"})
        pipeline.run_after_tool(session, dict(self.RECORD))
        assert store.get_skill_state(session.session_id, "alpha") == {"k": "a"}
        assert store.get_skill_state(session.session_id, "beta") == {"k": "b"}

    @pytest.mark.parametrize("ok,result,phase", [
        (True, {"passed": True}, "passed"),
        (True, {"passed": False}, "later"),  # the first match wins
        (False, {"passed": True}, "first"),  # a failed call moves nothing
    ])
    def test_a_transition_lands_in_the_hooks_one_snapshot(self, tmp_path, ok, result, phase):
        pipeline, store, session = make_rig(tmp_path, TWO_STEP)
        store.put_skill_state(session.session_id, "alpha", {"phase": "first", "n": 0})
        BEHAVIOR["t.alpha_after_tool"] = lambda ctx: HookDecision(
            state_update={**ctx.state, "n": ctx.state["n"] + 1})
        pipeline.run_after_tool(session, {**self.RECORD, "name": "alpha_x", "ok": ok,
                                          "result": result})
        snapshots = snapshot_records(read_log(store.store_dir, session.session_id)[1])
        assert [r["state"] for r in snapshots[1:]] == [{"phase": phase, "n": 1}]

    def test_a_transition_without_a_hook_update_writes_its_own(self, tmp_path):
        pipeline, store, session = make_rig(tmp_path, TWO_STEP)
        pipeline.run_after_tool(session, {**self.RECORD, "name": "alpha_x"})
        assert store.get_skill_state(session.session_id, "alpha") == {"phase": "later"}
        assert CALLS == ["t.alpha_after_tool", "t.beta_after_tool"]

    def test_unchanged_state_writes_no_snapshot(self, rig):
        pipeline, store, session = rig
        store.put_skill_state(session.session_id, "alpha", {"k": 1})
        store.put_skill_state(session.session_id, "beta", {"k": 1})

        def changed_in_place(ctx):
            ctx.state["k"] = 2  # the hook's copy, not the stored state
            return HookDecision(state_update=ctx.state)

        BEHAVIOR["t.alpha_after_tool"] = lambda ctx: HookDecision(state_update=dict(ctx.state))
        BEHAVIOR["t.beta_after_tool"] = changed_in_place
        pipeline.run_after_tool(session, dict(self.RECORD))
        snapshots = snapshot_records(read_log(store.store_dir, session.session_id)[1])
        assert [(r["skill_id"], r["state"]) for r in snapshots] == [
            ("alpha", {"k": 1}), ("beta", {"k": 1}), ("beta", {"k": 2})]


# the decision fields each stage may set
LEGAL_FIELDS = {
    "before_llm": {"injected_messages", "state_update"},
    "after_llm": {"force_action", "state_update"},
    "before_tool": {"reject", "state_update"},
    "after_tool": {"state_update"},
}
# a value other than its default for every HookDecision field
SET_VALUES = {
    "injected_messages": ["m"],
    "reject": Reject("no"),
    "force_action": "t_a",
    "state_update": {"k": 1},
}
RUN_STAGE = {
    "before_llm": lambda p, s: p.run_before_llm(s, CANDIDATES),
    "after_llm": lambda p, s: p.run_after_llm(s, ModelResponse(text=""), CANDIDATES),
    "before_tool": lambda p, s: p.run_before_tool(s, dict(TestBeforeTool.PENDING)),
    "after_tool": lambda p, s: p.run_after_tool(s, dict(TestAfterTool.RECORD)),
}


class TestFaultsAndOrdering:
    def test_raising_hook_becomes_hook_fault(self, rig):
        pipeline, _, session = rig
        def bomb(ctx):
            raise RuntimeError("boom")
        BEHAVIOR["t.alpha_before_llm"] = bomb
        with pytest.raises(HookFault, match="alpha"):
            pipeline.run_before_llm(session, CANDIDATES)

    def test_a_return_that_is_no_decision_is_a_fault(self, rig):
        pipeline, store, session = rig
        BEHAVIOR["t.alpha_before_llm"] = {"injected_messages": ["m"]}
        with pytest.raises(HookFault, match="returned dict"):
            pipeline.run_before_llm(session, CANDIDATES)
        assert store.get_skill_state(session.session_id, "alpha") == {}

    def test_stage_illegal_field_is_a_fault(self, rig):
        pipeline, _, session = rig
        BEHAVIOR["t.alpha_before_llm"] = HookDecision(force_action="t_a")
        with pytest.raises(HookFault, match="force_action"):
            pipeline.run_before_llm(session, CANDIDATES)

    @pytest.mark.parametrize("stage,name", [
        (stage, name) for stage, legal in LEGAL_FIELDS.items()
        for name in SET_VALUES if name not in legal
    ])
    def test_every_illegal_field_at_every_stage_is_a_fault(self, rig, stage, name):
        pipeline, store, session = rig
        BEHAVIOR[f"t.alpha_{stage}"] = HookDecision(**{name: SET_VALUES[name]})
        with pytest.raises(HookFault, match=name):
            RUN_STAGE[stage](pipeline, session)
        assert store.get_skill_state(session.session_id, "alpha") == {}

    def test_reject_invalid_outside_before_tool(self, rig):
        pipeline, _, session = rig
        BEHAVIOR["t.alpha_after_tool"] = HookDecision(reject=Reject("no"))
        with pytest.raises(HookFault, match="reject"):
            pipeline.run_after_tool(session, dict(TestAfterTool.RECORD))

    def test_execution_order_is_routing_then_declaration(self, rig):
        pipeline, _, session = rig
        pipeline.run_before_llm(session, CANDIDATES)
        assert CALLS == ["t.alpha_before_llm", "t.beta_before_llm"]

    def test_composition_is_deterministic(self, tmp_path):
        pipeline, _, session = make_rig(tmp_path, one_phase("fs_read", "run_command"))
        BEHAVIOR["t.alpha_before_llm"] = HookDecision(injected_messages=["m"])
        first = pipeline.run_before_llm(session, RUNTIME_TOOLS)
        second = pipeline.run_before_llm(session, RUNTIME_TOOLS)
        assert [t.name for t in first.visible_tools] == ["fs_read", "run_command"]
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
