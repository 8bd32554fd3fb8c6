"""The four-stage hook pipeline.

Hook programs are small deterministic boundary functions registered in the
binding table; a manifest attaches them to stages with a total order. At
each boundary the pipeline runs the routed skills' programs (routed order,
then declaration order) and composes their HookDecisions into one effect:

  before_llm_call    -> visible tool set (filter intersection) + injected guidance
  after_llm_response -> a single ContinuationDecision (first non-proceed wins)
  before_tool_call   -> Allow (possibly rewritten args) or first Reject
  after_tool_call    -> persisted state updates + follow-up request

Hooks never decide completion: that is the registered completion gate's
job (`bindings.COMPLETION_GATES`), which the planner consults.

A hook may write only its own skill's state, and only by returning
`state_update`; the pipeline persists it through the store so snapshots land
in the log in composition order. A raising hook program becomes HookFault:
the wakeup aborts with a system_note, the session stays usable.
"""

from __future__ import annotations

import logging
from dataclasses import dataclass, field
from enum import Enum
from pathlib import Path
from typing import TYPE_CHECKING

from .errors import HookFault
from .registry import SkillManifest, SkillRegistry
from .schema import ActionSchema
from .sessions import Session, SessionStore

if TYPE_CHECKING:  # pragma: no cover
    from .backends import ModelResponse

log = logging.getLogger(__name__)

BEFORE_LLM = "before_llm_call"
AFTER_LLM = "after_llm_response"
BEFORE_TOOL = "before_tool_call"
AFTER_TOOL = "after_tool_call"


@dataclass
class HookContext:
    """Read view handed to a hook program for one boundary."""

    session: Session
    skill_id: str
    state: dict                 # the hook's own skill state (a copy)
    payload: object             # stage payload: draft request / response / call / result
    policy: object              # the owning skill's PolicyConfig
    config: dict                # the owning skill's config.json map
    done_when: str
    workspace_root: Path


@dataclass
class Reject:
    reason: str
    redirect_hint: str = ""


@dataclass
class HookDecision:
    tool_filter: set[str] | None = None
    injected_messages: list[str] = field(default_factory=list)
    reject: Reject | None = None
    force_action: str | None = None
    schedule_followup: bool = False
    state_update: dict | None = None
    rewrite_args: dict | None = None


_STAGE_FIELDS = {
    BEFORE_LLM: {"tool_filter", "injected_messages", "state_update"},
    AFTER_LLM: {"force_action", "schedule_followup", "state_update"},
    BEFORE_TOOL: {"reject", "rewrite_args", "state_update"},
    AFTER_TOOL: {"schedule_followup", "state_update"},
}


class ContinuationKind(str, Enum):
    PROCEED_TO_TOOL = "proceed_to_tool"
    FORCE_ACTION = "force_action"
    SCHEDULE_FOLLOWUP = "schedule_followup"
    ALLOW_FINISH = "allow_finish"


@dataclass
class ContinuationDecision:
    kind: ContinuationKind
    tool_name: str | None = None
    skill_id: str | None = None


@dataclass
class BeforeLlmOutcome:
    visible_tools: list[ActionSchema]
    injections: list[tuple[str, str]]  # (skill_id, text) in hook order


@dataclass
class BeforeToolOutcome:
    allowed: bool
    args: dict
    reason: str = ""
    redirect_hint: str = ""
    rejecting_skill: str | None = None


@dataclass
class AfterToolOutcome:
    followup_needed: bool = False


class HookPipeline:
    def __init__(self, registry: SkillRegistry, store: SessionStore,
                 apply_tool_filters: bool = True):
        self.registry = registry
        self.store = store
        self.apply_tool_filters = apply_tool_filters

    def hooks_for(self, session: Session, stage: str) -> list[tuple[SkillManifest, str]]:
        """(manifest, program_id) pairs in routed-skill order, then hook order."""
        out = []
        for skill_id in session.routed_skills:
            if skill_id not in self.registry:
                continue
            manifest = self.registry.lookup(skill_id)
            for decl in manifest.hooks_for(stage):
                out.append((manifest, decl.program_id))
        return out

    def _invoke(self, manifest: SkillManifest, program_id: str,
                session: Session, stage: str, payload: object) -> HookDecision:
        ctx = HookContext(
            session=session,
            skill_id=manifest.skill_id,
            state=self.store.get_skill_state(session.session_id, manifest.skill_id),
            payload=payload,
            policy=manifest.policy,
            config=manifest.config,
            done_when=session.done_when,
            workspace_root=session.workspace_root,
        )
        program = self.registry.hook_programs[program_id]
        try:
            decision = program(ctx)
        except Exception as exc:
            raise HookFault(manifest.skill_id, program_id, exc) from exc
        if decision is None:
            decision = HookDecision()
        illegal = self._illegal_fields(decision, stage)
        if illegal:
            raise HookFault(
                manifest.skill_id, program_id,
                ValueError(f"decision fields {illegal} not valid at {stage}"),
            )
        if decision.state_update is not None:
            self.store.put_skill_state(session.session_id, manifest.skill_id, decision.state_update)
        return decision

    @staticmethod
    def _illegal_fields(decision: HookDecision, stage: str) -> list[str]:
        used = set()
        if decision.tool_filter is not None:
            used.add("tool_filter")
        if decision.injected_messages:
            used.add("injected_messages")
        if decision.reject is not None:
            used.add("reject")
        if decision.force_action is not None:
            used.add("force_action")
        if decision.schedule_followup:
            used.add("schedule_followup")
        if decision.state_update is not None:
            used.add("state_update")
        if decision.rewrite_args is not None:
            used.add("rewrite_args")
        return sorted(used - _STAGE_FIELDS[stage])

    # -- the four boundaries -------------------------------------------------

    def run_before_llm(self, session: Session,
                       candidate_tools: list[ActionSchema]) -> BeforeLlmOutcome:
        visible = list(candidate_tools)
        injections: list[tuple[str, str]] = []
        for manifest, program_id in self.hooks_for(session, BEFORE_LLM):
            decision = self._invoke(manifest, program_id, session, BEFORE_LLM,
                                    {"candidate_tools": visible})
            if decision.tool_filter is not None and self.apply_tool_filters:
                visible = [t for t in visible if t.name in decision.tool_filter]
            for text in decision.injected_messages:
                injections.append((manifest.skill_id, text))
        return BeforeLlmOutcome(visible_tools=visible, injections=injections)

    def run_after_llm(self, session: Session, response: "ModelResponse") -> ContinuationDecision:
        default = (
            ContinuationDecision(ContinuationKind.PROCEED_TO_TOOL)
            if response.tool_call is not None
            else ContinuationDecision(ContinuationKind.ALLOW_FINISH)
        )
        winner: ContinuationDecision | None = None
        for manifest, program_id in self.hooks_for(session, AFTER_LLM):
            decision = self._invoke(manifest, program_id, session, AFTER_LLM, response)
            candidate: ContinuationDecision | None = None
            if decision.force_action is not None:
                candidate = ContinuationDecision(
                    ContinuationKind.FORCE_ACTION,
                    tool_name=decision.force_action,
                    skill_id=manifest.skill_id,
                )
            elif decision.schedule_followup:
                candidate = ContinuationDecision(
                    ContinuationKind.SCHEDULE_FOLLOWUP, skill_id=manifest.skill_id
                )
            if candidate is None:
                continue
            if winner is None:
                winner = candidate
            elif (winner.kind, winner.tool_name) != (candidate.kind, candidate.tool_name):
                log.warning(
                    "after_llm conflict in %s: %s kept %s, %s wanted %s",
                    session.session_id, winner.skill_id, winner.kind.value,
                    manifest.skill_id, candidate.kind.value,
                )
        return winner or default

    def run_before_tool(self, session: Session, pending_call: dict) -> BeforeToolOutcome:
        args = pending_call["args"]
        for manifest, program_id in self.hooks_for(session, BEFORE_TOOL):
            payload = {"name": pending_call["name"], "args": args,
                       "call_id": pending_call["call_id"]}
            decision = self._invoke(manifest, program_id, session, BEFORE_TOOL, payload)
            if decision.reject is not None:
                # first refusal wins; later hooks never see the call
                return BeforeToolOutcome(
                    allowed=False,
                    args=args,
                    reason=decision.reject.reason,
                    redirect_hint=decision.reject.redirect_hint,
                    rejecting_skill=manifest.skill_id,
                )
            if decision.rewrite_args is not None:
                args = decision.rewrite_args
        return BeforeToolOutcome(allowed=True, args=args)

    def run_after_tool(self, session: Session, tool_record: dict) -> AfterToolOutcome:
        outcome = AfterToolOutcome()
        for manifest, program_id in self.hooks_for(session, AFTER_TOOL):
            decision = self._invoke(manifest, program_id, session, AFTER_TOOL, tool_record)
            if decision.schedule_followup:
                outcome.followup_needed = True
        return outcome
