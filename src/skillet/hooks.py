"""The four-stage hook pipeline.

Hook programs are small deterministic boundary functions registered in the
binding table; a manifest attaches them to stages with a total order. At
each boundary the pipeline runs the routed skills' programs (routed order,
then declaration order) and composes their HookDecisions by these rules:

  before_llm_call    -> injected guidance, in hook order
  after_llm_response -> the first forced action, which must be visible
  before_tool_call   -> allow, or the first Reject; the hooks share one copy
                        of the validated arguments, so editing it does nothing
  after_tool_call    -> state updates

A skill's manifest `workflow` is run by the pipeline against the `phase`
field of the skill's state (the workflow's `initial` until it has one). The
phase shows its skill's own tools and the ones no routed skill owns, such as
the runtime's, unless `apply_tool_filters` is off; it refuses a call of its
skill's own tool that it does not show, before any hook; and a successful
call takes its first matching transition, in the one snapshot that the
skill's after_tool hooks write (they are handed the moved state).

At every stage a hook may return `state_update`, its only way to write its
own skill's state; the pipeline persists it through the store, so snapshots
land in the log in hook order, and an update equal to the state the hook
was given writes none. A raising program, a return value that is neither a
HookDecision nor None, a field its stage does not take, a forced tool the
request does not offer or a phase the workflow lacks becomes HookFault: the
wakeup aborts with a system_note, the session stays usable. Hooks never
decide completion: every routed skill's completion gate
(`bindings.COMPLETION_GATES`) must pass. The protected paths of the
session's routed skills and of every ancestor session's hold for every
writer and every hook: `protected_globs` builds the one list, each glob
anchored at the root of the session that declares it, and the planner's
`ExecutionContext` and every `HookContext` carry it. A routed skill the
registry does not hold is no HookFault: its lookup raises NotFound, and the
run stops.
"""

from __future__ import annotations

import copy
import logging
from dataclasses import dataclass, field, fields
from pathlib import Path
from typing import TYPE_CHECKING, NamedTuple

from .errors import HookFault
from .registry import Phase, SkillManifest, SkillRegistry, Workflow
from .schema import ActionSchema
from .sessions import Session, SessionStore
from .workspace import anchor_globs

if TYPE_CHECKING:  # pragma: no cover
    from .backends import ModelResponse

log = logging.getLogger(__name__)

BEFORE_LLM = "before_llm_call"
AFTER_LLM = "after_llm_response"
BEFORE_TOOL = "before_tool_call"
AFTER_TOOL = "after_tool_call"


@dataclass
class HookContext:
    """Read view handed to a hook program for one boundary. The session's own
    facts, such as the artifacts its done_when requires, come from `Session`."""

    skill_id: str
    state: dict                 # the hook's own skill state (a copy)
    payload: object             # stage payload: None / response / call / result
    policy: object              # the owning skill's PolicyConfig
    config: dict                # the owning skill's config.json map
    workflow: Workflow | None   # the owning skill's manifest workflow
    required_artifacts: list[str]  # Session.required_artifacts (a copy)
    workspace_root: Path
    protected_globs: list[str]  # HookPipeline.protected_globs(session)


@dataclass
class Reject:
    reason: str
    redirect_hint: str = ""


@dataclass
class HookDecision:
    injected_messages: list[str] = field(default_factory=list)
    reject: Reject | None = None
    force_action: str | None = None
    state_update: dict | None = None


# a decision field counts as used when it differs from its declared default
_FIELD_DEFAULTS = {f.name: getattr(HookDecision(), f.name) for f in fields(HookDecision)}

_STAGE_FIELDS = {
    BEFORE_LLM: {"injected_messages", "state_update"},
    AFTER_LLM: {"force_action", "state_update"},
    BEFORE_TOOL: {"reject", "state_update"},
    AFTER_TOOL: {"state_update"},
}


class ForcedAction(NamedTuple):
    tool_name: str
    skill_id: str


@dataclass
class BeforeLlmOutcome:
    visible_tools: list[ActionSchema]
    injections: list[tuple[str, str]]  # (skill_id, text) in hook order


@dataclass
class BeforeToolOutcome:
    allowed: bool
    reason: str = ""
    redirect_hint: str = ""
    rejecting_skill: str | None = None


class HookPipeline:
    def __init__(self, registry: SkillRegistry, store: SessionStore,
                 apply_tool_filters: bool = True):
        self.registry = registry
        self.store = store
        self.apply_tool_filters = apply_tool_filters
        self._protected: dict[str, list[str]] = {}  # protected_globs by session id

    def _routed(self, session: Session) -> list[SkillManifest]:
        return [self.registry.lookup(skill_id) for skill_id in session.routed_skills]

    def protected_globs(self, session: Session) -> list[str]:
        """The paths no writer and no hook may touch in `session`: the
        protected_path_globs of its routed skills and of every ancestor's,
        each anchored at the root of the session that declares it. A child's
        root lies inside its parent's (`create_session` checks it), so an
        ancestor's glob matches exactly the paths under that ancestor's root.
        A session's routed skills, root and ancestors are fixed once it
        exists, so the list is built once per session; each call returns a
        copy of it."""
        globs = self._protected.get(session.session_id)
        if globs is None:
            globs = self._protected[session.session_id] = self._build_globs(session)
        return list(globs)

    def _build_globs(self, session: Session) -> list[str]:
        globs: list[str] = []
        while True:
            globs.extend(anchor_globs(session.workspace_root, (
                glob for manifest in self._routed(session)
                for glob in manifest.policy.protected_path_globs)))
            if session.parent_id is None:
                return globs
            session = self.store.session(session.parent_id)

    def hooks_for(self, session: Session, stage: str) -> list[tuple[SkillManifest, str]]:
        """(manifest, program_id) pairs in routed-skill order, then hook order."""
        return [(manifest, decl.program_id) for manifest in self._routed(session)
                for decl in manifest.hooks_for(stage)]

    def _phase(self, manifest: SkillManifest, session: Session) -> tuple[str, Phase]:
        """The name and the workflow entry of the skill's current phase."""
        workflow = manifest.workflow
        name = session.skill_state.get(manifest.skill_id, {}).get("phase", workflow.initial)
        if name not in workflow.phases:
            raise HookFault(manifest.skill_id, "workflow", ValueError(f"unknown phase {name!r}"))
        return name, workflow.phases[name]

    def _invoke(self, manifest: SkillManifest, program_id: str, session: Session,
                stage: str, payload: object, state: dict | None = None) -> HookDecision:
        ctx = HookContext(
            skill_id=manifest.skill_id,
            state=(copy.deepcopy(state) if state is not None
                   else self.store.get_skill_state(session.session_id, manifest.skill_id)),
            payload=payload,
            policy=manifest.policy,
            config=manifest.config,
            workflow=manifest.workflow,
            required_artifacts=list(session.required_artifacts),
            workspace_root=session.workspace_root,
            protected_globs=self.protected_globs(session),
        )
        program = self.registry.hook_programs[program_id]
        try:
            decision = program(ctx)
        except Exception as exc:
            raise HookFault(manifest.skill_id, program_id, exc) from exc
        if decision is None:
            decision = HookDecision()
        elif not isinstance(decision, HookDecision):
            raise HookFault(manifest.skill_id, program_id, TypeError(
                f"returned {type(decision).__name__}, not a HookDecision or None"))
        illegal = sorted(name for name, default in _FIELD_DEFAULTS.items()
                         if name not in _STAGE_FIELDS[stage]
                         and getattr(decision, name) != default)
        if illegal:
            raise HookFault(
                manifest.skill_id, program_id,
                ValueError(f"decision fields {illegal} not valid at {stage}"),
            )
        # a hook that hands back the state it was given writes no snapshot
        if (decision.state_update is not None
                and decision.state_update != session.skill_state.get(manifest.skill_id, {})):
            self.store.put_skill_state(session.session_id, manifest.skill_id, decision.state_update)
        return decision

    # -- the four boundaries -------------------------------------------------

    def run_before_llm(self, session: Session,
                       candidate_tools: list[ActionSchema]) -> BeforeLlmOutcome:
        injections: list[tuple[str, str]] = []
        for manifest, program_id in self.hooks_for(session, BEFORE_LLM):
            decision = self._invoke(manifest, program_id, session, BEFORE_LLM, None)
            injections.extend((manifest.skill_id, text) for text in decision.injected_messages)
        visible = list(candidate_tools)
        for manifest in self._routed(session) if self.apply_tool_filters else []:
            if manifest.workflow is not None:
                # the phase governs its own skill's tools and the unowned
                # ones; another routed skill's tools pass through it
                keep = self._phase(manifest, session)[1].tools
                others = set(session.routed_skills) - {manifest.skill_id}
                visible = [t for t in visible if t.name in keep
                           or self.registry.owner(t.name) in others]
        return BeforeLlmOutcome(visible_tools=visible, injections=injections)

    def run_after_llm(self, session: Session, response: "ModelResponse",
                      visible: list[ActionSchema]) -> ForcedAction | None:
        winner: ForcedAction | None = None
        for manifest, program_id in self.hooks_for(session, AFTER_LLM):
            decision = self._invoke(manifest, program_id, session, AFTER_LLM, response)
            name = decision.force_action
            if name is None:
                continue
            if not any(t.name == name for t in visible):
                raise HookFault(manifest.skill_id, program_id,
                                ValueError(f"force_action {name!r} is not a visible tool"))
            if winner is None:
                winner = ForcedAction(name, manifest.skill_id)
            elif winner.tool_name != name:
                log.warning("after_llm conflict in %s: %s forced %s, %s wanted %s",
                            session.session_id, winner.skill_id, winner.tool_name,
                            manifest.skill_id, name)
        return winner

    def run_before_tool(self, session: Session, pending_call: dict) -> BeforeToolOutcome:
        name = pending_call["name"]
        owner = self.registry.owner(name)
        manifest = self.registry.lookup(owner) if owner in session.routed_skills else None
        if manifest is not None and manifest.workflow is not None:
            phase_name, phase = self._phase(manifest, session)
            if name not in phase.tools:
                own = [t for t in phase.tools if self.registry.owner(t) == owner]
                return BeforeToolOutcome(False, f"{name} is not available in phase {phase_name}",
                                         f"allowed now: {', '.join(own)}", owner)
        payload = {**pending_call, "args": copy.deepcopy(pending_call["args"])}
        for manifest, program_id in self.hooks_for(session, BEFORE_TOOL):
            decision = self._invoke(manifest, program_id, session, BEFORE_TOOL, payload)
            if decision.reject is not None:
                # first refusal wins; later hooks never see the call
                return BeforeToolOutcome(
                    allowed=False,
                    reason=decision.reject.reason,
                    redirect_hint=decision.reject.redirect_hint,
                    rejecting_skill=manifest.skill_id,
                )
        return BeforeToolOutcome(allowed=True)

    def run_after_tool(self, session: Session, tool_record: dict) -> None:
        for manifest in self._routed(session):
            moved = None  # the state with the phase the call moved it to
            if manifest.workflow is not None and tool_record["ok"]:
                phase_name, _ = self._phase(manifest, session)
                to = manifest.workflow.next_phase(phase_name, tool_record, manifest.config)
                if to is not None and to != phase_name:
                    moved = {**session.skill_state.get(manifest.skill_id, {}), "phase": to}
            for decl in manifest.hooks_for(AFTER_TOOL):
                decision = self._invoke(manifest, decl.program_id, session, AFTER_TOOL,
                                        tool_record, moved)
                if decision.state_update is not None:
                    moved = None  # the hook's own update stands in for it
            if moved is not None:
                self.store.put_skill_state(session.session_id, manifest.skill_id, moved)
