"""The event-driven single-step planner loop.

One wakeup = at most one model decision plus its tool effects, which return
the (cause, attempt) of the follow-up the session needs, or None: a forced
action first, else the tool call on its validated arguments (a successful
`delegate_subtask` parks the session), else finishing once every gate passes.
`run_wakeup` is the one exit: it turns a hook fault from any stage into a
`hook_fault` note plus a follow-up, enqueues the follow-up (after any child's
`initial` or parent's `child_report` the wakeup enqueued), and rests a
session still open ACTIVE with a follow-up, AWAITING_FOLLOWUP without. Each
record a wakeup writes reaches its session's log as it happens, but the
wakeup runs in a store batch that fsyncs the log only at its durability
points: right after an accepted tool_call record, before the tool's effect,
so an effect never comes before a durable call record; when the session
completes or fails; and at the end of the batch, before `run_wakeup`
returns and so before a follow-up of the session can run. The queue is FIFO
by enqueue order and never hands out two wakeups for the same session at
once.

One drain loop serves both drain modes, with no polling. A runner runs the
wakeup it was given, then keeps taking wakeups until none is runnable. The
draining thread blocks on the queue's condition until a wakeup is runnable,
takes it and starts a runner for it: inline in single-worker mode, where the
one runner drains the whole queue in pop order and so deterministically,
otherwise on a new thread. No runnable session waits for a runner and no
runner waits for work; the thread count has no setting and follows the
number of sessions that can run at once.
"""

from __future__ import annotations

import logging
import threading
from collections import defaultdict, deque
from dataclasses import dataclass, field
from itertools import groupby
from operator import itemgetter

from . import bindings
from .backends import ModelRequest, ModelResponse
from .config import RunConfig
from .errors import (
    CompletionBlocked,
    HookFault,
    ModelBackendError,
    SkilletError,
    StepBudgetExhausted,
    ToolError,
)
from .execution import ExecutionContext
from .hooks import HookPipeline
from .registry import PolicyConfig, SkillRegistry
from .router import DelegatedTask, RoutedSkillSet, route
from .schema import ActionSchema, validate_action_args
from .sessions import (
    EventKind,
    OPEN_STATUSES,
    Session,
    SessionStatus,
    SessionStore,
    UsageTotals,
)
from .workspace import glob_match, make_dirs, orchestration_schemas, resolve

log = logging.getLogger(__name__)


@dataclass
class WakeupEvent:
    session_id: str
    cause: str  # initial | followup | forced_action | child_report
    attempt: int = 0


Followup = tuple[str, int]  # the (cause, attempt) of a session's next wakeup
FOLLOWUP: Followup = ("followup", 0)


class WakeupQueue:
    """FIFO queue with per-session mutual exclusion enforced at pop time.

    A wakeup is runnable while no wakeup of its session is in flight. `pop`
    never blocks; a drain blocks in `wait` instead.
    """

    def __init__(self):
        self._items: deque[WakeupEvent] = deque()
        self._in_flight: set[str] = set()
        self._cond = threading.Condition()

    def enqueue(self, session_id: str, cause: str, attempt: int = 0) -> None:
        with self._cond:
            self._items.append(WakeupEvent(session_id=session_id, cause=cause,
                                           attempt=attempt))
            self._cond.notify_all()

    def pop(self) -> WakeupEvent | None:
        with self._cond:
            for i, event in enumerate(self._items):
                if event.session_id not in self._in_flight:
                    del self._items[i]
                    self._in_flight.add(event.session_id)
                    return event
            return None

    def done(self, event: WakeupEvent) -> None:
        with self._cond:
            self._in_flight.discard(event.session_id)
            self._cond.notify_all()

    def wait(self) -> bool:
        """Block until a wakeup is runnable (True), or until the queue is
        empty with nothing in flight, so none can come (False)."""
        with self._cond:
            while all(e.session_id in self._in_flight for e in self._items):
                if not self._items and not self._in_flight:
                    return False
                self._cond.wait()
            return True

    def pending_sessions(self) -> list[str]:
        with self._cond:
            return [e.session_id for e in self._items]


@dataclass
class SessionSummary:
    session_id: str
    parent_id: str | None
    status: str
    turns: int
    usage: UsageTotals


@dataclass
class RunSummary:
    sessions: list[SessionSummary] = field(default_factory=list)
    steps_used: int = 0
    pending: int = 0


class Runtime:
    """Wires registry, store, backend, usage log, and config into the loop."""

    def __init__(self, registry: SkillRegistry, store: SessionStore, backend,
                 usage_log, config: RunConfig | None = None):
        self.registry = registry
        self.store = store
        self.backend = backend
        self.usage_log = usage_log
        self.config = config or RunConfig()
        self.pipeline = HookPipeline(
            registry, store, apply_tool_filters=self.config.planner.apply_tool_filters
        )
        self.queue = WakeupQueue()
        self.orchestration = orchestration_schemas()
        self._turns: dict[str, int] = defaultdict(int)

    # -- session intake -----------------------------------------------------

    def submit_task(self, task: DelegatedTask, parent_id: str | None = None,
                    routed: RoutedSkillSet | None = None) -> Session:
        if routed is None:
            routed = route(self.registry, task, self.config.router)
        for skill_id in routed.skill_ids():
            self.registry.lookup(skill_id)  # NotFound for a skill that is not loaded
        session = self.store.create_session(
            task_text=task.task_text,
            task_type=task.task_type,
            workspace_root=task.workspace_root,
            done_when=task.done_when,
            parent_id=parent_id,
            routed_skills=routed.skill_ids(),
        )
        self._turns[session.session_id] = 0  # the summary lists it
        self.queue.enqueue(session.session_id, "initial")
        return session

    # -- the runtime's own tools: delegate_subtask and finish ----------------

    def _delegate(self, parent: Session, task_text: str, task_type: str,
                  subdir: str, done_when: str) -> dict:
        scoped = resolve(parent.workspace_root, subdir or ".")
        # making the directory is a workspace write; an existing one needs no
        # check, as the child is bound by the same protected paths
        if not scoped.is_dir and glob_match(scoped.path, self.pipeline.protected_globs(parent)):
            raise ToolError(f"subdir {scoped.relative!r} matches a protected path")
        try:
            make_dirs(scoped)
        except OSError as exc:  # a file on the path, say
            raise ToolError(f"cannot make subdir {scoped.relative!r}: {exc}") from exc
        task = DelegatedTask(task_text=task_text, task_type=task_type,
                             workspace_root=scoped.resolved, done_when=done_when)
        child = self.submit_task(task, parent_id=parent.session_id)
        return {
            "session_id": child.session_id,
            "routed_skills": child.routed_skills,
            "status": "delegated",
            "note": "the child's report will arrive as a follow-up message",
        }

    def _finish(self, session: Session, report_text: str) -> dict:
        reasons = [r for _, r in self._gate_reasons(session)]
        if reasons:
            raise CompletionBlocked(reasons)
        # the completion event is appended by _run_tool after this call's tool_result
        return {"completed": True, "report_text": report_text}

    def _gate_reasons(self, session: Session) -> list[tuple[str, str]]:
        """(skill_id, reason) for every open gate of the routed skills: the
        only place that decides whether a session may complete."""
        pairs: list[tuple[str, str]] = []
        for skill_id in session.routed_skills:
            gate = bindings.COMPLETION_GATES.get(skill_id)
            if gate is None:
                continue
            state = self.store.get_skill_state(session.session_id, skill_id)
            pairs.extend((skill_id, reason) for reason in gate(session, state))
        return pairs

    def _complete(self, session: Session, report_text: str) -> None:
        self.store.append_event(session.session_id, EventKind.COMPLETION,
                                {"report_text": report_text})
        if session.parent_id is not None:
            try:
                self.store.append_event(session.parent_id, EventKind.USER_MESSAGE, {
                    "text": f"[child_report {session.session_id}] {report_text}",
                    "source": "child_report",
                    "child_session_id": session.session_id,
                })
            except SkilletError as exc:
                log.warning("parent %s unreachable for child report: %s",
                            session.parent_id, exc)
                return
            self.queue.enqueue(session.parent_id, "child_report")

    # -- the single-step wakeup ----------------------------------------------

    def _candidate_tools(self, session: Session) -> list[ActionSchema]:
        tools = list(self.orchestration)
        for skill_id in session.routed_skills:
            tools.extend(self.registry.lookup(skill_id).tools)
        return tools

    def run_wakeup(self, event: WakeupEvent) -> None:
        """Run one wakeup and leave it through the one exit (module docstring)."""
        session = self.store.session(event.session_id)
        if session.status not in OPEN_STATUSES:
            return
        with self.store.batch(session.session_id):  # leaving it syncs the log
            try:
                followup = self._wakeup(session, event)
            except HookFault as fault:
                self.store.append_event(session.session_id, EventKind.SYSTEM_NOTE, {
                    "note": "hook_fault", "skill_id": fault.skill_id,
                    "program_id": fault.program_id, "detail": str(fault),
                })
                followup = FOLLOWUP
            if followup is not None:
                self.queue.enqueue(session.session_id, *followup)
            resting = SessionStatus.ACTIVE if followup else SessionStatus.AWAITING_FOLLOWUP
            if session.status in OPEN_STATUSES:
                self.store.set_status(session.session_id, resting)

    def _wakeup(self, session: Session, event: WakeupEvent) -> Followup | None:
        """One model decision and its effects; returns the follow-up the
        session needs, or None."""
        self.store.set_status(session.session_id, SessionStatus.ACTIVE)
        self._turns[session.session_id] += 1
        outcome = self.pipeline.run_before_llm(session, self._candidate_tools(session))
        # standing guidance: every request ends with each routed skill's
        # latest block (render_messages), so a skill whose injections repeat
        # its block writes nothing, and a skill that injects nothing keeps
        # its block. A changed block is written under this stage's id, the
        # session's next seq, which no earlier block's id can equal, so it
        # replaces all of the skill's last block.
        block_id = session.next_seq
        for skill_id, injected in groupby(outcome.injections, key=itemgetter(0)):
            texts = [text for _, text in injected]
            block = session.guidance.get(skill_id)
            if block is not None and texts == [text for _, text in block.messages]:
                continue
            for text in texts:
                self.store.append_event(session.session_id, EventKind.GUIDANCE_INJECTION,
                                        {"skill_id": skill_id, "text": text,
                                         "standing": block_id})

        request = ModelRequest(
            messages=render_messages(session),
            tools=outcome.visible_tools,
            session_id=session.session_id,
        )
        try:
            response = self.backend.complete(request)
        except ModelBackendError as err:
            self.store.append_event(session.session_id, EventKind.SYSTEM_NOTE, {
                "note": "model_backend_error",
                "detail": str(err),
                "retryable": err.retryable,
                "attempt": event.attempt,
            })
            if err.retryable and event.attempt + 1 < self.config.planner.backend_retries:
                return event.cause, event.attempt + 1
            self.store.set_status(session.session_id, SessionStatus.FAILED)
            return None

        # the ledger line first, then the record whose fold counts it
        usage = self.usage_log.record(session, response)
        self.store.append_event(session.session_id, EventKind.ASSISTANT_MESSAGE, {
            "text": response.text,
            "tool_call": (
                {"name": response.tool_call.name, "args": response.tool_call.args}
                if response.tool_call else None
            ),
            "usage": [usage.input_tokens, usage.output_tokens, usage.cache_tokens,
                      usage.total_tokens],
        })

        forced = self.pipeline.run_after_llm(session, response, outcome.visible_tools)
        if forced is not None:
            self.store.append_event(session.session_id, EventKind.GUIDANCE_INJECTION, {
                "skill_id": forced.skill_id,
                "text": f"You must now call `{forced.tool_name}`.",
            })
            return "forced_action", 0
        if response.tool_call is not None:
            return self._run_tool(session, response, outcome.visible_tools)
        gate_pairs = self._gate_reasons(session)  # a plain-text reply asks to finish
        if gate_pairs:
            self.store.append_event(session.session_id, EventKind.GUIDANCE_INJECTION, {
                "skill_id": gate_pairs[0][0],
                "text": "Completion is blocked: " + "; ".join(r for _, r in gate_pairs),
            })
            return FOLLOWUP
        self._complete(session, report_text=response.text)
        return None

    def _run_tool(self, session: Session, response: ModelResponse,
                  visible: list[ActionSchema]) -> Followup | None:
        call = response.tool_call
        assert call is not None
        call_id = f"call-{len(session.tool_call_ids) + 1}"
        schema = next((t for t in visible if t.name == call.name), None)

        # the call's name and raw arguments are in the assistant_message just
        # written, and the fold puts them back into these records' payloads
        def refuse(output: dict) -> Followup:
            self.store.append_event(session.session_id, EventKind.TOOL_CALL, {
                "call_id": call_id, "accepted": False,
            })
            self.store.append_event(session.session_id, EventKind.TOOL_RESULT, {
                "call_id": call_id, "ok": False, "output": output,
            })
            return FOLLOWUP

        if schema is None:
            return refuse({"error": "unknown_tool",
                           "message": f"tool {call.name!r} is not available"})
        validation = validate_action_args(schema, call.args)
        if not validation.ok:
            return refuse({"error": "invalid_arguments",
                           "issues": [{"path": i.path, "reason": i.reason}
                                      for i in validation.errors]})
        pre = self.pipeline.run_before_tool(session, {
            "name": call.name, "args": validation.value, "call_id": call_id,
        })
        if not pre.allowed:
            return refuse({"error": "rejected", "reason": pre.reason,
                           "redirect_hint": pre.redirect_hint,
                           "rejected_by": pre.rejecting_skill})

        payload = {"call_id": call_id, "accepted": True}
        if validation.value != call.args:  # a filled default: log the args that run
            payload["args"] = validation.value
        self.store.append_event(session.session_id, EventKind.TOOL_CALL, payload)
        self.store.sync(session.session_id)  # the call is durable before its effect
        ok, output = self._execute(schema, validation.value, session)
        self.store.append_event(session.session_id, EventKind.TOOL_RESULT, {
            "call_id": call_id, "ok": ok, "output": output,
        })
        if ok and schema.executor_id == "core.finish":
            # a successful finish: gates were checked inside the executor
            self._complete(session, output["report_text"])
            return None
        self.pipeline.run_after_tool(session, {
            "name": call.name, "ok": ok, "args": validation.value, "result": output,
        })
        # a successful delegation parks the parent until the child reports;
        # every other executed tool needs a turn for the model to see its result
        return None if ok and schema.executor_id == "core.delegate_subtask" else FOLLOWUP

    def _execute(self, schema: ActionSchema, args: dict,
                 session: Session) -> tuple[bool, dict]:
        owner = self.registry.owner(schema.name)  # None: the runtime's own tool
        policy = self.registry.lookup(owner).policy if owner else PolicyConfig()
        allowlist = list(self.config.workspace.command_allowlist)
        allowlist.extend(a for a in policy.command_allowlist if a not in allowlist)
        ctx = ExecutionContext(
            workspace_root=session.workspace_root,
            command_allowlist=allowlist,
            command_timeout_s=self.config.workspace.command_timeout_s,
            output_truncate_bytes=self.config.workspace.output_truncate_bytes,
            # the session's protected paths hold for every tool, visible or not
            protected_globs=self.pipeline.protected_globs(session),
            artifact_dir=policy.artifact_dir,
        )
        try:  # the planner runs finish and delegate_subtask itself
            if schema.executor_id == "core.finish":
                return True, self._finish(session, args["report_text"])
            if schema.executor_id == "core.delegate_subtask":
                return True, self._delegate(session, args["task_text"], args["task_type"],
                                            args["subdir"], args["done_when"])
            return True, self.registry.executors[schema.executor_id](args, ctx)
        except ToolError as exc:
            return False, exc.payload()
        except SkilletError as exc:
            return False, {"error": type(exc).__name__, "message": str(exc)}
        except Exception as exc:  # executor bug: surface it, keep the loop alive
            log.exception("executor %s crashed", schema.executor_id)
            return False, {"error": "executor_fault", "message": repr(exc)}

    # -- draining --------------------------------------------------------------

    def run_until_quiescent(self, max_steps: int | None = None) -> RunSummary:
        limit = self.config.planner.max_steps if max_steps is None else max_steps
        lock = threading.Lock()
        steps = 0
        errors: list[BaseException] = []

        def take() -> WakeupEvent | None:
            """Pop a runnable wakeup and count its step; None once the budget
            is spent, a runner has failed or nothing is runnable."""
            nonlocal steps
            with lock:
                if errors or steps >= limit:
                    return None
                event = self.queue.pop()
                if event is not None:
                    steps += 1
                return event

        def run(event: WakeupEvent | None) -> None:
            while event is not None:
                try:
                    self.run_wakeup(event)
                except BaseException as exc:  # re-raised by the draining thread
                    errors.append(exc)
                    return
                finally:
                    self.queue.done(event)
                event = take()

        runners = []
        while self.queue.wait():
            event = take()
            if event is None:
                if errors or steps >= limit:
                    break
                continue  # a runner took the wakeup first
            if self.config.planner.single_worker:
                run(event)
            else:
                runner = threading.Thread(target=run, args=(event,), daemon=True)
                try:
                    runner.start()
                except RuntimeError:  # no thread can be started: run it here
                    run(event)
                    continue
                runners.append(runner)
        for runner in runners:
            runner.join()
        if errors:
            raise errors[0]
        pending = self.queue.pending_sessions()
        for session_id in pending:  # out of budget: what is left waits for a follow-up
            if self.store.session(session_id).status is SessionStatus.ACTIVE:
                self.store.set_status(session_id, SessionStatus.AWAITING_FOLLOWUP)
        if pending:
            raise StepBudgetExhausted(self.summary(steps))
        return self.summary(steps)

    def summary(self, steps_used: int = 0) -> RunSummary:
        """The sessions this runtime submitted or woke, by id."""
        return RunSummary(
            sessions=[
                SessionSummary(
                    session_id=s.session_id,
                    parent_id=s.parent_id,
                    status=s.status.value,
                    turns=self._turns[s.session_id],
                    usage=s.usage,
                )
                for s in map(self.store.session, sorted(self._turns))
            ],
            steps_used=steps_used,
            pending=len(self.queue.pending_sessions()),
        )


def render_messages(session: Session) -> list[tuple[str, str]]:
    """The (role, text) chat messages a request carries: the list that
    `sessions.apply_record` renders each history event onto once, with the
    stubs of stale messages in their places (a superseded read, a refused
    call's arguments), then each routed skill's latest standing guidance
    block, in routed order: only a routed skill's before_llm stage writes a
    block."""
    messages = list(session.rendered)
    guidance = session.guidance
    for skill_id in session.routed_skills:
        block = guidance.get(skill_id)
        if block is not None:
            messages += block.messages
    return messages
