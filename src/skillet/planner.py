"""The event-driven single-step planner loop.

One wakeup = at most one model decision plus its tool effects, with a
follow-up enqueued while anything remains open. Each record a wakeup writes
reaches its session's log as it happens, but the wakeup runs in a store batch
that fsyncs the log only at its durability points: right after an accepted
tool_call record, before the tool's effect, so an effect never comes before
a durable call record; when a COMPLETED or FAILED log is closed; and at the
end of the batch, before `run_wakeup` returns and so before a follow-up of
the session can run. The queue is FIFO by enqueue order and never hands out
two wakeups for the same session at once.

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
from functools import partial

from . import bindings
from .backends import ModelRequest, ModelResponse
from .config import RunConfig
from .errors import (
    CompletionBlocked,
    HookFault,
    ModelBackendError,
    NotFound,
    SkilletError,
    StepBudgetExhausted,
    ToolError,
)
from .execution import ExecutionContext
from .hooks import ContinuationKind, HookPipeline
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
from .workspace import orchestration_schemas, resolve

log = logging.getLogger(__name__)


@dataclass
class WakeupEvent:
    session_id: str
    cause: str  # initial | followup | forced_action | child_report
    attempt: int = 0


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

    def __len__(self) -> int:
        with self._cond:
            return len(self._items)

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
        session = self.store.create_session(
            task_text=task.task_text,
            task_type=task.task_type,
            workspace_root=task.workspace_root,
            done_when=task.done_when,
            parent_id=parent_id,
            routed_skills=routed.skill_ids(),
        )
        self.queue.enqueue(session.session_id, "initial")
        return session

    # -- runtime callbacks exposed to tools ----------------------------------

    def _delegate(self, parent: Session, task_text: str, task_type: str,
                  subdir: str, done_when: str) -> dict:
        scoped = resolve(parent.workspace_root, subdir or ".")
        scoped.resolved.mkdir(parents=True, exist_ok=True)
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
            if gate is None or skill_id not in self.registry:
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
            if skill_id in self.registry:
                tools.extend(self.registry.lookup(skill_id).tools)
        return tools

    def run_wakeup(self, event: WakeupEvent) -> None:
        session = self.store.session(event.session_id)
        if session.status not in OPEN_STATUSES:
            return
        with self.store.batch(session.session_id):  # leaving it syncs the log
            self._wakeup(session, event)

    def _wakeup(self, session: Session, event: WakeupEvent) -> None:
        self.store.set_status(session.session_id, SessionStatus.ACTIVE)
        self._turns[session.session_id] += 1
        followup = False

        def enqueue_followup(cause: str = "followup", attempt: int = 0) -> None:
            nonlocal followup
            self.queue.enqueue(session.session_id, cause, attempt=attempt)
            followup = True

        try:
            outcome = self.pipeline.run_before_llm(session, self._candidate_tools(session))
            # standing guidance, under this stage's block id: the session's
            # next seq, which no earlier block's id can equal, so the skill's
            # next block, under a later id, supersedes all of this one
            block_id = session.next_seq
            for skill_id, text in outcome.injections:
                self.store.append_event(session.session_id, EventKind.GUIDANCE_INJECTION,
                                        {"skill_id": skill_id, "text": text,
                                         "standing": block_id})
        except HookFault as fault:
            self._note_hook_fault(session, fault)
            enqueue_followup()
            self._finalize(session, followup)
            return

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
                enqueue_followup(cause=event.cause, attempt=event.attempt + 1)
            else:
                self.store.set_status(session.session_id, SessionStatus.FAILED)
            self._finalize(session, followup)
            return

        self.usage_log.record(session, response)
        self.store.append_event(session.session_id, EventKind.ASSISTANT_MESSAGE, {
            "text": response.text,
            "tool_call": (
                {"name": response.tool_call.name, "args": response.tool_call.args}
                if response.tool_call else None
            ),
        })

        try:
            decision = self.pipeline.run_after_llm(session, response)
            if decision.kind is ContinuationKind.PROCEED_TO_TOOL:
                self._run_tool(session, response, outcome.visible_tools, enqueue_followup)
            elif decision.kind is ContinuationKind.FORCE_ACTION:
                self.store.append_event(session.session_id, EventKind.GUIDANCE_INJECTION, {
                    "skill_id": decision.skill_id or "runtime",
                    "text": f"You must now call `{decision.tool_name}`.",
                })
                enqueue_followup(cause="forced_action")
            elif decision.kind is ContinuationKind.SCHEDULE_FOLLOWUP:
                enqueue_followup()
            else:  # allow_finish
                gate_pairs = self._gate_reasons(session)
                if gate_pairs:
                    self.store.append_event(session.session_id, EventKind.GUIDANCE_INJECTION, {
                        "skill_id": gate_pairs[0][0],
                        "text": "Completion is blocked: "
                                + "; ".join(r for _, r in gate_pairs),
                    })
                    enqueue_followup()
                else:
                    self._complete(session, report_text=response.text)
        except HookFault as fault:
            self._note_hook_fault(session, fault)
            enqueue_followup()
        self._finalize(session, followup)

    def _run_tool(self, session: Session, response: ModelResponse,
                  visible: list[ActionSchema], enqueue_followup) -> None:
        call = response.tool_call
        assert call is not None
        call_id = f"call-{session.tool_calls + 1}"
        schema = next((t for t in visible if t.name == call.name), None)

        def refuse(output: dict) -> None:
            # the raw arguments are in the assistant_message just written
            self.store.append_event(session.session_id, EventKind.TOOL_CALL, {
                "name": call.name, "call_id": call_id, "accepted": False,
            })
            self.store.append_event(session.session_id, EventKind.TOOL_RESULT, {
                "call_id": call_id, "name": call.name, "ok": False, "output": output,
            })
            enqueue_followup()

        if schema is None:
            refuse({"error": "unknown_tool",
                    "message": f"tool {call.name!r} is not available"})
            return
        validation = validate_action_args(schema, call.args)
        if not validation.ok:
            refuse({"error": "invalid_arguments",
                    "issues": [{"path": i.path, "reason": i.reason}
                               for i in validation.errors]})
            return
        pre = self.pipeline.run_before_tool(session, {
            "name": call.name, "args": validation.value, "call_id": call_id,
        })
        if not pre.allowed:
            refuse({"error": "rejected", "reason": pre.reason,
                    "redirect_hint": pre.redirect_hint,
                    "rejected_by": pre.rejecting_skill})
            return

        self.store.append_event(session.session_id, EventKind.TOOL_CALL, {
            "name": call.name, "args": pre.args, "call_id": call_id, "accepted": True,
        })
        self.store.sync(session.session_id)  # the call is durable before its effect
        ok, output = self._execute(schema, pre.args, session)
        seq = self.store.append_event(session.session_id, EventKind.TOOL_RESULT, {
            "call_id": call_id, "name": call.name, "ok": ok, "output": output,
        })
        if ok and schema.executor_id == "core.finish":
            # a successful finish: gates were checked inside the executor
            self._complete(session, output["report_text"])
            return
        after = self.pipeline.run_after_tool(session, {
            "name": call.name, "ok": ok, "args": pre.args, "result": output, "seq": seq,
        })
        # a successful delegation parks the parent until the child reports;
        # every other executed tool needs a turn for the model to see its result
        paused = ok and schema.executor_id == "core.delegate_subtask"
        if after.followup_needed or not paused:
            enqueue_followup()

    def _execute(self, schema: ActionSchema, args: dict,
                 session: Session) -> tuple[bool, dict]:
        try:
            policy = self.registry.lookup(schema.name).policy
        except NotFound:
            policy = PolicyConfig()  # an orchestration tool: no skill policy of its own
        allowlist = list(self.config.workspace.command_allowlist)
        allowlist.extend(a for a in policy.command_allowlist if a not in allowlist)
        # every routed skill's protected paths hold for every tool, visible or not
        protected = [glob for skill_id in session.routed_skills if skill_id in self.registry
                     for glob in self.registry.lookup(skill_id).policy.protected_path_globs]
        ctx = ExecutionContext(
            workspace_root=session.workspace_root,
            command_allowlist=allowlist,
            command_timeout_s=self.config.workspace.command_timeout_s,
            output_truncate_bytes=self.config.workspace.output_truncate_bytes,
            protected_globs=protected,
            artifact_dir=policy.artifact_dir,
            delegate=partial(self._delegate, session),
            finish=partial(self._finish, session),
        )
        executor = self.registry.executors[schema.executor_id]
        try:
            return True, executor(args, ctx)
        except ToolError as exc:
            return False, exc.payload()
        except SkilletError as exc:
            return False, {"error": type(exc).__name__, "message": str(exc)}
        except Exception as exc:  # executor bug: surface it, keep the loop alive
            log.exception("executor %s crashed", schema.executor_id)
            return False, {"error": "executor_fault", "message": repr(exc)}

    def _note_hook_fault(self, session: Session, fault: HookFault) -> None:
        self.store.append_event(session.session_id, EventKind.SYSTEM_NOTE, {
            "note": "hook_fault",
            "skill_id": fault.skill_id,
            "program_id": fault.program_id,
            "detail": str(fault),
        })

    def _finalize(self, session: Session, followup: bool) -> None:
        if session.status in OPEN_STATUSES:
            self.store.set_status(
                session.session_id,
                SessionStatus.ACTIVE if followup else SessionStatus.AWAITING_FOLLOWUP,
            )

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
                runner.start()
                runners.append(runner)
        for runner in runners:
            runner.join()
        if errors:
            raise errors[0]
        if len(self.queue):
            self._park_pending()
            raise StepBudgetExhausted(self.summary(steps))
        return self.summary(steps)

    def _park_pending(self) -> None:
        for session_id in self.queue.pending_sessions():
            if self.store.session(session_id).status is SessionStatus.ACTIVE:
                self.store.set_status(session_id, SessionStatus.AWAITING_FOLLOWUP)

    def summary(self, steps_used: int = 0) -> RunSummary:
        return RunSummary(
            sessions=[
                SessionSummary(
                    session_id=s.session_id,
                    parent_id=s.parent_id,
                    status=s.status.value,
                    turns=self._turns.get(s.session_id, 0),
                    usage=s.usage,
                )
                for s in self.store.sessions()
            ],
            steps_used=steps_used,
            pending=len(self.queue),
        )


def render_messages(session: Session) -> list[tuple[str, str]]:
    """The (role, text) chat messages a request carries: the list that
    `sessions.apply_record` renders each history event onto once, with the
    stubs of stale messages in their places (a superseded read, a refused
    call's arguments) and without each skill's superseded standing
    guidance."""
    return list(filter(None, session.rendered))
