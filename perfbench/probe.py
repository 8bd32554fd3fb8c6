"""Outside-in instrumentation of the skillet stack.

Nothing under src/ is edited. Each layer is timed by replacing, for the
length of one benchmark process, the attribute its caller looks up:
a method on a class, a function imported by name into a caller's module,
or an entry of a `skillet.bindings` table. `Patches.restore` puts every
original back.

Three instruments:

* `WakeupLog` (always on) times `Runtime.run_wakeup` and notes task
  submission and root-session completion. Its cost is two clock reads and
  one list append per wakeup; the end-to-end metrics come from it.
* `calibration_pass` (always on) times a fixed piece of stdlib work between
  the timed parts, so that times can be put on one scale of machine speed.
* `Tracer` (only with --trace 1) records a span at every layer boundary:
  name, start, end, parent span and one trace id per wakeup. Spans stay in
  memory and are written out when the run ends. A span's self time is its
  duration minus the time its child spans cover.
"""

from __future__ import annotations

import contextlib
import functools
import itertools
import json
import os
import subprocess
import sys
import threading
import time
from collections import Counter, defaultdict
from pathlib import Path

clock = time.perf_counter


def proc_wchar() -> int:
    """Bytes this process has passed to write(2) and friends so far."""
    with open("/proc/self/io", "rb") as fh:
        for line in fh:
            if line.startswith(b"wchar:"):
                return int(line.split()[1])
    raise RuntimeError("/proc/self/io has no wchar line")


# seconds of simulated model latency slept in the current wakeup, per thread
model_wait = threading.local()

# the median time of one calibration pass on the machine the reference
# figures come from (see README.md, "Machine speed")
CALIBRATION_REFERENCE_S = 0.030

_CALIBRATION_DOC = {f"s{i:04d}": {"parent_id": None, "status": "awaiting_followup",
                                  "workspace_root": f"/work/ws/t{i:03d}",
                                  "usage": {"input_tokens": 1000 * i, "output_tokens": 7 * i}}
                    for i in range(40)}


def calibration_pass(work_dir: Path) -> float:
    """Seconds taken by a fixed mix of the kinds of work a skillet wakeup
    does, with no skillet code in it: JSON encoding, whole-file rewrites
    renamed into place, fsynced appends, path resolution and one `-S`
    interpreter start."""
    start = clock()
    for i in range(8):
        text = json.dumps(_CALIBRATION_DOC, sort_keys=True, indent=2)
        json.loads(text)
        tmp = work_dir / "calibration.json.tmp"
        tmp.write_text(text, encoding="utf-8")
        os.replace(tmp, work_dir / "calibration.json")
        with open(work_dir / "calibration.log", "a", encoding="utf-8") as fh:
            fh.write(text[:200] + "\n")
            fh.flush()
            os.fsync(fh.fileno())
        os.path.realpath(work_dir / "." / f"t{i:03d}" / ".." / "calibration.json")
    subprocess.run([sys.executable, "-S", "-c", "pass"], check=True)
    return clock() - start


class Patches:
    """Attribute and table-entry replacements, undone in reverse order."""

    def __init__(self):
        self._undo: list[tuple[object, str, object]] = []

    def wrap(self, owner, name: str, make_wrapper) -> None:
        if isinstance(owner, dict):
            original = owner[name]
            owner[name] = make_wrapper(original)
        else:
            original = owner.__dict__[name] if isinstance(owner, type) else getattr(owner, name)
            setattr(owner, name, make_wrapper(original))
        self._undo.append((owner, name, original))

    def restore(self) -> None:
        for owner, name, original in reversed(self._undo):
            if isinstance(owner, dict):
                owner[name] = original
            else:
                setattr(owner, name, original)
        self._undo.clear()


class WakeupLog:
    """Per-wakeup timings plus task submission and completion times.

    `reset` starts a new window (one round of a workload); times are
    `perf_counter` seconds. Appends from several drain threads are safe:
    list.append and dict assignment are atomic in CPython.
    """

    def __init__(self):
        # (session, start, end, seconds of simulated model latency inside)
        self.wakeups: list[tuple[str, float, float, float]] = []
        self.submitted: dict[str, float] = {}
        self.completed: dict[str, float] = {}
        self.first_wakeup: float | None = None
        self.first_wchar: int | None = None
        self.runtime = None  # the runtime of the latest wakeup

    def reset(self) -> None:
        self.wakeups = []
        self.submitted = {}
        self.completed = {}
        self.first_wakeup = None
        self.first_wchar = None
        self.runtime = None

    def install(self, patches: Patches) -> None:
        from skillet.planner import Runtime
        from skillet.sessions import SessionStatus

        log = self

        def timed_wakeup(original):
            @functools.wraps(original)
            def run_wakeup(runtime, event):
                if log.first_wakeup is None:
                    log.first_wchar = proc_wchar()
                    log.first_wakeup = clock()
                model_wait.seconds = 0.0
                start = clock()
                record = original(runtime, event)
                end = clock()
                log.wakeups.append((event.session_id, start, end, model_wait.seconds))
                log.runtime = runtime
                session = runtime.store.session(event.session_id)
                if session.parent_id is None and session.status is SessionStatus.COMPLETED:
                    log.completed.setdefault(session.session_id, end)
                return record
            return run_wakeup

        def noted_submit(original):
            @functools.wraps(original)
            def submit_task(runtime, task, parent_id=None, routed=None):
                start = clock()
                session = original(runtime, task, parent_id=parent_id, routed=routed)
                if parent_id is None:
                    log.submitted[session.session_id] = start
                return session
            return submit_task

        patches.wrap(Runtime, "run_wakeup", timed_wakeup)
        patches.wrap(Runtime, "submit_task", noted_submit)


# -- tracing ---------------------------------------------------------------------

WAKEUP = "planner.run_wakeup"


class Tracer:
    """In-memory span recorder with a per-thread span stack."""

    def __init__(self):
        self.spans: list[tuple] = []  # (trace, span, parent, name, start, end, self, measured)
        self.counts: Counter = Counter()
        self.measuring = False
        self._local = threading.local()
        self._span_ids = itertools.count(1)
        self._trace_ids = itertools.count(1)

    def _stack(self) -> list:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    @contextlib.contextmanager
    def unmeasured(self):
        """Spans and counts inside do not enter the per-layer metrics."""
        measuring, self.measuring = self.measuring, False
        try:
            yield
        finally:
            self.measuring = measuring

    def count(self, key: str, n: int = 1) -> None:
        if self.measuring:
            self.counts[key] += n

    def span(self, name: str, fn, observe=None):
        """Wrap fn in a span; `observe(result, args)` runs after the span
        closes, so what it computes is not charged to the layer."""
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            stack = tracer._stack()
            parent = stack[-1] if stack else None
            if parent is None or name == WAKEUP:
                trace_id = next(tracer._trace_ids)
            else:
                trace_id = parent[0]
            # frame: trace, span id, child seconds, name
            frame = [trace_id, next(tracer._span_ids), 0.0, name]
            stack.append(frame)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                duration = end - start
                if parent is not None:
                    parent[2] += duration
                tracer.spans.append((trace_id, frame[1], parent[1] if parent else None, name,
                                     start, end, duration - frame[2], tracer.measuring))
            if tracer.measuring:
                tracer.counts["calls." + name] += 1
                if observe is not None:
                    observe(result, args)
            return result

        return traced

    def install(self, patches: Patches, backend_owner) -> None:
        """Wrap every layer boundary. `backend_owner` is the class whose
        `complete` the runtime calls for a model reply."""
        import skillet.planner as planner
        import skillet.repair as repair
        import skillet.workspace as workspace
        from skillet import bindings, cli
        from skillet.backends import UsageLog
        from skillet.hooks import HookPipeline
        from skillet.planner import Runtime, WakeupQueue
        from skillet.registry import SkillRegistry
        from skillet.sessions import EventKind, SessionStore

        def spanned(name, observe=None):
            return lambda fn: self.span(name, fn, observe)

        # planner
        patches.wrap(Runtime, "run_wakeup", spanned(WAKEUP))
        patches.wrap(planner, "render_messages", spanned(
            "planner.render_messages",
            lambda msgs, a: self.count("render_chars", sum(len(t) for _, t in msgs))))
        patches.wrap(planner, "WakeupEvent", self._stamped_event)
        patches.wrap(WakeupQueue, "pop", self._timed_pop)
        patches.wrap(planner, "validate_action_args", spanned("schema.validate_action_args"))
        patches.wrap(planner, "route", spanned("router.route"))
        # hooks: the four stages, then each hook program through the shared table
        for stage in ("before_llm", "after_llm", "before_tool", "after_tool"):
            observe = None
            if stage == "before_tool":
                observe = lambda out, a: self.count("hook_refusals", not out.allowed)
            patches.wrap(HookPipeline, f"run_{stage}", spanned(f"hooks.{stage}", observe))
        for program_id in list(bindings.HOOK_PROGRAMS):
            patches.wrap(bindings.HOOK_PROGRAMS, program_id,
                         spanned(f"hooks.program.{program_id}"))
        # sessions
        patches.wrap(SessionStore, "__init__", spanned("sessions.open"))
        patches.wrap(SessionStore, "create_session", spanned("sessions.create_session"))
        patches.wrap(SessionStore, "set_status", spanned("sessions.set_status"))
        patches.wrap(SessionStore, "append_event", spanned(
            "sessions.append_event", lambda seq, a: self._note_event(a, EventKind)))
        patches.wrap(SessionStore, "put_skill_state", spanned("sessions.put_skill_state"))
        patches.wrap(SessionStore, "get_skill_state", spanned("sessions.get_skill_state"))
        patches.wrap(os, "fsync", self._counted_fsync)
        # backends
        patches.wrap(backend_owner, "complete", spanned("backends.complete"))
        patches.wrap(UsageLog, "record", spanned("backends.usage_record"))
        # registry and cli
        patches.wrap(SkillRegistry, "load_all", spanned("registry.load_all"))
        patches.wrap(cli, "cmd_run", spanned("cli.cmd_run"))
        # workspace: resolve and run_allowlisted are imported by name into
        # planner and repair, so each importing module is wrapped
        for module in (planner, repair, workspace):
            patches.wrap(module, "resolve", spanned("workspace.resolve"))
        for module in (repair, workspace):
            patches.wrap(module, "run_allowlisted", spanned("workspace.run_allowlisted"))
        # repair: executors through the shared table, the gate looked up at call time
        for executor_id in list(bindings.EXECUTORS):
            patches.wrap(bindings.EXECUTORS, executor_id, spanned(f"executor.{executor_id}"))
        patches.wrap(bindings.COMPLETION_GATES, "repair", spanned(
            "repair.gate", lambda reasons, a: self.count("gate_blocks", bool(reasons))))
        # patching, as imported into repair
        patches.wrap(repair, "parse_unified_diff", spanned("patching.parse_unified_diff"))
        patches.wrap(repair, "apply_hunks", spanned("patching.apply_hunks"))

    def _note_event(self, args, event_kind) -> None:
        kind, payload = args[2], args[3]
        if event_kind(kind) is event_kind.TOOL_CALL:
            self.count("tool_calls")
            self.count("tool_calls_accepted", bool(payload.get("accepted")))

    def _counted_fsync(self, original):
        @functools.wraps(original)
        def fsync(fd):
            stack = self._stack()
            if stack and any(frame[3] == WAKEUP for frame in stack):
                self.count("fsync." + stack[-1][3].split(".", 1)[0])
            return original(fd)
        return fsync

    @staticmethod
    def _stamped_event(original):
        """`WakeupQueue.enqueue` builds its event under the queue lock, before
        the append, so the time is on the event before any worker can pop it."""
        class StampedEvent(original):
            def __init__(self, *args, **kwargs):
                super().__init__(*args, **kwargs)
                self.bench_enqueued = clock()
        return StampedEvent

    def _timed_pop(self, original):
        @functools.wraps(original)
        def pop(queue):
            event = original(queue)
            if event is None:
                self.count("empty_pops")
            else:
                self.count("pops")
                self.count("queue_wait_us", round((clock() - event.bench_enqueued) * 1e6))
            return event
        return pop

    # -- results --------------------------------------------------------------

    def write(self, path: Path) -> None:
        keys = ("trace", "span", "parent", "name", "start", "end", "self", "measured")
        with open(path, "w", encoding="utf-8") as fh:
            for span in self.spans:
                fh.write(json.dumps(dict(zip(keys, span))) + "\n")

    def self_times(self) -> dict[str, tuple[int, float]]:
        """Span name -> (calls, total self seconds) over the measured rounds;
        a layer not called in them is absent and reads 0."""
        measured: dict[str, list] = defaultdict(lambda: [0, 0.0])
        for span in self.spans:
            if span[7]:
                entry = measured[span[3]]
                entry[0] += 1
                entry[1] += span[6]
        return {name: tuple(entry) for name, entry in measured.items()}


# metric -> (span name, unit scale): mean self time per call
PER_CALL = {
    "planner.wakeup_self_ms": (WAKEUP, 1e3),
    "planner.render_ms": ("planner.render_messages", 1e3),
    "hooks.before_llm_ms": ("hooks.before_llm", 1e3),
    "hooks.after_llm_ms": ("hooks.after_llm", 1e3),
    "hooks.before_tool_ms": ("hooks.before_tool", 1e3),
    "hooks.after_tool_ms": ("hooks.after_tool", 1e3),
    **{f"hooks.program.repair.{stage}_ms": (f"hooks.program.repair.{stage}", 1e3)
       for stage in ("before_llm", "after_llm", "before_tool", "after_tool")},
    "schema.validate_us": ("schema.validate_action_args", 1e6),
    "sessions.create_ms": ("sessions.create_session", 1e3),
    "sessions.open_ms": ("sessions.open", 1e3),
    "sessions.set_status_ms": ("sessions.set_status", 1e3),
    "sessions.append_event_ms": ("sessions.append_event", 1e3),
    "sessions.put_skill_state_ms": ("sessions.put_skill_state", 1e3),
    "sessions.get_skill_state_us": ("sessions.get_skill_state", 1e6),
    "backends.complete_ms": ("backends.complete", 1e3),
    "backends.usage_record_ms": ("backends.usage_record", 1e3),
    "registry.load_ms": ("registry.load_all", 1e3),
    "router.route_us": ("router.route", 1e6),
    "workspace.command_ms": ("workspace.run_allowlisted", 1e3),
    "workspace.resolve_us": ("workspace.resolve", 1e6),
    **{f"repair.executor.{tool}_ms": (f"executor.repair.{tool}", 1e3)
       for tool in ("collect_evidence", "apply_unified_patch", "run_verification",
                    "write_artifact")},
    "repair.gate_ms": ("repair.gate", 1e3),
    "patching.parse_us": ("patching.parse_unified_diff", 1e6),
    "patching.apply_us": ("patching.apply_hunks", 1e6),
}


def layer_metrics(tracer: Tracer, tasks: int) -> dict[str, float]:
    """The per-layer metrics of one traced run over `tasks` root tasks."""
    times = tracer.self_times()
    c = tracer.counts
    wakeups = c["calls." + WAKEUP]

    def ratio(a: float, b: float) -> float:
        return a / b if b else 0.0

    def mean_self(span: str, scale: float) -> float:
        calls, total = times.get(span, (0, 0.0))
        return ratio(total * scale, calls)

    out = {metric: mean_self(span, scale) for metric, (span, scale) in PER_CALL.items()}
    out.update({
        "planner.render_kchars": ratio(c["render_chars"] / 1000,
                                        c["calls.planner.render_messages"]),
        "planner.queue_wait_ms": ratio(c["queue_wait_us"] / 1000, c["pops"]),
        "planner.empty_pops_per_wakeup": ratio(c["empty_pops"], wakeups),
        "planner.pop_hit_ratio": ratio(c["pops"], c["pops"] + c["empty_pops"]),
        "planner.wakeups_per_task": ratio(wakeups, tasks),
        "planner.tool_accept_ratio": ratio(c["tool_calls_accepted"], c["tool_calls"]),
        "hooks.refusals_per_task": ratio(c["hook_refusals"], tasks),
        "hooks.gate_blocks_per_task": ratio(c["gate_blocks"], tasks),
        "sessions.set_status_per_wakeup": ratio(c["calls.sessions.set_status"], wakeups),
        "sessions.events_per_wakeup": ratio(c["calls.sessions.append_event"], wakeups),
        "sessions.fsyncs_per_wakeup": ratio(c["fsync.sessions"], wakeups),
        "workspace.commands_per_task": ratio(c["calls.workspace.run_allowlisted"], tasks),
        "workspace.resolves_per_wakeup": ratio(c["calls.workspace.resolve"], wakeups),
        "repair.gate_calls_per_wakeup": ratio(c["calls.repair.gate"], wakeups),
    })
    return out
