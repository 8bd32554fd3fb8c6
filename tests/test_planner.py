"""Planner loop: wakeups, continuation decisions, budgets, delegation, replay."""

import errno
import json
import os
import shutil
import subprocess
import sys
import threading
from pathlib import Path

import pytest

import skillet
from skillet import DelegatedTask, EventKind, RunConfig, SessionStatus, SessionStore
from skillet.backends import ModelResponse, ToolCallRequest, UsageRecord
from skillet.errors import ModelBackendError, StepBudgetExhausted
from skillet.planner import Runtime, WakeupQueue
from skillet.sessions import read_log

from conftest import (
    BUGGY_CALC,
    REPAIR_DONE_WHEN,
    artifact_step,
    evidence_step,
    finish_step,
    make_runtime,
    patch_step,
    repair_script,
    submit_repair_task,
    verify_step,
)


def events_of(store, session_id):
    return [(e.kind, e.payload) for e in store.session(session_id).history]


def kinds_of(store, session_id):
    return [e.kind for e in store.session(session_id).history]


class TestWakeupQueue:
    def test_fifo_order(self):
        q = WakeupQueue()
        q.enqueue("s1", "initial")
        q.enqueue("s2", "initial")
        assert q.pop().session_id == "s1"
        assert q.pop().session_id == "s2"

    def test_per_session_mutual_exclusion(self):
        q = WakeupQueue()
        q.enqueue("s1", "initial")
        q.enqueue("s1", "followup")
        q.enqueue("s2", "initial")
        first = q.pop()
        assert first.session_id == "s1"
        second = q.pop()  # s1 is in flight, so s2 is handed out
        assert second.session_id == "s2"
        assert q.pop() is None
        q.done(first)
        assert q.pop().session_id == "s1"

    @staticmethod
    def start_waiter(q, outcomes):
        waiter = threading.Thread(target=lambda: outcomes.append(q.wait()))
        waiter.start()
        return waiter

    def test_only_sessions_not_in_flight_are_runnable(self):
        q = WakeupQueue()
        q.enqueue("s1", "initial")
        q.enqueue("s1", "followup")
        q.enqueue("s2", "initial")
        # two sessions can run, so two pops; s1's follow-up waits for s1
        assert q.wait()
        first, second = q.pop(), q.pop()
        assert (first.session_id, second.session_id) == ("s1", "s2")
        assert q.pop() is None
        outcomes = []
        waiter = self.start_waiter(q, outcomes)
        waiter.join(0.2)
        assert waiter.is_alive()  # a wakeup is queued, but none is runnable
        q.done(first)
        waiter.join(5)
        assert not waiter.is_alive() and outcomes == [True]
        assert q.pop().session_id == "s1"

    def test_wait_blocks_until_a_wakeup_is_runnable_then_ends_when_drained(self):
        q = WakeupQueue()
        q.enqueue("s1", "initial")
        event = q.pop()
        q.enqueue("s1", "followup")  # not runnable while s1 is in flight
        outcomes = []
        waiter = self.start_waiter(q, outcomes)
        waiter.join(0.2)
        assert waiter.is_alive()
        q.done(event)  # done notifies: the follow-up is runnable now
        waiter.join(5)
        assert not waiter.is_alive() and outcomes == [True]
        q.done(q.pop())
        assert q.wait() is False  # empty, nothing in flight: nothing can come


class TestHappyPath:
    def test_tool_turn_appends_call_and_result(self, registry, repair_workspace, tmp_path):
        runtime = make_runtime(registry, repair_workspace, tmp_path / "store",
                               [evidence_step(log_path="in/fail.log")])
        submit_repair_task(runtime, repair_workspace)
        runtime.run_until_quiescent(5)  # script runs dry after the tool turn
        kinds = kinds_of(runtime.store, "s0001")
        assert kinds[:5] == [
            EventKind.USER_MESSAGE,
            EventKind.GUIDANCE_INJECTION,
            EventKind.ASSISTANT_MESSAGE,
            EventKind.TOOL_CALL,
            EventKind.TOOL_RESULT,
        ]

    def test_full_repair_run_completes(self, registry, repair_workspace, tmp_path):
        runtime = make_runtime(registry, repair_workspace, tmp_path / "store",
                               repair_script())
        submit_repair_task(runtime, repair_workspace)
        summary = runtime.run_until_quiescent(20)
        session = runtime.store.session("s0001")
        assert session.status is SessionStatus.COMPLETED
        assert (repair_workspace / "out" / "report.md").is_file()
        assert [s.turns for s in summary.sessions if s.session_id == "s0001"] == [5]

    def test_single_decision_property(self, registry, repair_workspace, tmp_path):
        runtime = make_runtime(registry, repair_workspace, tmp_path / "store",
                               repair_script())
        submit_repair_task(runtime, repair_workspace)
        runtime.run_until_quiescent(20)
        results_between = 0
        for kind in kinds_of(runtime.store, "s0001"):
            if kind is EventKind.ASSISTANT_MESSAGE:
                results_between = 0
            elif kind is EventKind.TOOL_RESULT:
                results_between += 1
                assert results_between <= 1


class TestContinuationPaths:
    def test_plain_text_no_skills_completes(self, registry, guarded_workspace, tmp_path):
        runtime = make_runtime(registry, guarded_workspace, tmp_path / "store",
                               [{"respond": {"text": "nothing to do"}}])
        runtime.submit_task(DelegatedTask("say hi", "chat", guarded_workspace, ""))
        runtime.run_until_quiescent(5)
        session = runtime.store.session("s0001")
        assert session.status is SessionStatus.COMPLETED
        assert session.history[-1].payload["report_text"] == "nothing to do"

    def test_force_action_injects_and_reenters(self, registry, repair_workspace, tmp_path):
        script = [
            {"respond": {"text": "let me think"}},  # no tool call in reproduce
            evidence_step(log_path="in/fail.log"),
        ]
        runtime = make_runtime(registry, repair_workspace, tmp_path / "store", script)
        submit_repair_task(runtime, repair_workspace)
        with pytest.raises(StepBudgetExhausted):
            runtime.run_until_quiescent(2)
        events = events_of(runtime.store, "s0001")
        forced = [p for k, p in events
                  if k is EventKind.GUIDANCE_INJECTION and "must now call" in p.get("text", "")]
        assert forced and "repair_collect_evidence" in forced[0]["text"]
        # the forced re-entry executed the evidence tool
        assert any(k is EventKind.TOOL_RESULT and p["name"] == "repair_collect_evidence"
                   for k, p in events)

    def test_rejected_call_forces_another_turn(self, registry, repair_workspace, tmp_path):
        script = [
            patch_step(phase="reproduce"),  # patch is illegal in reproduce
            evidence_step(log_path="in/fail.log"),
        ]
        runtime = make_runtime(registry, repair_workspace, tmp_path / "store", script,
                               apply_tool_filters=False)  # let the bad call through to the guard
        submit_repair_task(runtime, repair_workspace)
        runtime.run_until_quiescent(6)
        events = events_of(runtime.store, "s0001")
        rejected = [p for k, p in events if k is EventKind.TOOL_RESULT and not p["ok"]]
        assert rejected
        assert rejected[0]["output"]["error"] == "rejected"
        assert "not available in phase reproduce" in rejected[0]["output"]["reason"]

    def test_blocked_finish_tool_result_carries_reasons(self, registry, repair_workspace,
                                                        tmp_path):
        script = [finish_step(report="premature")]
        runtime = make_runtime(registry, repair_workspace, tmp_path / "store", script)
        submit_repair_task(runtime, repair_workspace)
        with pytest.raises(StepBudgetExhausted):
            runtime.run_until_quiescent(1)
        events = events_of(runtime.store, "s0001")
        finish_results = [p for k, p in events
                          if k is EventKind.TOOL_RESULT and p["name"] == "finish"]
        assert finish_results[0]["ok"] is False
        assert "verification not passed" in finish_results[0]["output"]["reasons"]
        assert runtime.store.session("s0001").status is not SessionStatus.COMPLETED

    def test_blocked_plain_text_finish_injects_guidance(self, registry, repair_workspace,
                                                        tmp_path):
        # patch phase, no tool call, gates open -> the planner consults the gate
        script = [
            evidence_step(log_path="in/fail.log"),
            {"when": {"phase_contains": "phase: patch"}, "respond": {"text": "done i think"}},
        ]
        runtime = make_runtime(registry, repair_workspace, tmp_path / "store", script)
        submit_repair_task(runtime, repair_workspace)
        runtime.run_until_quiescent(6)
        session = runtime.store.session("s0001")
        assert not session.has_completion
        assert session.status is not SessionStatus.COMPLETED
        history = session.history
        reply = next(i for i, e in enumerate(history)
                     if e.kind is EventKind.ASSISTANT_MESSAGE
                     and e.payload["text"] == "done i think")
        following = history[reply + 1]
        assert following.kind is EventKind.GUIDANCE_INJECTION
        assert following.payload["skill_id"] == "repair"
        assert following.payload["text"].startswith("Completion is blocked:")
        assert "verification not passed" in following.payload["text"]


class TestBackendFailures:
    class Flaky:
        provider = "flaky"
        response_model = "flaky-1"

        def __init__(self, failures, retryable=True):
            self.failures = failures
            self.retryable = retryable

        def complete(self, request):
            if self.failures > 0:
                self.failures -= 1
                raise ModelBackendError("transient", retryable=self.retryable)
            return ModelResponse(text="recovered",
                                 usage=UsageRecord(self.provider, self.response_model))

    def build(self, registry, ws, tmp_path, backend):
        from skillet import SessionStore as Store, UsageLog
        config = RunConfig.from_dict({"planner": {"backend_retries": 3}})
        store = Store(tmp_path / "store")
        return Runtime(registry, store, backend,
                       UsageLog(tmp_path / "store" / "requests.jsonl"), config)

    def test_retry_then_recover(self, registry, guarded_workspace, tmp_path):
        runtime = self.build(registry, guarded_workspace, tmp_path, self.Flaky(2))
        runtime.submit_task(DelegatedTask("t", "chat", guarded_workspace, ""))
        runtime.run_until_quiescent(10)
        session = runtime.store.session("s0001")
        assert session.status is SessionStatus.COMPLETED
        notes = [e for e in session.history if e.kind is EventKind.SYSTEM_NOTE]
        assert len(notes) == 2

    def test_retries_exhausted_fails_session(self, registry, guarded_workspace, tmp_path):
        runtime = self.build(registry, guarded_workspace, tmp_path, self.Flaky(99))
        runtime.submit_task(DelegatedTask("t", "chat", guarded_workspace, ""))
        runtime.run_until_quiescent(10)
        assert runtime.store.session("s0001").status is SessionStatus.FAILED

    def test_non_retryable_fails_immediately(self, registry, guarded_workspace, tmp_path):
        runtime = self.build(registry, guarded_workspace, tmp_path,
                             self.Flaky(99, retryable=False))
        runtime.submit_task(DelegatedTask("t", "chat", guarded_workspace, ""))
        runtime.run_until_quiescent(10)
        session = runtime.store.session("s0001")
        assert session.status is SessionStatus.FAILED
        assert len([e for e in session.history if e.kind is EventKind.SYSTEM_NOTE]) == 1


class TestBudget:
    def test_zero_budget_reports_untouched_sessions(self, registry, guarded_workspace,
                                                    tmp_path):
        runtime = make_runtime(registry, guarded_workspace, tmp_path / "store",
                               [{"respond": {"text": "hi"}}])
        runtime.submit_task(DelegatedTask("t", "chat", guarded_workspace, ""))
        with pytest.raises(StepBudgetExhausted) as exc:
            runtime.run_until_quiescent(0)
        summary = exc.value.summary
        assert summary.steps_used == 0
        assert [s.turns for s in summary.sessions if s.session_id == "s0001"] == [0]
        assert runtime.store.session("s0001").status is SessionStatus.AWAITING_FOLLOWUP

    def test_never_verifying_script_exhausts_budget(self, registry, repair_workspace,
                                                    tmp_path):
        script = [evidence_step(log_path="in/fail.log")] + [
            {"when": {"phase_contains": "phase: patch"},
             "respond": {"text": "pondering"}} for _ in range(20)
        ]
        runtime = make_runtime(registry, repair_workspace, tmp_path / "store", script)
        submit_repair_task(runtime, repair_workspace)
        with pytest.raises(StepBudgetExhausted):
            runtime.run_until_quiescent(6)
        session = runtime.store.session("s0001")
        assert session.status is SessionStatus.AWAITING_FOLLOWUP
        assert not session.has_completion

    def test_empty_queue_returns_normally(self, registry, guarded_workspace, tmp_path):
        runtime = make_runtime(registry, guarded_workspace, tmp_path / "store", [])
        summary = runtime.run_until_quiescent(5)
        assert summary.steps_used == 0


class TestDelegation:
    def delegation_script(self):
        return [
            {"when": {"tool_visible": "delegate_subtask"},
             "respond": {"tool_call": {"name": "delegate_subtask", "args": {
                 "task_text": "fix the failing repair bug test",
                 "task_type": "code_repair",
                 "subdir": ".",
                 "done_when": REPAIR_DONE_WHEN,
             }}}},
            *repair_script(),
            {"when": {"phase_contains": "child_report"},
             "respond": {"tool_call": {"name": "finish",
                                       "args": {"report_text": "child done, wrapping up"}}}},
        ]

    def test_parent_waits_then_receives_child_report(self, registry, repair_workspace,
                                                     tmp_path):
        runtime = make_runtime(registry, repair_workspace, tmp_path / "store",
                               self.delegation_script(), allowlist=("python3",))
        runtime.submit_task(DelegatedTask(
            "coordinate the work", "coordination", repair_workspace, "child reports back"))
        runtime.run_until_quiescent(25)
        store = runtime.store
        parent, child = store.session("s0001"), store.session("s0002")
        assert parent.status is SessionStatus.COMPLETED
        assert child.status is SessionStatus.COMPLETED
        assert child.parent_id == "s0001"
        assert child.routed_skills == ["repair"]
        reports = [e for e in parent.history
                   if e.kind is EventKind.USER_MESSAGE
                   and e.payload.get("source") == "child_report"]
        assert len(reports) == 1
        assert "verification passed" in reports[0].payload["text"]
        # the delegate result itself was the awaiting placeholder
        placeholder = next(e for e in parent.history
                           if e.kind is EventKind.TOOL_RESULT
                           and e.payload["name"] == "delegate_subtask")
        assert placeholder.payload["ok"] is True
        assert placeholder.payload["output"]["session_id"] == "s0002"

    def test_session_logs_are_byte_identical_in_both_drain_modes(self, registry,
                                                                 repair_workspace, tmp_path):
        pristine = tmp_path / "pristine"
        shutil.copytree(repair_workspace, pristine)
        logs = {}
        for single_worker in (True, False):
            # the same workspace path each time: it is written into the logs
            shutil.rmtree(repair_workspace)
            shutil.copytree(pristine, repair_workspace)
            store_dir = tmp_path / f"store-{single_worker}"
            config = RunConfig.from_dict({"planner": {"single_worker": single_worker}})
            runtime = make_runtime(registry, repair_workspace, store_dir,
                                   self.delegation_script(), config=config)
            runtime.submit_task(DelegatedTask(
                "coordinate the work", "coordination", repair_workspace,
                "child reports back"))
            runtime.run_until_quiescent(25)
            assert {s.status for s in runtime.store.sessions()} == {SessionStatus.COMPLETED}
            logs[single_worker] = {path.name: path.read_bytes()
                                   for path in (store_dir / "sessions").glob("*.log")}
        assert sorted(logs[True]) == ["s0001.log", "s0002.log"]
        assert logs[False] == logs[True]

    def test_child_tool_surface_is_orchestration_plus_routed(self, registry,
                                                             repair_workspace, tmp_path):
        runtime = make_runtime(registry, repair_workspace, tmp_path / "store",
                               self.delegation_script(), allowlist=("python3",))
        runtime.submit_task(DelegatedTask(
            "coordinate", "coordination", repair_workspace, "child reports back"))
        runtime.run_until_quiescent(25)
        child = runtime.store.session("s0002")
        names = [t.name for t in runtime._candidate_tools(child)]
        assert names == [
            "fs_read", "fs_write", "run_command", "delegate_subtask", "finish",
            "repair_collect_evidence", "repair_apply_unified_patch",
            "repair_run_verification", "repair_write_artifact",
        ]
        parent_names = [t.name for t in runtime._candidate_tools(
            runtime.store.session("s0001"))]
        assert parent_names == ["fs_read", "fs_write", "run_command",
                                "delegate_subtask", "finish"]

    def test_empty_routed_set_still_spawns(self, registry, guarded_workspace, tmp_path):
        script = [
            {"respond": {"tool_call": {"name": "delegate_subtask", "args": {
                "task_text": "paint a fresco", "task_type": "art",
                "subdir": "studio", "done_when": ""}}}},
            {"respond": {"text": "blank canvas is fine"}},
            {"respond": {"tool_call": {"name": "finish", "args": {"report_text": "done"}}}},
        ]
        runtime = make_runtime(registry, guarded_workspace, tmp_path / "store", script)
        runtime.submit_task(DelegatedTask("delegate art", "other", guarded_workspace, ""))
        runtime.run_until_quiescent(10)
        child = runtime.store.session("s0002")
        assert child.routed_skills == []
        assert child.status is SessionStatus.COMPLETED
        assert (guarded_workspace / "studio").is_dir()

    def test_workspace_escape_via_delegate_is_tool_failure(self, registry,
                                                           guarded_workspace, tmp_path):
        script = [
            {"respond": {"tool_call": {"name": "delegate_subtask", "args": {
                "task_text": "t", "task_type": "x",
                "subdir": "../decoy", "done_when": ""}}}},
            {"respond": {"text": "ok giving up"}},
        ]
        runtime = make_runtime(registry, guarded_workspace, tmp_path / "store", script)
        runtime.submit_task(DelegatedTask("t", "other", guarded_workspace, ""))
        runtime.run_until_quiescent(10)
        events = events_of(runtime.store, "s0001")
        failed = next(p for k, p in events
                      if k is EventKind.TOOL_RESULT and p["name"] == "delegate_subtask")
        assert failed["ok"] is False
        assert failed["output"]["error"] == "path_escape"
        assert len(runtime.store.sessions()) == 1


class TestReplayDeterminism:
    def test_two_runs_byte_identical_logs(self, registry, tmp_path):
        from conftest import BUGGY_CALC, CALC_TEST
        ws = tmp_path / "ws"

        def reset_workspace():
            if ws.exists():
                shutil.rmtree(ws)
            (ws / "in").mkdir(parents=True)
            (ws / "in" / "calc.py").write_text(BUGGY_CALC)
            (ws / "in" / "test_calc.py").write_text(CALC_TEST)

        logs = []
        for run in ("one", "two"):
            reset_workspace()
            runtime = make_runtime(registry, ws, tmp_path / f"store-{run}", repair_script())
            submit_repair_task(runtime, ws)
            runtime.run_until_quiescent(20)
            log_dir = tmp_path / f"store-{run}" / "sessions"
            logs.append({p.name: p.read_bytes() for p in sorted(log_dir.glob("*.log"))})
        assert logs[0] == logs[1]


REPAIR_TOOLS = ["repair_collect_evidence", "repair_apply_unified_patch",
                "repair_run_verification", "repair_write_artifact", "finish"]

# runs the canonical repair task in a fresh interpreter; {crash} is the code
# that ends it abruptly
CRASHING_RUN = """
import json, os, sys
sys.path[:0] = [{src!r}, {tests!r}]
from conftest import make_runtime, repair_script, submit_repair_task
from skillet import SkillRegistry, builtin_skills_dir
registry = SkillRegistry()
registry.load_all(builtin_skills_dir())
runtime = make_runtime(registry, {ws!r}, {store!r}, repair_script())
submit_repair_task(runtime, {ws!r})
{crash}
runtime.run_until_quiescent(20)
"""


def run_and_crash(tmp_path, ws, crash: str) -> str:
    """Run the canonical repair task in a child process that must end by
    `os._exit(3)` somewhere in `crash`; its stdout."""
    code = CRASHING_RUN.format(src=str(Path(skillet.__file__).parents[1]),
                               tests=str(Path(__file__).parent), ws=str(ws),
                               store=str(tmp_path / "store"), crash=crash)
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                          timeout=60)
    assert proc.returncode == 3, proc.stderr
    return proc.stdout


class TestDurabilityPoints:
    """A wakeup fsyncs its session's log before a tool's effect and before it
    returns (or when the log closes), not once per record."""

    def test_canonical_run_makes_at_most_three_fsyncs_per_wakeup(
            self, registry, repair_workspace, tmp_path, monkeypatch):
        runtime = make_runtime(registry, repair_workspace, tmp_path / "store", repair_script())
        submit_repair_task(runtime, repair_workspace)
        fsyncs = []
        real_fsync = os.fsync

        def counted_fsync(fd):
            fsyncs.append(fd)
            real_fsync(fd)

        per_wakeup = []
        run_wakeup = runtime.run_wakeup

        def counted_wakeup(event):
            before = len(fsyncs)
            run_wakeup(event)
            per_wakeup.append(len(fsyncs) - before)

        monkeypatch.setattr(os, "fsync", counted_fsync)
        monkeypatch.setattr(runtime, "run_wakeup", counted_wakeup)
        runtime.run_until_quiescent(20)
        assert runtime.store.session("s0001").status is SessionStatus.COMPLETED
        # the usage line, the sync before the tool's effect, and the sync at
        # the end of the wakeup (the closing of the log, for the finish)
        assert len(per_wakeup) == len(REPAIR_TOOLS)
        assert max(per_wakeup) <= 3, per_wakeup

    def test_accepted_call_is_durable_when_its_executor_starts(
            self, registry, repair_workspace, tmp_path, monkeypatch):
        runtime = make_runtime(registry, repair_workspace, tmp_path / "store", repair_script())
        submit_repair_task(runtime, repair_workspace)
        synced = {}  # (device, inode) -> file length at its last fsync
        real_fsync = os.fsync

        def fsync(fd):
            real_fsync(fd)
            st = os.fstat(fd)
            synced[st.st_dev, st.st_ino] = st.st_size

        log_path = tmp_path / "store" / "sessions" / "s0001.log"
        started = []
        execute = runtime._execute

        def checked_execute(schema, args, session):
            data = log_path.read_bytes()
            call = json.loads(data.splitlines()[-1])
            assert call["kind"] == "tool_call" and call["payload"]["accepted"]
            st = log_path.stat()
            assert synced.get((st.st_dev, st.st_ino), 0) >= len(data)
            started.append(schema.name)
            return execute(schema, args, session)

        monkeypatch.setattr(os, "fsync", fsync)
        monkeypatch.setattr(runtime, "_execute", checked_execute)
        runtime.run_until_quiescent(20)
        assert started == REPAIR_TOOLS

    def test_crash_inside_an_executor_leaves_the_call_without_a_result(
            self, repair_workspace, tmp_path):
        run_and_crash(tmp_path, repair_workspace, (
            "execute = runtime._execute\n"
            "def crashing(schema, args, session):\n"
            "    if schema.name == 'repair_apply_unified_patch':\n"
            "        os._exit(3)\n"
            "    return execute(schema, args, session)\n"
            "runtime._execute = crashing"))
        with SessionStore(tmp_path / "store") as store:
            last = store.session("s0001").history[-1]
        assert last.kind is EventKind.TOOL_CALL
        assert last.payload["name"] == "repair_apply_unified_patch"
        assert last.payload["accepted"] is True
        assert (repair_workspace / "in" / "calc.py").read_text() == BUGGY_CALC

    def test_crash_right_after_a_wakeup_keeps_all_its_records(self, repair_workspace,
                                                               tmp_path):
        out = run_and_crash(tmp_path, repair_workspace, (
            "run_wakeup = runtime.run_wakeup\n"
            "def crash_after_second(event):\n"
            "    run_wakeup(event)\n"
            "    if runtime._turns['s0001'] == 2:\n"
            "        s = runtime.store.session('s0001')\n"
            "        print(json.dumps([[e.seq, e.kind.value, e.payload] for e in s.history]"
            " + [s.skill_state, s.status.value]))\n"
            "        sys.stdout.flush()\n"
            "        os._exit(3)\n"
            "runtime.run_wakeup = crash_after_second"))
        live = json.loads(out)
        with SessionStore(tmp_path / "store") as store:
            again = store.session("s0001")
            assert [[e.seq, e.kind.value, e.payload] for e in again.history] \
                + [again.skill_state, again.status.value] == live
        assert live[-3][2]["name"] == "repair_apply_unified_patch"  # the patch's result

    def test_failed_sync_before_an_effect_stops_the_run(
            self, registry, repair_workspace, tmp_path, monkeypatch):
        runtime = make_runtime(registry, repair_workspace, tmp_path / "store", repair_script())
        submit_repair_task(runtime, repair_workspace)
        log_path = tmp_path / "store" / "sessions" / "s0001.log"
        real_fsync = os.fsync

        def fsync(fd):
            last = json.loads(log_path.read_bytes().splitlines()[-1])
            if (os.fstat(fd).st_ino == log_path.stat().st_ino
                    and last["kind"] == "tool_call"
                    and last["payload"]["name"] == "repair_apply_unified_patch"):
                raise OSError(errno.EIO, "injected fsync failure")
            real_fsync(fd)

        started = []
        run_wakeup = runtime.run_wakeup

        def noted_wakeup(event):
            started.append(event)
            run_wakeup(event)

        monkeypatch.setattr(os, "fsync", fsync)
        monkeypatch.setattr(runtime, "run_wakeup", noted_wakeup)
        with pytest.raises(OSError, match="injected fsync failure"):
            runtime.run_until_quiescent(20)
        assert len(started) == 2  # evidence, then the patch whose sync failed
        assert (repair_workspace / "in" / "calc.py").read_text() == BUGGY_CALC
        last = read_log(tmp_path / "store", "s0001")[0].history[-1]
        assert (last.kind, last.payload["name"]) == \
            (EventKind.TOOL_CALL, "repair_apply_unified_patch")


class TestHookFaultHandling:
    def test_fault_records_note_and_session_survives(self, tmp_path, guarded_workspace):
        import test_hooks
        from skillet import SkillRegistry

        test_hooks.BEHAVIOR.clear()
        calls = {"n": 0}

        def bomb_once(ctx):
            calls["n"] += 1
            if calls["n"] == 1:
                raise RuntimeError("flaky policy")
            return None

        test_hooks.BEHAVIOR["t.alpha_before_llm"] = bomb_once
        registry = SkillRegistry()
        registry.load_skill_package(test_hooks.synth_manifest(tmp_path, "alpha"))
        runtime = make_runtime(registry, guarded_workspace, tmp_path / "store",
                               [{"respond": {"text": "fine"}}])
        session = runtime.store.create_session(
            "t", "misc", guarded_workspace, "", routed_skills=["alpha"])
        runtime.queue.enqueue(session.session_id, "initial")
        runtime.run_until_quiescent(5)
        notes = [e for e in session.history if e.kind is EventKind.SYSTEM_NOTE]
        assert notes and notes[0].payload["note"] == "hook_fault"
        assert notes[0].payload["skill_id"] == "alpha"
        # the retried wakeup got past the hook and completed the session
        assert session.status is SessionStatus.COMPLETED
        test_hooks.BEHAVIOR.clear()


class TestSpawnSubsession:
    def test_precomputed_route_is_honored(self, registry, repair_workspace, tmp_path):
        from skillet import RoutedSkillSet
        runtime = make_runtime(registry, repair_workspace, tmp_path / "store", [])
        parent = runtime.submit_task(
            DelegatedTask("parent", "coordination", repair_workspace, ""))
        task = DelegatedTask("child", "unrelated_type", repair_workspace, "")
        child = runtime.submit_task(task, parent_id=parent.session_id,
                                    routed=RoutedSkillSet(entries=[("repair", 1.0)]))
        assert child.parent_id == parent.session_id
        assert child.routed_skills == ["repair"]
        assert runtime.queue.pending_sessions().count(child.session_id) == 1


class TestMultiWorker:
    def test_two_independent_sessions_complete(self, registry, tmp_path):
        ws_a = tmp_path / "a"
        ws_b = tmp_path / "b"
        ws_a.mkdir()
        ws_b.mkdir()
        script = [{"respond": {"text": "done"}}, {"respond": {"text": "done"}}]
        config = RunConfig.from_dict({"planner": {"single_worker": False}})
        runtime = make_runtime(registry, ws_a, tmp_path / "store", script, config=config)
        runtime.submit_task(DelegatedTask("a", "chat", ws_a, ""))
        runtime.submit_task(DelegatedTask("b", "chat", ws_b, ""))
        runtime.run_until_quiescent(10)
        statuses = {s.session_id: s.status for s in runtime.store.sessions()}
        assert set(statuses.values()) == {SessionStatus.COMPLETED}

    @staticmethod
    def threaded_runtime(registry, tmp_path, script, sessions, max_steps=100):
        config = RunConfig.from_dict({"planner": {"single_worker": False}})
        runtime = make_runtime(registry, tmp_path, tmp_path / "store", script,
                               config=config, max_steps=max_steps)
        for i in range(sessions):
            ws = tmp_path / f"ws{i}"
            ws.mkdir()
            (ws / "f.txt").write_text(f"file {i}\n")
            runtime.submit_task(DelegatedTask(f"task {i}", "chat", ws, ""))
        return runtime

    def test_every_runnable_session_has_a_model_call_in_flight(self, registry, tmp_path):
        sessions = 8
        barrier = threading.Barrier(sessions, timeout=10)

        class AllAtOnce:
            """Answers only once every session's model call is in flight."""

            def complete(self, request):
                barrier.wait()
                return ModelResponse(text="done")

        runtime = self.threaded_runtime(registry, tmp_path, [], sessions)
        runtime.backend = AllAtOnce()
        summary = runtime.run_until_quiescent()
        assert summary.steps_used == sessions
        assert {s.status for s in summary.sessions} == {"completed"}

    def test_no_wakeup_starts_after_a_runner_raises(self, registry, tmp_path):
        barrier = threading.Barrier(2, timeout=10)
        failed = threading.Event()
        calls = []

        class FailOne:
            """s0001's call raises once both calls are in flight; s0002's
            returns a tool call, so s0002 has a follow-up, once s0001's failed
            wakeup is done."""

            def complete(self, request):
                calls.append(request.session_id)
                barrier.wait()
                if request.session_id == "s0001":
                    raise RuntimeError("backend bug")
                assert failed.wait(10)
                return ModelResponse(tool_call=ToolCallRequest("fs_read", {"path": "f.txt"}))

        runtime = self.threaded_runtime(registry, tmp_path, [], 2)
        runtime.backend = FailOne()
        queue_done = runtime.queue.done

        def done(event):
            queue_done(event)
            if event.session_id == "s0001":
                failed.set()

        runtime.queue.done = done
        with pytest.raises(RuntimeError, match="backend bug"):
            runtime.run_until_quiescent()
        assert sorted(calls) == ["s0001", "s0002"]
        assert runtime.queue.pending_sessions() == ["s0002"]

    def test_step_budget_parks_pending_sessions(self, registry, tmp_path):
        # each session: an fs_read turn, then a text reply on its result
        script = ([{"when": {"phase_contains": "[tool_result fs_read]"},
                    "respond": {"text": "done"}}] * 3
                  + [{"respond": {"tool_call": {"name": "fs_read",
                                                "args": {"path": "f.txt"}}}}] * 3)
        runtime = self.threaded_runtime(registry, tmp_path, script, 3, max_steps=4)
        with pytest.raises(StepBudgetExhausted) as exc:
            runtime.run_until_quiescent()
        summary = exc.value.summary
        assert summary.steps_used == 4
        assert summary.pending == 2
        pending = set(runtime.queue.pending_sessions())
        assert pending
        for session in runtime.store.sessions():
            if session.session_id in pending:
                assert session.status is SessionStatus.AWAITING_FOLLOWUP
            else:
                assert session.status is SessionStatus.COMPLETED

    def test_a_worker_error_is_raised_by_the_drain(self, registry, tmp_path):
        class Broken:
            def complete(self, request):
                raise RuntimeError("backend bug")

        runtime = self.threaded_runtime(registry, tmp_path, [], 3)
        runtime.backend = Broken()
        with pytest.raises(RuntimeError, match="backend bug"):
            runtime.run_until_quiescent()
