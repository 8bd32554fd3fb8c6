"""Shows that every correctness check reports a wrong outcome.

Each case builds a deliberately wrong outcome (an unpatched file, a
clobbered protected file, a completion without verification, ...) and a
right one, and requires the check to report the first and pass the second.
Run from the root of a skillet checkout:

    python3 perfbench/selftest.py

Exits 1 if any check misses its wrong outcome or flags its right one.
"""

from __future__ import annotations

import random
import shutil
import sys
import tempfile
from pathlib import Path
from types import SimpleNamespace

from run import ROOT, import_skillet

import_skillet()

import checks  # noqa: E402
from skillet import EventKind, HistoryEvent, SessionStatus, SessionStore  # noqa: E402
from workloads import Round, Task, score_tasks, write_workspace  # noqa: E402


def case(name: str, wrong: list[str], right: list[str]) -> bool:
    ok = bool(wrong) and not right
    print(f"{'ok  ' if ok else 'FAIL'} {name}: wrong outcome -> {wrong[:1]}, right -> {right}")
    return ok


def event(seq: int, kind: EventKind, payload: dict) -> HistoryEvent:
    return HistoryEvent(seq=seq, kind=kind, payload=payload)


def verification(seq: int, passed: bool) -> list[HistoryEvent]:
    return [
        event(seq, EventKind.TOOL_CALL, {"name": "repair_run_verification", "call_id": "c"}),
        event(seq + 1, EventKind.TOOL_RESULT, {"name": "repair_run_verification", "ok": True,
                                               "call_id": "c", "output": {"passed": passed}}),
    ]


def main() -> int:
    (ROOT / ".perfbench").mkdir(exist_ok=True)
    work = Path(tempfile.mkdtemp(prefix="selftest-", dir=ROOT / ".perfbench"))
    results = []
    try:
        rng = random.Random(0)
        task: Task = write_workspace(work / "ws", rng)
        calc = task.workspace / "in" / "calc.py"
        unpatched = checks.patched_calc(task.workspace, task.inputs)
        calc.write_text(calc.read_text().replace("a - b", "a + b"))
        results.append(case("patched in/calc.py returns a + b",
                            unpatched, checks.patched_calc(task.workspace, task.inputs)))

        missing = checks.artifact_bytes(task.workspace, "out/report.md", task.report)
        (task.workspace / "out").mkdir()
        (task.workspace / "out" / "report.md").write_text(task.report + "edited\n")
        altered = checks.artifact_bytes(task.workspace, "out/report.md", task.report)
        (task.workspace / "out" / "report.md").write_text(task.report)
        right = checks.artifact_bytes(task.workspace, "out/report.md", task.report)
        results.append(case("artifact missing", missing, right))
        results.append(case("artifact bytes differ", altered, right))

        (task.workspace / "tests" / "t.py").write_text("# clobbered\n")
        clobbered = checks.protected_unchanged(task.workspace, task.tests_digest)
        fresh = write_workspace(work / "ws2", random.Random(0))
        results.append(case("protected tests/** unchanged", clobbered,
                            checks.protected_unchanged(fresh.workspace, fresh.tests_digest)))

        def session(history, status="completed"):
            return SimpleNamespace(session_id="s0001", history=history,
                                   status=SimpleNamespace(value=status))

        done = event(9, EventKind.COMPLETION, {"report_text": "done"})
        results.append(case(
            "completion needs a passing verification before it",
            checks.verified_before_completion(session(verification(1, False) + [done])),
            checks.verified_before_completion(session(verification(1, True) + [done]))))
        results.append(case(
            "completion after the verification, not before",
            checks.verified_before_completion(session([done] + verification(10, True))),
            checks.verified_before_completion(session(verification(1, True) + [done]))))
        results.append(case("session completed", checks.completed(session([], "failed")),
                            checks.completed(session([]))))

        history = [event(i, EventKind.USER_MESSAGE, {"text": "x"}) for i in (1, 2, 4)]
        gapless = [event(i, EventKind.USER_MESSAGE, {"text": "x"}) for i in (1, 2, 3)]
        results.append(case("seqs gapless across the resume",
                            checks.gapless(session(history), 2), checks.gapless(session(gapless), 2)))
        results.append(case("log grew after the resume",
                            checks.gapless(session(gapless), 3), checks.gapless(session(gapless), 2)))

        results.append(case(
            "no overlapping wakeups of one session",
            checks.no_overlap([("s1", 0.0, 2.0), ("s2", 0.5, 1.0), ("s1", 1.0, 3.0)]),
            checks.no_overlap([("s1", 0.0, 1.0), ("s2", 0.5, 2.0), ("s1", 1.0, 3.0)])))

        store = SessionStore(work / "store")
        parent = store.create_session("coordinate", "coordination", task.workspace, "")
        child = store.create_session("repair", "code_repair", task.workspace, "",
                                     parent_id=parent.session_id)
        line = {"session_id": child.session_id, "input_tokens": 5, "output_tokens": 2,
                "cache_tokens": 0, "total_tokens": 7}
        wrong_usage = checks.usage_identity(store, [line])
        child.usage.add(5, 2, 0, 7)
        results.append(case("usage totals equal requests.jsonl sums",
                            wrong_usage, checks.usage_identity(store, [line])))

        right_reload = checks.reload_matches(store)
        child.history.append(event(child.next_seq, EventKind.USER_MESSAGE, {"text": "unlogged"}))
        results.append(case("a fresh store reproduces every history", checks.reload_matches(store),
                            right_reload))
        child.history.pop()
        store.set_status(child.session_id, "completed")
        child.status = SessionStatus.FAILED  # in memory only, never flushed
        status_wrong = checks.reload_matches(store)
        results.append(case("a fresh store reproduces every status", status_wrong, right_reload))

        report = {"text": "[child_report s0002] done", "source": "child_report",
                  "child_session_id": child.session_id}
        store.append_event(parent.session_id, EventKind.USER_MESSAGE, report)
        store.set_status(parent.session_id, "completed")
        results.append(case("skillet run exits 0",
                            checks.delegation(2, store, parent.session_id),
                            checks.delegation(0, store, parent.session_id)))
        store2 = SessionStore(work / "store2")
        twice = store2.create_session("coordinate", "coordination", task.workspace, "")
        store2.append_event(twice.session_id, EventKind.USER_MESSAGE, report)
        store2.append_event(twice.session_id, EventKind.USER_MESSAGE, report)
        store2.set_status(twice.session_id, "completed")
        results.append(case("exactly one child report",
                            checks.delegation(0, store2, twice.session_id),
                            checks.delegation(0, store, parent.session_id)))

        protected_only, mixed = Round(), Round()
        score_tasks(protected_only, [[f"{checks.PROTECTED_FAULT}: t019/tests"], []])
        score_tasks(mixed, [[f"{checks.PROTECTED_FAULT}: t019/tests", "t019: add(1, 2) returned -1"]])
        results.append(case(
            "a task with another problem beside the protected-path fault is incorrect",
            mixed.problems, protected_only.problems))
        results.append(case(
            "a task with only the protected-path fault counts as failed",
            [f"failed={mixed.failed}"] if mixed.failed == 0 else [],
            [] if protected_only.failed == 1 else [f"failed={protected_only.failed}"]))
    finally:
        shutil.rmtree(work, ignore_errors=True)
    print(f"{sum(results)}/{len(results)} checks report their wrong outcome")
    return 0 if all(results) else 1


if __name__ == "__main__":
    sys.exit(main())
