"""Correctness checks on what a workload left behind.

Each check is computed from the workspace, the store and the benchmark's
own inputs, never from a copy of earlier output, and returns a list of
problems (empty when the check holds). `selftest.py` feeds every check a
wrong outcome and shows that it reports it.
"""

from __future__ import annotations

import hashlib
import json
from pathlib import Path

from skillet import EventKind, SessionStore

# problems with this prefix come from the known protected-path fault: the
# repair skill's artifact writer does not enforce protected_path_globs
PROTECTED_FAULT = "protected path changed"


def tree_digest(root: Path) -> str:
    digest = hashlib.sha256()
    for path in sorted(root.rglob("*")):
        digest.update(path.relative_to(root).as_posix().encode() + b"\0")
        if path.is_file():
            digest.update(path.read_bytes())
    return digest.hexdigest()


def patched_calc(workspace: Path, inputs: list[tuple[int, int]]) -> list[str]:
    """Execute the patched in/calc.py and check add() on seeded inputs."""
    namespace: dict = {}
    try:
        exec(compile((workspace / "in" / "calc.py").read_text(), "calc.py", "exec"), namespace)
        wrong = [(a, b, namespace["add"](a, b)) for a, b in inputs
                 if namespace["add"](a, b) != a + b]
    except Exception as exc:  # the file is model-written input
        return [f"{workspace.name}: in/calc.py does not run: {exc!r}"]
    return [f"{workspace.name}: add({a}, {b}) returned {got}" for a, b, got in wrong]


def artifact_bytes(workspace: Path, relpath: str, expected: str) -> list[str]:
    path = workspace / relpath
    if not path.is_file():
        return [f"{workspace.name}: artifact {relpath} missing"]
    if path.read_bytes() != expected.encode():
        return [f"{workspace.name}: artifact {relpath} differs from what its script wrote"]
    return []


def protected_unchanged(workspace: Path, digest: str) -> list[str]:
    if tree_digest(workspace / "tests") != digest:
        return [f"{PROTECTED_FAULT}: {workspace.name}/tests"]
    return []


def verified_before_completion(session) -> list[str]:
    """A completion event needs a passing repair_run_verification result
    earlier in the same session's history."""
    verified = False
    for event in session.history:
        if (event.kind is EventKind.TOOL_RESULT and event.payload["name"] == "repair_run_verification"
                and event.payload["ok"] and event.payload["output"].get("passed") is True):
            verified = True
        if event.kind is EventKind.COMPLETION and not verified:
            return [f"{session.session_id}: completed without a passing verification"]
    return []


def completed(session) -> list[str]:
    if session.status.value != "completed":
        return [f"{session.session_id}: status {session.status.value}, not completed"]
    return []


def repair_task(session, task) -> list[str]:
    """Every per-task check of a repair session."""
    ws = task.workspace
    return (completed(session)
            + verified_before_completion(session)
            + patched_calc(ws, task.inputs)
            + artifact_bytes(ws, "out/report.md", task.report)
            + protected_unchanged(ws, task.tests_digest))


def usage_identity(store: SessionStore, requests: list[dict]) -> list[str]:
    """Per-session usage totals equal the column sums of requests.jsonl."""
    sums: dict[str, list[int]] = {}
    for line in requests:
        row = sums.setdefault(line["session_id"], [0, 0, 0, 0, 0])
        for i, column in enumerate(("input_tokens", "output_tokens", "cache_tokens",
                                    "total_tokens")):
            row[i] += line[column]
        row[4] += 1
    problems = []
    for session in store.sessions():
        u = session.usage
        totals = [u.input_tokens, u.output_tokens, u.cache_tokens, u.total_tokens,
                  u.request_count]
        if totals != sums.get(session.session_id, [0, 0, 0, 0, 0]):
            problems.append(f"{session.session_id}: usage totals {totals} differ from "
                            f"requests.jsonl sums {sums.get(session.session_id)}")
    return problems


def _history(session) -> list[tuple]:
    return [(e.seq, EventKind(e.kind).value, json.dumps(e.payload, sort_keys=True))
            for e in session.history]


def reload_matches(store: SessionStore) -> list[str]:
    """A fresh SessionStore over the same directory reproduces every history
    and status."""
    fresh = SessionStore(store.store_dir)
    live_ids = [s.session_id for s in store.sessions()]
    if [s.session_id for s in fresh.sessions()] != live_ids:
        return [f"reload found sessions {[s.session_id for s in fresh.sessions()]}, "
                f"expected {live_ids}"]
    problems = []
    for live in store.sessions():
        again = fresh.session(live.session_id)
        if _history(again) != _history(live):
            problems.append(f"{live.session_id}: reloaded history differs")
        if again.status != live.status:
            problems.append(f"{live.session_id}: reloaded status {again.status.value}, "
                            f"live {live.status.value}")
    return problems


def gapless(session, resumed_at: int) -> list[str]:
    """Seqs run 1..n without a gap, and the log grew past the resume point."""
    seqs = [e.seq for e in session.history]
    if seqs != list(range(1, len(seqs) + 1)):
        return [f"{session.session_id}: seqs are not gapless across the resume"]
    if len(seqs) <= resumed_at:
        return [f"{session.session_id}: no events after the resume at seq {resumed_at}"]
    return []


def no_overlap(wakeups: list[tuple]) -> list[str]:
    """No two wakeups of one session overlap in time."""
    last_end: dict[str, float] = {}
    problems = []
    for session_id, start, end, *_ in sorted(wakeups, key=lambda w: w[1]):
        if start < last_end.get(session_id, float("-inf")):
            problems.append(f"{session_id}: overlapping wakeups at {start:.6f}")
        last_end[session_id] = max(end, last_end.get(session_id, end))
    return problems


def delegation(exit_code: int, store: SessionStore, root_id: str) -> list[str]:
    """`skillet run` exits 0 and the coordinator gets exactly one child report."""
    problems = [] if exit_code == 0 else [f"{root_id}: skillet run exited {exit_code}"]
    root = store.session(root_id)
    reports = [e for e in root.history if e.kind is EventKind.USER_MESSAGE
               and e.payload.get("source") == "child_report"]
    if len(reports) != 1:
        problems.append(f"{root_id}: {len(reports)} child reports, expected 1")
    return problems + completed(root)
