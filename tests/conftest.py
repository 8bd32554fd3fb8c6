"""Shared fixtures: guarded workspaces, the repair fixture, scripted runtimes."""

from __future__ import annotations

import hashlib
import json
from pathlib import Path

import pytest

from skillet import (
    DelegatedTask,
    RunConfig,
    Runtime,
    ScriptedBackend,
    SessionStore,
    SkillRegistry,
    UsageLog,
    builtin_skills_dir,
)
from skillet.sessions import read_log, snapshot_records

BUGGY_CALC = "def add(a, b):\n    return a - b\n"
FIXED_CALC = "def add(a, b):\n    return a + b\n"
# exec-based test: immune to stale __pycache__ after same-size patches
CALC_TEST = (
    "ns = {}\n"
    "exec(open('in/calc.py').read(), ns)\n"
    "assert ns['add'](2, 3) == 5, 'add(2,3) returned %r' % ns['add'](2, 3)\n"
    "print('ok')\n"
)

CALC_PATCH = """@@ -1,2 +1,2 @@
 def add(a, b):
-    return a - b
+    return a + b
"""


def tree_checksum(root: Path) -> str:
    digest = hashlib.sha256()
    for path in sorted(root.rglob("*")):
        digest.update(str(path.relative_to(root)).encode())
        if path.is_file():
            digest.update(path.read_bytes())
    return digest.hexdigest()


@pytest.fixture
def guarded_workspace(tmp_path):
    """A workspace root with a decoy tree outside it; the decoy must be
    byte-identical after the test (nothing may escape the root)."""
    ws = tmp_path / "ws"
    ws.mkdir()
    decoy = tmp_path / "decoy"
    (decoy / "nested").mkdir(parents=True)
    (decoy / "keep.txt").write_text("do not touch\n")
    (decoy / "nested" / "deep.txt").write_text("still here\n")
    before = tree_checksum(decoy)
    yield ws
    assert tree_checksum(decoy) == before, "a mutation escaped the workspace root"


@pytest.fixture
def repair_workspace(guarded_workspace):
    """Buggy single-file program plus a failing test, under in/."""
    ws = guarded_workspace
    (ws / "in").mkdir()
    (ws / "in" / "calc.py").write_text(BUGGY_CALC)
    (ws / "in" / "test_calc.py").write_text(CALC_TEST)
    (ws / "in" / "fail.log").write_text(
        "Traceback (most recent call last):\n"
        "  File \"/work/x/in/test_calc.py\", line 3, in <module>\n"
        "AssertionError: add(2,3) returned -1\n"
    )
    return ws


# stores opened through open_store, closed after every test
_open_stores: list[SessionStore] = []


def open_store(*args, **kwargs) -> SessionStore:
    """A SessionStore that is closed after the current test."""
    store = SessionStore(*args, **kwargs)
    _open_stores.append(store)
    return store


@pytest.fixture(autouse=True)
def close_open_stores(request, monkeypatch):
    """Close the stores `open_store` (and so `make_runtime`) opened once the
    test is over. The acceptance suite is the fixed behavioural contract and
    is not edited, so the stores it builds itself go through `open_store`
    too. Any other store a test drops with a log still open fails that test:
    pyproject.toml turns the ResourceWarning into an error."""
    if request.module.__name__ == "test_acceptance":
        monkeypatch.setattr(request.module, "SessionStore", open_store)
    yield
    while _open_stores:
        _open_stores.pop().close()


@pytest.fixture(scope="session")
def shared_registry():
    registry = SkillRegistry()
    registry.load_all(builtin_skills_dir())
    return registry


@pytest.fixture
def registry(shared_registry):
    return shared_registry


def evidence_step(argv=None, log_path=None):
    args = {}
    if argv is not None:
        args["command"] = argv
    if log_path is not None:
        args["log_path"] = log_path
    return {
        "when": {"phase_contains": "phase: reproduce"},
        "respond": {"tool_call": {"name": "repair_collect_evidence", "args": args}},
    }


def patch_step(target="in/calc.py", body=CALC_PATCH, phase="patch"):
    return {
        "when": {"phase_contains": f"phase: {phase}"},
        "respond": {"tool_call": {"name": "repair_apply_unified_patch",
                                  "args": {"target": target, "body": body}}},
    }


def verify_step(checks=None):
    if checks is None:
        checks = [{"name": "tests", "type": "command_exit_zero",
                   "args": {"argv": ["python3", "in/test_calc.py"]}}]
    return {
        "when": {"phase_contains": "phase: verify"},
        "respond": {"tool_call": {"name": "repair_run_verification",
                                  "args": {"checks": checks}}},
    }


def artifact_step(path="out/report.md", content="# Repair report\nFixed.\n"):
    return {
        "when": {"phase_contains": "phase: report"},
        "respond": {"tool_call": {"name": "repair_write_artifact",
                                  "args": {"path": path, "content": content}}},
    }


def finish_step(when=None, report="done"):
    step = {"respond": {"tool_call": {"name": "finish", "args": {"report_text": report}}}}
    if when:
        step["when"] = when
    return step


def repair_script():
    """The canonical reproduce -> patch -> verify -> report -> finish script."""
    return [
        evidence_step(argv=["python3", "in/test_calc.py"]),
        patch_step(),
        verify_step(),
        artifact_step(),
        finish_step(when={"phase_contains": "phase: report"},
                    report="Repaired add(); verification passed."),
    ]


REPAIR_TASK_TEXT = "Fix the failing calculator test; the repair bug is in in/calc.py"
REPAIR_DONE_WHEN = "the test passes and the summary is written to `out/report.md`"


def make_runtime(registry, workspace, store_dir, script, *, config=None,
                 allowlist=("python3",), max_steps=None, apply_tool_filters=True):
    overrides = {
        "workspace": {"command_allowlist": list(allowlist)},
        "planner": {"apply_tool_filters": apply_tool_filters},
    }
    if max_steps is not None:
        overrides["planner"]["max_steps"] = max_steps
    cfg = (config or RunConfig()).merged(overrides)
    store = open_store(store_dir)
    backend = ScriptedBackend(script)
    usage_log = UsageLog(Path(store_dir) / "requests.jsonl")
    return Runtime(registry, store, backend, usage_log, cfg)


def submit_repair_task(runtime, workspace, task_text=REPAIR_TASK_TEXT,
                       task_type="code_repair", done_when=REPAIR_DONE_WHEN):
    return runtime.submit_task(DelegatedTask(
        task_text=task_text,
        task_type=task_type,
        workspace_root=Path(workspace),
        done_when=done_when,
    ))


def session_snapshots(store: SessionStore, session_id: str) -> list[dict]:
    """The skill_state_snapshot records of a session's log, in write order."""
    return snapshot_records(read_log(store.store_dir, session_id)[1])


def phase_sequence(session) -> list[str]:
    """The repair phases a session went through, read from the snapshot
    records in its log; the session must live in a store `open_store` made."""
    store = next(s for s in reversed(_open_stores) if session in s.sessions())
    phases = []
    for snapshot in session_snapshots(store, session.session_id):
        if snapshot["skill_id"] != "repair":
            continue
        phase = snapshot["state"].get("phase")
        if phase and (not phases or phases[-1] != phase):
            phases.append(phase)
    return phases


def read_jsonl(path: Path) -> list[dict]:
    if not Path(path).exists():
        return []
    return [json.loads(line) for line in Path(path).read_text().splitlines() if line.strip()]
