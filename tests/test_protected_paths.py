"""Protected paths bind delegated children. A session is bound by its own
routed skills' protected paths and by every ancestor's, each glob anchored
at the root of the session that declares it, whatever skills the child is
routed to; and `delegate_subtask` makes a missing child directory only where
the parent may write. The parents here run with tool filters off, so that
`delegate_subtask` and `fs_write` are offered: a policy holds for hidden
tools too."""

import shutil
import tracemalloc
from pathlib import Path

import pytest

from skillet import DelegatedTask, EventKind, RoutedSkillSet, RunConfig
from skillet.workspace import anchor_globs, glob_match

from conftest import evidence_step, make_runtime, patch_step
from test_composition import two_skills  # noqa: F401  (it also binds the docs skill)

PROTECTED = "assert True\n"


def delegate_step(subdir, task_text="fix the failing repair bug test",
                  task_type="code_repair", session="s0001"):
    return {"when": {"session": session},
            "respond": {"tool_call": {"name": "delegate_subtask", "args": {
                "task_text": task_text, "task_type": task_type,
                "subdir": subdir, "done_when": ""}}}}


def write_step(session, path="t.py"):
    return {"when": {"session": session},
            "respond": {"tool_call": {"name": "fs_write",
                                      "args": {"path": path, "content": "clobbered\n"}}}}


def run_repair_parent(registry, ws, store_dir, script, config=None):
    """Run a session routed to repair (which protects `tests/**`) at `ws`
    until it is quiescent; the runtime."""
    runtime = make_runtime(registry, ws, store_dir, script, config=config,
                           apply_tool_filters=False)
    runtime.submit_task(DelegatedTask("coordinate", "coordination", ws, ""),
                        routed=RoutedSkillSet(entries=[("repair", 1.0)]))
    runtime.run_until_quiescent(20)
    return runtime


def result_of(runtime, session_id, name):
    return next(e.payload for e in runtime.store.session(session_id).history
                if e.kind is EventKind.TOOL_RESULT and e.payload["name"] == name)


@pytest.fixture
def protected_tree(repair_workspace):
    """The parent's protected `tests/t.py`, and a failure log beside it for a
    child rooted at `tests/` to collect evidence from."""
    (repair_workspace / "tests").mkdir()
    (repair_workspace / "tests" / "t.py").write_text(PROTECTED)
    shutil.copy(repair_workspace / "in" / "fail.log", repair_workspace / "tests")
    return repair_workspace / "tests" / "t.py"


def test_a_child_cannot_fs_write_its_parents_protected_paths(registry, repair_workspace,
                                                             protected_tree, tmp_path):
    runtime = run_repair_parent(registry, repair_workspace, tmp_path / "store",
                                [delegate_step("tests"), write_step("s0002")])
    assert runtime.store.session("s0002").routed_skills == ["repair"]
    result = result_of(runtime, "s0002", "fs_write")
    assert result["ok"] is False
    assert "protected path" in result["output"]["message"]
    assert protected_tree.read_text() == PROTECTED


def test_the_patch_guard_refuses_a_childs_patch_to_its_parents_protected_paths(
        registry, repair_workspace, protected_tree, tmp_path):
    child = {"session": "s0002"}
    script = [delegate_step("tests"),
              {**evidence_step(log_path="fail.log"), "when": child},
              {**patch_step(target="t.py", body="@@ -1,1 +1,1 @@\n-assert True\n+x = 2\n"),
               "when": child}]
    runtime = run_repair_parent(registry, repair_workspace, tmp_path / "store", script)
    call = next(e.payload for e in runtime.store.session("s0002").history
                if e.kind is EventKind.TOOL_CALL
                and e.payload["name"] == "repair_apply_unified_patch")
    assert call["accepted"] is False  # refused before_tool, never executed
    result = result_of(runtime, "s0002", "repair_apply_unified_patch")
    assert (result["output"]["error"], result["output"]["rejected_by"]) == ("rejected", "repair")
    assert "protected path" in result["output"]["reason"]
    assert protected_tree.read_text() == PROTECTED


def test_a_child_routed_to_another_skill_is_bound_by_its_parents_globs(
        two_skills, repair_workspace, protected_tree, tmp_path):  # noqa: F811
    # the child's task routes to docs alone, which protects only docs/locked/**
    config = RunConfig.from_dict({"router": {"threshold": 0.4}})
    script = [delegate_step("tests", task_text="write the docs", task_type="notes"),
              {"when": {"session": "s0002"},
               "respond": {"tool_call": {"name": "docs_write_note", "args": {"text": "x"}}}},
              write_step("s0002")]
    runtime = run_repair_parent(two_skills, repair_workspace, tmp_path / "store", script,
                                config=config)
    assert runtime.store.session("s0002").routed_skills == ["docs"]
    for name in ("docs_write_note", "fs_write"):
        result = result_of(runtime, "s0002", name)
        assert result["ok"] is False
        assert "protected path" in result["output"]["message"]
    assert protected_tree.read_text() == PROTECTED
    assert not (repair_workspace / "tests" / "docs").exists()


def test_a_grandchild_is_bound_by_its_grandparents_globs(registry, repair_workspace,
                                                         protected_tree, tmp_path):
    (repair_workspace / "tests" / "sub").mkdir()
    (repair_workspace / "tests" / "sub" / "t.py").write_text(PROTECTED)
    # the child and the grandchild route to no skill: only the grandparent protects
    script = [delegate_step("tests", task_text="paint a fresco", task_type="art"),
              delegate_step("sub", task_text="paint a fresco", task_type="art",
                            session="s0002"),
              write_step("s0003")]
    runtime = run_repair_parent(registry, repair_workspace, tmp_path / "store", script)
    grandchild = runtime.store.session("s0003")
    assert (grandchild.parent_id, grandchild.routed_skills) == ("s0002", [])
    assert runtime.store.session("s0002").routed_skills == []
    result = result_of(runtime, "s0003", "fs_write")
    assert result["ok"] is False
    assert "protected path" in result["output"]["message"]
    assert (repair_workspace / "tests" / "sub" / "t.py").read_text() == PROTECTED


def test_delegation_makes_no_directory_on_a_protected_path(registry, repair_workspace,
                                                           protected_tree, tmp_path):
    runtime = run_repair_parent(registry, repair_workspace, tmp_path / "store",
                                [delegate_step("tests/newdir")])
    result = result_of(runtime, "s0001", "delegate_subtask")
    assert result["ok"] is False
    assert "protected path" in result["output"]["message"]
    assert not (repair_workspace / "tests" / "newdir").exists()
    assert [s.session_id for s in runtime.store.sessions()] == ["s0001"]


def test_matching_anchored_globs_keeps_nothing_per_root():
    # every session's globs are anchored at a root of its own; compiling and
    # caching each one, as fnmatch does, kept about 2 KB per session
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        for i in range(1000):
            root = Path(f"/stores/s{i:04d}/ws")
            globs = anchor_globs(root, ["tests/**", "*.lock"])
            assert glob_match(f"{root}/tests/t.py", globs)
            assert not glob_match(f"{root}/in/calc.py", globs)
        kept = tracemalloc.get_traced_memory()[0] - before
    finally:
        tracemalloc.stop()
    assert kept < 200_000
