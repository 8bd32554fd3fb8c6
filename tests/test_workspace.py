"""Path scoping, sandboxed command execution, and the orchestration executors."""

import os

import pytest

from skillet.errors import CommandNotAllowed, CommandTimeout, PathEscape, ToolError
from skillet.execution import ExecutionContext, RuntimeServices
from skillet.workspace import (
    _truncate,
    fs_read,
    fs_write,
    glob_match,
    orchestration_schemas,
    resolve,
    run_allowlisted,
    run_command,
)


def test_root_swapped_for_a_symlink_makes_every_path_escape(tmp_path):
    root = tmp_path / "root"
    root.mkdir()
    (root / "a.txt").write_text("mine\n")
    assert resolve(root, "a.txt").relative == "a.txt"
    elsewhere = tmp_path / "elsewhere"
    elsewhere.mkdir()
    (elsewhere / "a.txt").write_text("not mine\n")
    # the root was resolved once, when its session was created; swapping it
    # for a symlink afterwards must not move the workspace
    root.rename(tmp_path / "moved")
    root.symlink_to(elsewhere)
    for raw in ("a.txt", ".", str(root / "a.txt")):
        with pytest.raises(PathEscape):
            resolve(root, raw)


def make_ctx(ws, allowlist=("echo",), timeout=5.0, truncate=32768):
    return ExecutionContext(
        workspace_root=ws,
        command_allowlist=list(allowlist),
        command_timeout_s=timeout,
        output_truncate_bytes=truncate,
        protected_globs=[],
        services=RuntimeServices(delegate=lambda *a: {}, finish=lambda *a: {}),
    )


class TestResolve:
    def test_relative_inside_root(self, guarded_workspace):
        (guarded_workspace / "in").mkdir()
        (guarded_workspace / "in" / "fixture.txt").write_text("x")
        scoped = resolve(guarded_workspace, "in/fixture.txt")
        assert scoped.relative == "in/fixture.txt"
        assert scoped.resolved.read_text() == "x"

    def test_traversal_rejected(self, guarded_workspace):
        with pytest.raises(PathEscape):
            resolve(guarded_workspace, "../../etc/passwd")

    def test_absolute_escape_rejected(self, guarded_workspace):
        with pytest.raises(PathEscape):
            resolve(guarded_workspace, "/etc/passwd")

    def test_absolute_inside_root_accepted(self, guarded_workspace):
        (guarded_workspace / "a.txt").write_text("x")
        scoped = resolve(guarded_workspace, str(guarded_workspace / "a.txt"))
        assert scoped.relative == "a.txt"

    def test_symlink_leaving_root_rejected(self, guarded_workspace, tmp_path):
        outside = tmp_path / "decoy" / "keep.txt"
        link = guarded_workspace / "sneaky"
        link.symlink_to(outside)
        with pytest.raises(PathEscape):
            resolve(guarded_workspace, "sneaky")

    def test_symlinked_dir_leaving_root_rejected(self, guarded_workspace, tmp_path):
        link = guarded_workspace / "outdir"
        link.symlink_to(tmp_path / "decoy")
        with pytest.raises(PathEscape):
            resolve(guarded_workspace, "outdir/keep.txt")


class TestGlobMatch:
    def test_protected_tree(self):
        assert glob_match("tests/test_x.py", ["tests/**"])
        assert glob_match("tests/a/b.py", ["tests/**"])
        assert not glob_match("src/tests.py", ["tests/**"])

    def test_multiple_globs(self):
        assert glob_match("config.lock", ["tests/**", "*.lock"])


class TestRunAllowlisted:
    def test_allowed_command_captures_output(self, guarded_workspace):
        result = run_allowlisted(["echo", "hi"], guarded_workspace, ["echo"], 5.0, 1024)
        assert result == {"exit_code": 0, "stdout": "hi\n", "stderr": "", "truncated": False}

    def test_disallowed_command(self, guarded_workspace):
        with pytest.raises(CommandNotAllowed, match="curl"):
            run_allowlisted(["curl", "http://x"], guarded_workspace, ["echo"], 5.0, 1024)

    def test_empty_allowlist_blocks_everything(self, guarded_workspace):
        with pytest.raises(CommandNotAllowed):
            run_allowlisted(["echo", "hi"], guarded_workspace, [], 5.0, 1024)

    def test_timeout(self, guarded_workspace):
        with pytest.raises(CommandTimeout):
            run_allowlisted(["sleep", "5"], guarded_workspace, ["sleep"], 0.2, 1024)

    def test_output_truncation_recorded(self, guarded_workspace):
        result = run_allowlisted(
            ["python3", "-c", "print('x' * 10000)"],
            guarded_workspace, ["python3"], 10.0, 100,
        )
        assert result["truncated"] is True
        assert len(result["stdout"].encode()) <= 100

    def test_cut_counts_bytes_and_drops_a_split_character(self):
        assert _truncate("éé", 3) == ("é", True)
        assert _truncate("éé", 4) == ("éé", False)
        text, cut = _truncate("aé" * 50, 50)
        assert cut and text == "aé" * 16 + "a"
        assert len(text.encode()) <= 50

    def test_cwd_is_workspace_root(self, guarded_workspace):
        result = run_allowlisted(["pwd"], guarded_workspace, ["pwd"], 5.0, 1024)
        assert result["stdout"].strip() == str(guarded_workspace.resolve())


class TestOrchestrationExecutors:
    def test_fs_write_creates_parents_then_read(self, guarded_workspace):
        ctx = make_ctx(guarded_workspace)
        out = fs_write({"path": "out/deep/report.md", "content": "hello"}, ctx)
        assert out["bytes_written"] == 5
        back = fs_read({"path": "out/deep/report.md"}, ctx)
        assert back["content"] == "hello"

    def test_fs_read_missing(self, guarded_workspace):
        with pytest.raises(ToolError, match="no such file"):
            fs_read({"path": "ghost.txt"}, make_ctx(guarded_workspace))

    def test_fs_write_escape_rejected(self, guarded_workspace):
        with pytest.raises(PathEscape):
            fs_write({"path": "../decoy/keep.txt", "content": "evil"},
                     make_ctx(guarded_workspace))

    def test_run_command_uses_context_policy(self, guarded_workspace):
        out = run_command({"argv": ["echo", "hi"]}, make_ctx(guarded_workspace))
        assert out["exit_code"] == 0

    def test_schema_names_are_the_contract(self):
        names = [s.name for s in orchestration_schemas()]
        assert names == ["fs_read", "fs_write", "run_command", "delegate_subtask", "finish"]

    def test_schemas_validate_via_registry_machinery(self):
        from skillet.schema import validate_action_args
        schema = next(s for s in orchestration_schemas() if s.name == "run_command")
        assert validate_action_args(schema, {"argv": ["echo", "x"]}).ok
        assert not validate_action_args(schema, {"argv": "echo x"}).ok
        assert not validate_action_args(schema, {"argv": ["echo"], "shell": True}).ok


@pytest.mark.skipif(os.geteuid() == 0, reason="permission checks are a no-op as root")
def test_unreadable_path(guarded_workspace):
    secret = guarded_workspace / "secret.txt"
    secret.write_text("x")
    secret.chmod(0)
    with pytest.raises(ToolError):
        fs_read({"path": "secret.txt"}, make_ctx(guarded_workspace))
