"""Path scoping, sandboxed command execution, and the orchestration executors."""

import os
import stat
import time
import tracemalloc
from pathlib import Path

import pytest

from skillet import DelegatedTask, EventKind, RoutedSkillSet, repair, workspace
from skillet.errors import CommandNotAllowed, CommandTimeout, PathEscape, ToolError
from skillet.execution import ExecutionContext
from skillet.repair import collect_evidence, run_verification
from skillet.workspace import (
    _truncate,
    anchor_globs,
    fs_read,
    fs_write,
    glob_match,
    orchestration_schemas,
    resolve,
    run_allowlisted,
    run_command,
)

from conftest import BUGGY_CALC, evidence_step, make_runtime, patch_step


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


def make_ctx(ws, allowlist=("echo",), timeout=5.0, truncate=32768, protected=()):
    return ExecutionContext(
        workspace_root=ws,
        command_allowlist=list(allowlist),
        command_timeout_s=timeout,
        output_truncate_bytes=truncate,
        protected_globs=anchor_globs(ws, protected),
        artifact_dir="out",
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


def group_members(group: int) -> dict[int, str]:
    """pid -> state of every process whose process group is `group`."""
    members = {}
    for stat in Path("/proc").glob("[0-9]*/stat"):
        try:
            fields = stat.read_text().rsplit(")", 1)[1].split()
        except (OSError, IndexError):
            continue  # the process is gone
        if int(fields[2]) == group:
            members[int(stat.parent.name)] = fields[0]
    return members


def group_running(group: int, wait_s: float = 2.0) -> bool:
    """Whether a process of the group still runs after `wait_s`; a SIGKILL is
    delivered asynchronously, and a zombie runs nothing."""
    deadline = time.monotonic() + wait_s
    while any(state != "Z" for state in group_members(group).values()):
        if time.monotonic() > deadline:
            return True
        time.sleep(0.01)
    return False


@pytest.fixture(params=["pidfd", "polling"])
def exit_wait(request, monkeypatch):
    """Run a test once with the child's exit seen through a pidfd, and once
    through polling, the path of a platform without pidfds."""
    if request.param == "pidfd":
        if not hasattr(os, "pidfd_open"):
            pytest.skip("no pidfds on this platform")
    else:
        monkeypatch.delattr(os, "pidfd_open", raising=False)
    return request.param


def python_ctx(ws, timeout=5.0, truncate=32768):
    return make_ctx(ws, allowlist=("python3",), timeout=timeout, truncate=truncate)


class TestCommandCapture:
    def test_a_grandchild_holding_the_pipe_neither_holds_the_call_nor_outlives_it(
            self, guarded_workspace, exit_wait):
        code = ("import os, subprocess, sys\n"
                "child = subprocess.Popen(['sleep', '30'])\n"  # shares stdout and stderr
                "print('hi', flush=True)\n"
                "print(os.getpgid(0), file=sys.stderr)\n")
        start = time.monotonic()
        result = run_allowlisted(["python3", "-c", code], python_ctx(guarded_workspace))
        assert time.monotonic() - start < 5.0
        assert (result["exit_code"], result["stdout"]) == (0, "hi\n")
        if Path("/proc/self/stat").exists():
            assert not group_running(int(result["stderr"]))  # the sleep was in it

    def test_output_past_the_cap_keeps_the_exit_code(self, guarded_workspace, exit_wait):
        code = ("import sys\n"
                "sys.stdout.write('x' * 200000)\n"
                "sys.stderr.write('y' * 200000)\n"
                "sys.exit(3)\n")
        result = run_allowlisted(["python3", "-c", code],
                                 python_ctx(guarded_workspace, truncate=100))
        assert result == {"exit_code": 3, "stdout": "x" * 100, "stderr": "y" * 100,
                          "truncated": True}

    def test_a_verbose_passing_check_passes(self, guarded_workspace, exit_wait):
        check = {"name": "verbose", "type": "command_exit_zero",
                 "args": {"argv": ["python3", "-c", "print('ok ' * 50000)"]}}
        out = run_verification({"checks": [check]}, python_ctx(guarded_workspace, truncate=100))
        assert out["passed"] is True
        assert run_allowlisted(check["args"]["argv"],
                               python_ctx(guarded_workspace, truncate=100))["truncated"] is True

    def test_a_command_that_never_stops_writing_times_out(self, guarded_workspace, exit_wait):
        code = "import sys\nwhile True: sys.stdout.write('x' * 65536)\n"
        start = time.monotonic()
        with pytest.raises(CommandTimeout):
            run_allowlisted(["python3", "-c", code],
                            python_ctx(guarded_workspace, timeout=0.5, truncate=100))
        assert time.monotonic() - start < 5.0

    def test_newlines_are_universal(self, guarded_workspace, exit_wait):
        code = "import sys\nsys.stdout.write('a\\r\\nb\\rc\\n')\n"
        result = run_allowlisted(["python3", "-c", code], python_ctx(guarded_workspace))
        assert (result["stdout"], result["truncated"]) == ("a\nb\nc\n", False)


class TestRunAllowlisted:
    def test_allowed_command_captures_output(self, guarded_workspace):
        result = run_allowlisted(["echo", "hi"], make_ctx(guarded_workspace))
        assert result == {"exit_code": 0, "stdout": "hi\n", "stderr": "", "truncated": False}

    def test_disallowed_command(self, guarded_workspace):
        with pytest.raises(CommandNotAllowed, match="curl"):
            run_allowlisted(["curl", "http://x"], make_ctx(guarded_workspace))

    def test_empty_allowlist_blocks_everything(self, guarded_workspace):
        with pytest.raises(CommandNotAllowed):
            run_allowlisted(["echo", "hi"], make_ctx(guarded_workspace, allowlist=()))

    def test_timeout(self, guarded_workspace):
        with pytest.raises(CommandTimeout):
            run_allowlisted(["sleep", "5"],
                            make_ctx(guarded_workspace, allowlist=("sleep",), timeout=0.2))

    def test_output_truncation_recorded(self, guarded_workspace):
        result = run_allowlisted(
            ["python3", "-c", "print('x' * 10000)"],
            make_ctx(guarded_workspace, allowlist=("python3",), timeout=10.0, truncate=100),
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
        result = run_allowlisted(["pwd"], make_ctx(guarded_workspace, allowlist=("pwd",)))
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


def test_unreadable_path_without_root(guarded_workspace, monkeypatch):
    (guarded_workspace / "secret.txt").write_text("x")

    def denied(*args, **kwargs):
        raise PermissionError(13, "Permission denied")

    monkeypatch.setattr(workspace, "open", denied, raising=False)
    with pytest.raises(ToolError, match="cannot read secret.txt"):
        fs_read({"path": "secret.txt"}, make_ctx(guarded_workspace))


class TestAtomicWrite:
    def test_write_breaks_a_hard_link_to_outside_the_root(self, guarded_workspace, tmp_path):
        outside = tmp_path / "decoy" / "keep.txt"
        (guarded_workspace / "in").mkdir()
        os.link(outside, guarded_workspace / "in" / "calc.py")
        fs_write({"path": "in/calc.py", "content": "patched\n"}, make_ctx(guarded_workspace))
        assert outside.read_text() == "do not touch\n"
        assert (guarded_workspace / "in" / "calc.py").read_text() == "patched\n"

    def test_write_breaks_a_hard_link_to_a_protected_path(self, guarded_workspace):
        # the second root's glob characters must match only themselves
        for ws in (guarded_workspace, guarded_workspace / "r[o]o*t?"):
            ws.mkdir(exist_ok=True)
            protected = ws / "tests" / "t.py"
            protected.parent.mkdir()
            protected.write_text("assert True\n")
            os.link(protected, ws / "notes.txt")
            ctx = make_ctx(ws, protected=("tests/**",))
            with pytest.raises(ToolError, match="protected path"):
                fs_write({"path": "tests/t.py", "content": "x"}, ctx)
            fs_write({"path": "notes.txt", "content": "clobbered\n"}, ctx)
            assert protected.read_text() == "assert True\n"
            assert (ws / "notes.txt").read_text() == "clobbered\n"

    def test_write_keeps_the_mode_bits(self, guarded_workspace):
        script = guarded_workspace / "run.sh"
        script.write_text("echo old\n")
        script.chmod(0o751)
        fs_write({"path": "run.sh", "content": "echo new\n"}, make_ctx(guarded_workspace))
        assert stat.S_IMODE(script.stat().st_mode) == 0o751
        assert script.read_text() == "echo new\n"

    def test_failed_replace_leaves_the_old_bytes_and_no_temp_file(self, guarded_workspace,
                                                                   monkeypatch):
        target = guarded_workspace / "a.txt"
        target.write_bytes(b"old bytes\n")

        def failing_replace(src, dst, **dir_fds):
            raise OSError(28, "No space left on device")

        monkeypatch.setattr(workspace.os, "replace", failing_replace)
        with pytest.raises(ToolError, match="cannot write a.txt"):
            fs_write({"path": "a.txt", "content": "new"}, make_ctx(guarded_workspace))
        assert target.read_bytes() == b"old bytes\n"
        assert sorted(p.name for p in guarded_workspace.iterdir()) == ["a.txt"]


class TestBoundedRead:
    @pytest.mark.parametrize("read", [
        lambda ctx: fs_read({"path": "big.log"}, ctx)["content"],
        lambda ctx: collect_evidence({"log_path": "big.log"}, ctx)["output"],
    ], ids=["fs_read", "collect_evidence"])
    def test_read_of_a_file_far_above_the_cap_stays_small(self, guarded_workspace, read):
        cap = 2048
        (guarded_workspace / "big.log").write_bytes(b"error: x\n" * (cap * 1000 // 9 + 1))
        tracemalloc.start()
        try:
            text = read(make_ctx(guarded_workspace, truncate=cap))
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert len(text.encode()) <= cap
        assert text.startswith("error: x\n")
        assert peak < 64 * cap, peak

    def test_cut_matches_a_cut_of_the_whole_file(self, guarded_workspace):
        text = "ab" + "\U0001f600" * 10
        (guarded_workspace / "wide.txt").write_text(text, encoding="utf-8")
        for cap in range(len(text.encode())):
            out = fs_read({"path": "wide.txt"}, make_ctx(guarded_workspace, truncate=cap))
            assert (out["content"], out["truncated"]) == _truncate(text, cap)

    @pytest.mark.parametrize("swapped", [False, True], ids=["at_resolve", "after_resolve"])
    def test_fifo_reads_as_no_such_file(self, guarded_workspace, monkeypatch, swapped):
        pipe = guarded_workspace / "pipe"
        if swapped:  # resolve sees a regular file; the open meets a FIFO
            pipe.write_text("a file\n")
            real_resolve = workspace.resolve

            def resolve_then_swap(root, raw):
                scoped = real_resolve(root, raw)
                pipe.unlink()
                os.mkfifo(pipe)
                return scoped

            monkeypatch.setattr(workspace, "resolve", resolve_then_swap)
        else:
            os.mkfifo(pipe)
        with pytest.raises(ToolError, match="no such file"):
            fs_read({"path": "pipe"}, make_ctx(guarded_workspace))

    def test_read_may_follow_a_hard_link(self, guarded_workspace, tmp_path):
        # a hard link cannot be told from the file it links; reads are allowed
        os.link(tmp_path / "decoy" / "keep.txt", guarded_workspace / "linked.txt")
        assert (guarded_workspace / "linked.txt").stat().st_nlink == 2
        out = fs_read({"path": "linked.txt"}, make_ctx(guarded_workspace))
        assert out["content"] == "do not touch\n"


class TestDescriptorWalk:
    """Paths are walked below the root through directory descriptors, never
    through a symlink, at the moment each write or read acts."""

    # what is swapped for a symlink, and where below the decoy it leads
    SWAPS = pytest.mark.parametrize("swapped, target", [("in", "."), ("in/keep.txt", "keep.txt")],
                                    ids=["directory", "file"])

    @staticmethod
    def swap_for_a_symlink(path: Path, target: Path) -> None:
        path.rename(path.with_name(path.name + ".moved"))
        path.symlink_to(target)

    @SWAPS
    def test_a_path_swapped_after_the_check_stops_the_write(
            self, guarded_workspace, tmp_path, monkeypatch, swapped, target):
        (guarded_workspace / "in").mkdir()
        (guarded_workspace / "in" / "keep.txt").write_text("mine\n")
        real_glob_match = workspace.glob_match

        def swap_then_match(path, globs):  # runs between the checks and the write
            self.swap_for_a_symlink(guarded_workspace / swapped, tmp_path / "decoy" / target)
            return real_glob_match(path, globs)

        monkeypatch.setattr(workspace, "glob_match", swap_then_match)
        with pytest.raises(PathEscape):
            fs_write({"path": "in/keep.txt", "content": "escaped\n"},
                     make_ctx(guarded_workspace))
        # the guarded_workspace fixture checks that the decoy is unchanged

    @SWAPS
    @pytest.mark.parametrize("module, read", [
        (workspace, lambda ctx: fs_read({"path": "in/keep.txt"}, ctx)),
        (repair, lambda ctx: collect_evidence({"log_path": "in/keep.txt"}, ctx)),
    ], ids=["fs_read", "collect_evidence"])
    def test_a_path_swapped_after_the_check_stops_the_read(
            self, guarded_workspace, tmp_path, monkeypatch, module, read, swapped, target):
        (guarded_workspace / "in").mkdir()
        (guarded_workspace / "in" / "keep.txt").write_text("mine\n")
        real_resolve = module.resolve

        def resolve_then_swap(root, raw):
            scoped = real_resolve(root, raw)
            self.swap_for_a_symlink(guarded_workspace / swapped, tmp_path / "decoy" / target)
            return scoped

        monkeypatch.setattr(module, "resolve", resolve_then_swap)
        with pytest.raises(PathEscape):
            read(make_ctx(guarded_workspace))

    def test_resolve_looks_at_nothing_above_the_root(self, tmp_path, monkeypatch):
        root = tmp_path / "a" / "b" / "c" / "root"
        (root / "in").mkdir(parents=True)
        (root / "in" / "calc.py").write_text("x = 1\n")
        seen = []

        def spy(real):
            def call(path, *args, dir_fd=None, **kwargs):
                if dir_fd is None:
                    seen.append(os.fspath(path))
                return real(path, *args, dir_fd=dir_fd, **kwargs)
            return call

        for name in ("stat", "lstat", "open"):
            monkeypatch.setattr(os, name, spy(getattr(os, name)))
        for raw in ("in/calc.py", str(root / "in" / "calc.py"), "in/new.py", "."):
            resolve(root, raw)
        monkeypatch.undo()
        assert seen and set(seen) == {str(root)}

    def test_a_symlink_that_stays_inside_the_root_is_refused(self, guarded_workspace):
        (guarded_workspace / "in").mkdir()
        (guarded_workspace / "in" / "a.txt").write_text("x")
        (guarded_workspace / "alias").symlink_to(guarded_workspace / "in")
        (guarded_workspace / "link.txt").symlink_to(guarded_workspace / "in" / "a.txt")
        for raw in ("alias", "alias/a.txt", "link.txt"):
            with pytest.raises(PathEscape, match="symlink"):
                resolve(guarded_workspace, raw)
        with pytest.raises(PathEscape):
            fs_write({"path": "link.txt", "content": "y"}, make_ctx(guarded_workspace))
        assert (guarded_workspace / "in" / "a.txt").read_text() == "x"

    def test_a_missing_directory_is_proven_by_the_text_alone(self, guarded_workspace):
        scoped = resolve(guarded_workspace, "out/deep/report.md")
        assert (scoped.relative, scoped.mode) == ("out/deep/report.md", 0)
        assert scoped.path == str(guarded_workspace / "out" / "deep" / "report.md")

    @pytest.mark.parametrize("raw", ["", ".", "in/..", "ROOT"])
    def test_a_write_to_the_root_is_refused_before_any_file_is_made(
            self, guarded_workspace, monkeypatch, raw):
        (guarded_workspace / "in").mkdir()
        raw = str(guarded_workspace) if raw == "ROOT" else raw
        created = []
        real_open = os.open

        def spy(path, flags, *args, **kwargs):
            if flags & os.O_CREAT:
                created.append(path)
            return real_open(path, flags, *args, **kwargs)

        monkeypatch.setattr(os, "open", spy)
        with pytest.raises(ToolError, match="workspace root"):
            fs_write({"path": raw, "content": "x"}, make_ctx(guarded_workspace))
        assert created == []
        assert sorted(p.name for p in guarded_workspace.parent.iterdir()) == ["decoy", "ws"]

    def test_a_nul_byte_is_an_escape_not_a_fault(self, guarded_workspace):
        with pytest.raises(PathEscape, match="NUL"):
            resolve(guarded_workspace, "in/a\x00b")
        with pytest.raises(PathEscape):
            fs_read({"path": "a\x00b"}, make_ctx(guarded_workspace))
        with pytest.raises(PathEscape):
            fs_write({"path": "a\x00b", "content": "x"}, make_ctx(guarded_workspace))


def run_repair_session(registry, ws, store_dir, script):
    """Run one session routed to repair, with tool filters off, until it is
    quiescent; its history."""
    runtime = make_runtime(registry, ws, store_dir, script, apply_tool_filters=False)
    session = runtime.submit_task(DelegatedTask("fix it", "code_repair", ws, ""),
                                  routed=RoutedSkillSet(entries=[("repair", 1.0)]))
    runtime.run_until_quiescent(5)
    return runtime.store.session(session.session_id).history


def test_a_nul_byte_in_a_patch_target_is_refused_before_tool(registry, repair_workspace,
                                                             tmp_path):
    script = [evidence_step(log_path="in/fail.log"), patch_step(target="in/calc\x00.py")]
    history = run_repair_session(registry, repair_workspace, tmp_path / "store", script)
    call = next(e.payload for e in history if e.kind is EventKind.TOOL_CALL
                and e.payload["name"] == "repair_apply_unified_patch")
    assert call["accepted"] is False
    result = next(e.payload for e in history if e.kind is EventKind.TOOL_RESULT
                  and e.payload["name"] == "repair_apply_unified_patch")
    assert (result["output"]["error"], result["output"]["rejected_by"]) == ("rejected", "repair")
    assert "escapes the workspace" in result["output"]["reason"]
    assert not any(e.payload.get("note") == "hook_fault" for e in history)
    assert (repair_workspace / "in" / "calc.py").read_text() == BUGGY_CALC


@pytest.mark.parametrize("name, args, error", [
    ("fs_read", {"path": "in/calc\x00.py"}, "path_escape"),
    ("run_command", {"argv": []}, "command_not_allowed"),
], ids=["nul_byte_in_a_read", "empty_argv"])
def test_an_unrunnable_call_is_a_tool_error(registry, repair_workspace, tmp_path,
                                            name, args, error):
    script = [{"respond": {"tool_call": {"name": name, "args": args}}}]
    history = run_repair_session(registry, repair_workspace, tmp_path / "store", script)
    result = next(e.payload for e in history if e.kind is EventKind.TOOL_RESULT)
    assert result["ok"] is False
    assert result["output"]["error"] == error
