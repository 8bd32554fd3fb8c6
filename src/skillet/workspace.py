"""Workspace scoping, the one workspace writer and reader, and the
always-available orchestration tool set.

Every path the model supplies goes through `resolve`, which proves the
target lies inside the session's workspace root (traversal, absolute
escapes, and symlinks pointing out of the root are all rejected). Every
workspace write goes through `write_file`, which also enforces the routed
skills' protected paths whether or not the calling tool was visible. A write
replaces the file with a renamed temp file, so a hard link at the target is
broken rather than written through. Every file read goes through
`read_head`, which reads no more than the output cap plus 4 bytes; a read
may follow a hard link, so it can show a file that is also linked from
outside the root. Commands run with cwd at the root, an executable allowlist,
a wall-clock bound, and captured, size-capped output, each in a process group
of its own that is killed when the command returns.
"""

from __future__ import annotations

import fnmatch
import os
import selectors
import signal
import stat
import subprocess
import time
from dataclasses import dataclass
from pathlib import Path

from .bindings import executor
from .errors import CommandNotAllowed, CommandTimeout, PathEscape, ToolError
from .execution import ExecutionContext
from .schema import ActionSchema, ParamSpec, object_spec


@dataclass(frozen=True)
class ScopedPath:
    resolved: Path
    relative: str


def resolve(workspace_root: str | Path, raw: str) -> ScopedPath:
    """Prove `raw` stays inside workspace_root, following symlinks.

    The root must already be resolved, as every `Session.workspace_root` is
    (`create_session` resolves it). It is not resolved again, which fails
    closed: if the root is later swapped for a symlink, every path through
    it resolves elsewhere and raises PathEscape.
    """
    root = Path(workspace_root)
    candidate = Path(raw) if Path(raw).is_absolute() else root / raw
    resolved = candidate.resolve()
    try:
        relative = resolved.relative_to(root)
    except ValueError:
        raise PathEscape(f"path {raw!r} resolves outside the workspace") from None
    return ScopedPath(resolved=resolved, relative=relative.as_posix())


def glob_match(relative: str, globs: list[str]) -> bool:
    # fnmatch semantics: '*' crosses path separators, which errs broad for a
    # deny-list ("tests/**" also covers nested files)
    return any(fnmatch.fnmatch(relative, g) for g in globs)


def write_file(ctx: ExecutionContext, raw: str, text: str,
               artifact_dir: str | None = None) -> dict:
    """Write `text` to `raw` inside the workspace, creating parent directories.

    Before any byte is written, refuses a path matching `ctx.protected_globs`
    and, for an artifact write (`artifact_dir` given), a path outside that
    directory of the workspace. The new bytes replace the target atomically:
    a failed write leaves the old file as it was.
    """
    scoped = resolve(ctx.workspace_root, raw)
    what = "path" if artifact_dir is None else "artifact path"
    if glob_match(scoped.relative, ctx.protected_globs):
        raise ToolError(f"{what} {scoped.relative!r} matches a protected path")
    if artifact_dir is not None:
        artifact_root = (Path(ctx.workspace_root) / artifact_dir).resolve()
        if artifact_root not in scoped.resolved.parents:
            raise ToolError(f"artifact path {scoped.relative!r} is outside the artifact "
                            f"directory {artifact_dir!r}")
    data = text.encode("utf-8")
    try:
        scoped.resolved.parent.mkdir(parents=True, exist_ok=True)
        _replace(scoped.resolved, data)
    except OSError as exc:
        raise ToolError(f"cannot write {scoped.relative}: {exc}") from exc
    return {"path": scoped.relative, "bytes_written": len(data)}


def _replace(target: Path, data: bytes) -> None:
    """Write `data` to a temp file beside `target` and rename it over `target`,
    keeping the target's mode bits; the temp file is removed on any failure.
    The file is not fsynced: on ext4 that is one more journal commit in the
    wakeup, after the session log's, for each patch and artifact."""
    try:
        mode = stat.S_IMODE(target.stat().st_mode)
    except FileNotFoundError:
        mode = None  # a new file: created like any other, under the umask
    tmp = target.with_name(f".{target.name}.{os.urandom(4).hex()}.tmp")
    fd = os.open(tmp, os.O_WRONLY | os.O_CREAT | os.O_EXCL, 0o666)
    try:
        with os.fdopen(fd, "wb") as fh:
            if mode is not None:
                os.fchmod(fh.fileno(), mode)
            fh.write(data)
        os.replace(tmp, target)
    except BaseException:
        tmp.unlink(missing_ok=True)
        raise


def read_head(ctx: ExecutionContext, scoped: ScopedPath) -> str | None:
    """The first `ctx.output_truncate_bytes + 4` bytes of a workspace file,
    decoded as UTF-8 with replacement; the 4 spare bytes keep whole a
    character that the cap splits, so cutting the result to the cap gives
    what cutting the whole file would. None when the path is not a regular
    file: a FIFO is never opened, so a read never blocks on one.
    """
    if not scoped.resolved.is_file():
        return None
    try:
        with open(scoped.resolved, "rb") as fh:
            data = fh.read(ctx.output_truncate_bytes + 4)
    except OSError as exc:
        raise ToolError(f"cannot read {scoped.relative}: {exc}") from exc
    return data.decode("utf-8", errors="replace")


def run_allowlisted(argv: list[str], ctx: ExecutionContext) -> dict:
    """Run `argv` under the context's command policy: cwd at the workspace
    root, the executable allowlist, the wall-clock bound and the output cap.

    The command runs in a process group of its own, and the whole group is
    killed once the direct child has exited or the time is up. So a
    grandchild that holds the output pipe neither holds the call until its
    timeout nor outlives it. Output past the cap is read and dropped, so a
    command that prints more than the cap still runs to its own exit code.
    Output is decoded as UTF-8 with replacement, with universal newlines.
    """
    if not argv:
        raise CommandNotAllowed("empty argv")
    if argv[0] not in ctx.command_allowlist:
        raise CommandNotAllowed(f"command {argv[0]!r} is not in the allowlist")
    try:
        proc = subprocess.Popen(argv, cwd=str(ctx.workspace_root), stdout=subprocess.PIPE,
                                stderr=subprocess.PIPE, start_new_session=True)
    except OSError as exc:
        raise ToolError(f"command failed to start: {exc}") from exc
    try:
        # the 4 spare bytes keep whole a character that the cap splits
        output = _read_capped(proc, ctx.output_truncate_bytes + 4, ctx.command_timeout_s)
    finally:
        try:
            os.killpg(proc.pid, signal.SIGKILL)  # the command and all it left running
        except ProcessLookupError:
            pass
        proc.stdout.close()
        proc.stderr.close()
        proc.wait()
    if output is None:
        raise CommandTimeout(
            f"command {argv[0]!r} exceeded {ctx.command_timeout_s}s")
    (stdout, out_cut), (stderr, err_cut) = (
        _decode(raw, ctx.output_truncate_bytes) for raw in output)
    return {
        "exit_code": proc.returncode,
        "stdout": stdout,
        "stderr": stderr,
        "truncated": out_cut or err_cut,
    }


def _decode(raw: bytes, limit: int) -> tuple[str, bool]:
    """The text of a captured stream, cut to `limit` bytes; cut when the
    stream carried more than `limit` bytes."""
    text = raw.decode("utf-8", errors="replace").replace("\r\n", "\n").replace("\r", "\n")
    text, cut = _truncate(text, limit)
    return text, cut or len(raw) > limit


def _read_capped(proc: subprocess.Popen, cap: int,
                 timeout_s: float) -> tuple[bytes, bytes] | None:
    """The first `cap` bytes of each of the child's stdout and stderr, read
    until the child has exited, and then what the pipes already hold until
    each is empty or full; None if `timeout_s` runs out first. Bytes past
    the cap are read and dropped, so the child never blocks on a full pipe.
    The child is not reaped here."""
    out = {proc.stdout.fileno(): bytearray(), proc.stderr.fileno(): bytearray()}
    deadline = time.monotonic() + timeout_s
    try:  # readable once the child exits; without pidfds, poll every 50 ms instead
        exit_fd = os.pidfd_open(proc.pid)
    except (AttributeError, OSError):
        exit_fd = None
    with selectors.DefaultSelector() as sel:
        for fd in out:
            sel.register(fd, selectors.EVENT_READ)
        if exit_fd is not None:
            sel.register(exit_fd, selectors.EVENT_READ)
        try:
            exited = False
            while not exited:
                timeout = deadline - time.monotonic()
                if timeout <= 0:
                    return None
                for key, _ in sel.select(timeout if exit_fd is not None else min(timeout, 0.05)):
                    if key.fd == exit_fd:
                        exited = True
                    else:
                        _read_into(sel, key.fd, out[key.fd], cap)
                if exit_fd is None:
                    exited = proc.poll() is not None
            # a grandchild may still be writing: stop at a full buffer, not at the end
            while ready := [key.fd for key, _ in sel.select(0)
                            if key.fd in out and len(out[key.fd]) < cap]:
                for fd in ready:
                    _read_into(sel, fd, out[fd], cap)
        finally:
            if exit_fd is not None:
                os.close(exit_fd)
    return bytes(out[proc.stdout.fileno()]), bytes(out[proc.stderr.fileno()])


def _read_into(sel: selectors.BaseSelector, fd: int, buf: bytearray, cap: int) -> None:
    """Append what `fd` holds to `buf`, keeping it to `cap` bytes and dropping
    the rest; a stream that ended is unregistered."""
    chunk = os.read(fd, 65536)
    if not chunk:
        sel.unregister(fd)
    buf += chunk[:cap - len(buf)]


def _truncate(text: str, limit: int) -> tuple[str, bool]:
    """Cut `text` to at most `limit` UTF-8 bytes; a character the cut splits
    is dropped whole."""
    data = text.encode("utf-8", errors="replace")
    if len(data) <= limit:
        return text, False
    return data[:limit].decode("utf-8", errors="ignore"), True


# -- orchestration tool surface ------------------------------------------------

def orchestration_schemas() -> list[ActionSchema]:
    s = ParamSpec
    return [
        ActionSchema(
            name="fs_read",
            description="Read a file inside the workspace.",
            params=object_spec({"path": s("string")}, ["path"]),
            executor_id="core.fs_read",
        ),
        ActionSchema(
            name="fs_write",
            description="Write a file inside the workspace, creating parent directories.",
            params=object_spec({"path": s("string"), "content": s("string")}, ["path", "content"]),
            executor_id="core.fs_write",
        ),
        ActionSchema(
            name="run_command",
            description="Run an allowlisted command with cwd at the workspace root.",
            params=object_spec({"argv": s("array", items=s("string"))}, ["argv"]),
            executor_id="core.run_command",
        ),
        ActionSchema(
            name="delegate_subtask",
            description="Delegate a narrower task to a sub-session with its own workspace subdirectory.",
            params=object_spec(
                {
                    "task_text": s("string"),
                    "task_type": s("string"),
                    "subdir": s("string"),
                    "done_when": s("string"),
                },
                ["task_text", "task_type", "subdir", "done_when"],
            ),
            executor_id="core.delegate_subtask",
        ),
        ActionSchema(
            name="finish",
            description="Declare the task done with a final report. Refused while completion gates are open.",
            params=object_spec({"report_text": s("string")}, ["report_text"]),
            executor_id="core.finish",
        ),
    ]


@executor("core.fs_read")
def fs_read(args: dict, ctx: ExecutionContext) -> dict:
    scoped = resolve(ctx.workspace_root, args["path"])
    text = read_head(ctx, scoped)
    if text is None:
        raise ToolError(f"no such file: {scoped.relative}")
    content, truncated = _truncate(text, ctx.output_truncate_bytes)
    return {"path": scoped.relative, "content": content, "truncated": truncated}


@executor("core.fs_write")
def fs_write(args: dict, ctx: ExecutionContext) -> dict:
    return write_file(ctx, args["path"], args["content"])


@executor("core.run_command")
def run_command(args: dict, ctx: ExecutionContext) -> dict:
    return run_allowlisted(args["argv"], ctx)


@executor("core.delegate_subtask")
def delegate_subtask(args: dict, ctx: ExecutionContext) -> dict:
    return ctx.delegate(args["task_text"], args["task_type"], args["subdir"], args["done_when"])


@executor("core.finish")
def finish(args: dict, ctx: ExecutionContext) -> dict:
    return ctx.finish(args["report_text"])
