"""Workspace scoping, the one workspace writer and reader, and the
always-available orchestration tool set.

Every path the model supplies goes through `resolve`, which proves the
target lies inside the session's workspace root. The proof is lexical
(traversal and absolute escapes are rejected without touching the file
system) plus a walk below the root through directory descriptors: the root
is opened with `O_NOFOLLOW`, and each directory under it is opened relative
to the one before, never following a symlink. A symlink anywhere below the
root is refused with `PathEscape`, also one that stays inside the root; no
test or repair workspace relies on one. Nothing above the root is looked at,
and no descriptor is held between calls: each call opens the root again.
Writes and reads walk the same way at the moment they act, so a directory
swapped for a symlink after the check is refused, not followed.

A protected path glob is anchored at the root of the session whose skill
declares it (`anchor_globs`), and `glob_match` tests it against the scoped
path, so a delegated child is bound by its ancestors' globs too. Every
workspace write goes through `write_file`, which enforces the session's
protected paths whether or not the calling tool was visible. A write
replaces the file with a renamed temp file, so a hard link at the target is
broken rather than written through. Every file read goes through
`open_file`; `read_head` reads no more than the output cap plus 4 bytes. A
read may follow a hard link, so it can show a file that is also linked from
outside the root. Commands run with cwd at the root, an executable allowlist,
a wall-clock bound, and captured, size-capped output, each in a process group
of its own that is killed when the command returns.
"""

from __future__ import annotations

import contextlib
import errno
import fnmatch
import glob
import os
import re
import selectors
import signal
import stat
import subprocess
import time
from collections.abc import Iterable
from dataclasses import dataclass
from pathlib import Path
from typing import IO

from .bindings import executor
from .errors import CommandNotAllowed, CommandTimeout, PathEscape, ToolError
from .execution import ExecutionContext
from .schema import ActionSchema, ParamSpec, object_spec


@dataclass(frozen=True)
class ScopedPath:
    root: str      # the workspace root the path was proven against
    path: str      # the absolute path, normalized by its text alone
    relative: str  # the path below the root; "." for the root itself
    mode: int      # st_mode of what `resolve` found there (never a symlink); 0 for nothing

    @property
    def resolved(self) -> Path:
        return Path(self.path)

    @property
    def is_file(self) -> bool:
        return stat.S_ISREG(self.mode)

    @property
    def is_dir(self) -> bool:
        return stat.S_ISDIR(self.mode)


def resolve(workspace_root: str | Path, raw: str) -> ScopedPath:
    """Prove `raw` stays inside workspace_root, and see what is there.

    The proof is lexical, then a walk below the root (`_walk`) that refuses
    a symlink anywhere on the path, the last component included, with
    PathEscape: stricter than following one that stays inside the root,
    which no test or repair workspace relies on. A path that holds a NUL
    byte raises PathEscape too. Where a directory on the path is missing,
    the lexical proof stands alone: there is nothing there to follow. The
    root must already be resolved, as every `Session.workspace_root` is
    (`create_session` resolves it). Nothing above it is looked at, and it
    is opened with `O_NOFOLLOW` on every call, no descriptor being held
    between calls; that fails closed: if the root is later swapped for a
    symlink, every path raises PathEscape.
    """
    root, path, relative = _scope(workspace_root, raw)
    *dirs, name = relative.split("/")
    try:
        dir_fd = _walk(root, relative, dirs)
        try:
            mode = _mode(dir_fd, name, relative)
        finally:
            os.close(dir_fd)
    except OSError:  # a directory on the path is missing or cannot be searched
        mode = 0
    return ScopedPath(root, path, relative, mode)


def _scope(workspace_root: str | Path, raw: str) -> tuple[str, str, str]:
    """`(root, path, relative)` of `raw`, normalized by its text alone;
    PathEscape if it leaves the root or holds a NUL byte."""
    root = os.fspath(workspace_root)
    if "\0" in raw:
        raise PathEscape(f"path {raw!r} holds a NUL byte")
    path = os.path.normpath(os.path.join(root, raw))
    inside = os.path.join(root, "")  # the root and one separator
    if path != root and not path.startswith(inside):
        raise PathEscape(f"path {raw!r} resolves outside the workspace")
    return root, path, path[len(inside):] or "."


# a directory is opened for its descriptor alone (O_PATH), never through a symlink
_DIR_FLAGS = getattr(os, "O_PATH", os.O_RDONLY) | os.O_DIRECTORY | os.O_NOFOLLOW


def _walk(root: str, relative: str, dirs: list[str], make: bool = False) -> int:
    """A descriptor of the directory that `dirs` names below `root`, which
    the caller closes. The root is opened by its path and each directory
    below it relative to the one before, none through a symlink (PathEscape
    naming `relative`); at most two descriptors are open at once. With
    `make`, a missing directory is made, under the umask."""
    fd = _open_dir(root, None, relative)
    try:
        for name in dirs:
            try:
                sub = _open_dir(name, fd, relative)
            except FileNotFoundError:
                if not make:
                    raise
                with contextlib.suppress(FileExistsError):  # made meanwhile
                    os.mkdir(name, dir_fd=fd)
                sub = _open_dir(name, fd, relative)
            os.close(fd)
            fd = sub
    except BaseException:
        os.close(fd)
        raise
    return fd


def _open_dir(name: str, dir_fd: int | None, relative: str) -> int:
    try:
        return os.open(name, _DIR_FLAGS, dir_fd=dir_fd)
    except NotADirectoryError:
        # O_DIRECTORY | O_NOFOLLOW reports a symlink as it reports a file
        if stat.S_ISLNK(os.stat(name, dir_fd=dir_fd, follow_symlinks=False).st_mode):
            raise _symlink_on(relative) from None
        raise


def _mode(dir_fd: int, name: str, relative: str) -> int:
    """st_mode of `name` in the directory `dir_fd`, or 0 where there is
    nothing; PathEscape for a symlink."""
    try:
        mode = os.stat(name, dir_fd=dir_fd, follow_symlinks=False).st_mode
    except FileNotFoundError:
        return 0
    if stat.S_ISLNK(mode):
        raise _symlink_on(relative)
    return mode


def _symlink_on(relative: str) -> PathEscape:
    return PathEscape(f"path {relative!r} leads through a symlink")


ARTIFACT_EXTENSIONS = (".md", ".txt", ".json", ".patch")
_TRIM_CHARS = "`\"'(),.;:!?"


def infer_required_artifacts(done_when: str, workspace_root: Path) -> list[str]:
    """Extract the artifact paths a done_when contract demands.

    Rule: every backtick-quoted or whitespace-delimited token that contains a
    '/' or ends in a known artifact extension and, by its text, lies inside
    the resolved workspace root; order of appearance, deduplicated. No file
    is looked at: a symlink that leads a path out of the root is caught by
    the completion gate's `resolve`, which then reports the artifact missing.
    """
    candidates: list[str] = list(re.findall(r"`([^`]+)`", done_when))
    candidates += [tok.strip(_TRIM_CHARS) for tok in re.sub(r"`[^`]*`", " ", done_when).split()]
    root = os.path.join(workspace_root, "")  # ends in one separator
    out: list[str] = []
    for cand in candidates:
        if "/" not in cand and not cand.lower().endswith(ARTIFACT_EXTENSIONS):
            continue
        if f"{os.path.normpath(os.path.join(root, cand))}/".startswith(root) and cand not in out:
            out.append(cand)
    return out


_LITERAL_HEAD = re.compile(r"[^*?[]*")


def anchor_globs(root: Path, globs: Iterable[str]) -> list[str]:
    """`globs`, relative to the resolved `root`, as globs over scoped paths
    (`ScopedPath.path`): the root is escaped, so a `[`, `*` or `?` in it
    matches itself."""
    prefix = glob.escape(str(root)) + "/"
    return [prefix + g for g in globs]


def glob_match(path: str, globs: list[str]) -> bool:
    # fnmatch semantics: '*' crosses path separators, which errs broad for a
    # deny-list ("tests/**" also covers nested files). A glob's literal head,
    # such as the root an anchored glob starts with, is compared as a string:
    # fnmatch compiles and keeps every pattern it is given, and a root's would
    # be kept for the life of the process, one per session
    for g in globs:
        head = _LITERAL_HEAD.match(g).end()
        if path.startswith(g[:head]) and fnmatch.fnmatch(path[head:], g[head:]):
            return True
    return False


def write_file(ctx: ExecutionContext, raw: str, text: str,
               artifact_dir: str | None = None) -> dict:
    """Write `text` to `raw` inside the workspace, creating parent directories.

    Before any file is made, refuses the root itself, a path that
    `ctx.protected_globs` matches and, for an artifact write (`artifact_dir`
    given), a path outside that directory of the workspace; all three are
    checked on the path's text. The write then walks to the target's
    directory as `resolve` does, making what is missing, so a symlink on the
    path raises PathEscape, also one swapped in after the checks. The new
    bytes replace the target atomically: a failed write leaves the old file
    as it was.
    """
    root, path, relative = _scope(ctx.workspace_root, raw)
    what = "path" if artifact_dir is None else "artifact path"
    if relative == ".":
        raise ToolError(f"{what} {raw!r} is the workspace root, not a file")
    if glob_match(path, ctx.protected_globs):
        raise ToolError(f"{what} {relative!r} matches a protected path")
    if artifact_dir is not None and not path.startswith(
            os.path.join(os.path.normpath(os.path.join(root, artifact_dir)), "")):
        raise ToolError(f"artifact path {relative!r} is outside the artifact "
                        f"directory {artifact_dir!r}")
    data = text.encode("utf-8")
    *dirs, name = relative.split("/")
    try:
        dir_fd = _walk(root, relative, dirs, make=True)
        try:
            _replace(dir_fd, name, data, relative)
        finally:
            os.close(dir_fd)
    except OSError as exc:
        raise ToolError(f"cannot write {relative}: {exc}") from exc
    return {"path": relative, "bytes_written": len(data)}


def _replace(dir_fd: int, name: str, data: bytes, relative: str) -> None:
    """Write `data` to a temp file in the directory `dir_fd` and rename it
    over `name` there, keeping the target's mode bits; the temp file is
    removed on any failure. The file is not fsynced: on ext4 that is one
    more journal commit in the wakeup, after the session log's, for each
    patch and artifact."""
    mode = _mode(dir_fd, name, relative)  # 0 for a new file, created under the umask
    tmp = f".{name}.{os.urandom(4).hex()}.tmp"
    fd = os.open(tmp, os.O_WRONLY | os.O_CREAT | os.O_EXCL, 0o666, dir_fd=dir_fd)
    try:
        try:
            if mode:
                os.fchmod(fd, stat.S_IMODE(mode))
            while data:
                data = data[os.write(fd, data):]
        finally:
            os.close(fd)
        os.replace(tmp, name, src_dir_fd=dir_fd, dst_dir_fd=dir_fd)
    except BaseException:
        with contextlib.suppress(FileNotFoundError):
            os.unlink(tmp, dir_fd=dir_fd)
        raise


def make_dirs(scoped: ScopedPath) -> None:
    """Make the directory `scoped` names and its missing parents, walking as
    `write_file` does: a symlink on the path raises PathEscape."""
    os.close(_walk(scoped.root, scoped.relative, scoped.relative.split("/"), make=True))


def open_file(scoped: ScopedPath, *args, **kwargs) -> IO | None:
    """`scoped`'s file, opened by the builtin `open(name, *args, **kwargs)`
    at the end of a walk as `resolve`'s: a symlink on the path or at the
    file raises PathEscape, also one swapped in since `resolve`. None when
    `resolve` found no regular file there, or the file is gone or is no
    longer one: a FIFO is opened only if swapped in since, and then without
    blocking."""
    if not scoped.is_file:
        return None
    *dirs, name = scoped.relative.split("/")

    def opener(path: str, flags: int) -> int:
        return os.open(path, flags | os.O_NOFOLLOW | os.O_NONBLOCK, dir_fd=dir_fd)

    try:
        dir_fd = _walk(scoped.root, scoped.relative, dirs)
        try:
            fh = open(name, *args, opener=opener, **kwargs)
        finally:
            os.close(dir_fd)
    except (FileNotFoundError, NotADirectoryError):
        return None
    except OSError as exc:
        if exc.errno == errno.ELOOP:  # O_NOFOLLOW met a symlink at the file
            raise _symlink_on(scoped.relative) from None
        raise
    if not stat.S_ISREG(os.fstat(fh.fileno()).st_mode):
        fh.close()
        return None
    return fh


def read_head(ctx: ExecutionContext, scoped: ScopedPath) -> str | None:
    """The first `ctx.output_truncate_bytes + 4` bytes of a workspace file,
    decoded as UTF-8 with replacement; the 4 spare bytes keep whole a
    character that the cap splits, so cutting the result to the cap gives
    what cutting the whole file would. None when the path is not a regular
    file (`open_file`), so a read never blocks on a FIFO.
    """
    try:
        fh = open_file(scoped, "rb")
        if fh is None:
            return None
        with fh:
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
