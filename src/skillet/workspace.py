"""Workspace scoping, the one workspace writer, and the always-available
orchestration tool set.

Every path the model supplies goes through `resolve`, which proves the
target lies inside the session's workspace root (traversal, absolute
escapes, and symlinks pointing out of the root are all rejected). Every
workspace write goes through `write_file`, which also enforces the routed
skills' protected paths whether or not the calling tool was visible.
Commands run with cwd at the root, an executable allowlist, a wall-clock
bound, and captured, size-capped output.
"""

from __future__ import annotations

import fnmatch
import subprocess
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
    directory of the workspace.
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
    scoped.resolved.parent.mkdir(parents=True, exist_ok=True)
    scoped.resolved.write_text(text, encoding="utf-8")
    return {"path": scoped.relative, "bytes_written": len(text.encode("utf-8"))}


def run_allowlisted(
    argv: list[str],
    cwd: Path,
    allowlist: list[str],
    timeout_s: float,
    truncate_bytes: int,
) -> dict:
    if not argv:
        raise CommandNotAllowed("empty argv")
    if argv[0] not in allowlist:
        raise CommandNotAllowed(f"command {argv[0]!r} is not in the allowlist")
    try:
        proc = subprocess.run(
            argv,
            cwd=str(cwd),
            capture_output=True,
            text=True,
            timeout=timeout_s,
        )
    except subprocess.TimeoutExpired:
        raise CommandTimeout(f"command {argv[0]!r} exceeded {timeout_s}s") from None
    except OSError as exc:
        raise ToolError(f"command failed to start: {exc}") from exc
    stdout, out_cut = _truncate(proc.stdout, truncate_bytes)
    stderr, err_cut = _truncate(proc.stderr, truncate_bytes)
    return {
        "exit_code": proc.returncode,
        "stdout": stdout,
        "stderr": stderr,
        "truncated": out_cut or err_cut,
    }


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
    if not scoped.resolved.is_file():
        raise ToolError(f"no such file: {scoped.relative}")
    try:
        text = scoped.resolved.read_text(encoding="utf-8", errors="replace")
    except OSError as exc:
        raise ToolError(f"cannot read {scoped.relative}: {exc}") from exc
    content, truncated = _truncate(text, ctx.output_truncate_bytes)
    return {"path": scoped.relative, "content": content, "truncated": truncated}


@executor("core.fs_write")
def fs_write(args: dict, ctx: ExecutionContext) -> dict:
    return write_file(ctx, args["path"], args["content"])


@executor("core.run_command")
def run_command(args: dict, ctx: ExecutionContext) -> dict:
    return run_allowlisted(
        args["argv"],
        cwd=ctx.workspace_root,
        allowlist=ctx.command_allowlist,
        timeout_s=ctx.command_timeout_s,
        truncate_bytes=ctx.output_truncate_bytes,
    )


@executor("core.delegate_subtask")
def delegate_subtask(args: dict, ctx: ExecutionContext) -> dict:
    return ctx.services.delegate(
        args["task_text"], args["task_type"], args["subdir"], args["done_when"]
    )


@executor("core.finish")
def finish(args: dict, ctx: ExecutionContext) -> dict:
    return ctx.services.finish(args["report_text"])
