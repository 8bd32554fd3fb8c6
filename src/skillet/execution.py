"""Execution context handed to tool executors.

Executors are plain callables `fn(args, ctx) -> dict`; domain failures are
raised as ToolError subclasses and become ok=false tool results. The context
is an executor's whole interface to the runtime: the session's workspace
root, the effective command policy, the protected path globs every workspace
write is checked against (the session's and its ancestors', anchored at
their roots: `HookPipeline.protected_globs`), and the owning skill's
artifact directory. The two orchestration tools that act on the runtime
itself, `delegate_subtask` and `finish`, have no executor: the planner runs
them.
"""

from __future__ import annotations

from dataclasses import dataclass
from pathlib import Path


@dataclass
class ExecutionContext:
    workspace_root: Path
    command_allowlist: list[str]
    command_timeout_s: float
    output_truncate_bytes: int
    protected_globs: list[str]  # HookPipeline.protected_globs(session)
    artifact_dir: str           # the owning skill's policy.artifact_dir
