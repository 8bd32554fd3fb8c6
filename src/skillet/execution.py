"""Execution context handed to tool executors.

Executors are plain callables `fn(args, ctx) -> dict`; domain failures are
raised as ToolError subclasses and become ok=false tool results. The context
is an executor's whole interface to the runtime: the session's workspace
root, the effective command policy, the protected path globs every workspace
write is checked against, the owning skill's artifact directory, and the two
runtime callbacks (delegate, finish) that tools are allowed to invoke.
"""

from __future__ import annotations

from dataclasses import dataclass
from pathlib import Path
from typing import Callable


@dataclass
class ExecutionContext:
    workspace_root: Path
    command_allowlist: list[str]
    command_timeout_s: float
    output_truncate_bytes: int
    protected_globs: list[str]  # union of the routed skills' protected_path_globs
    artifact_dir: str           # the owning skill's policy.artifact_dir
    # delegate(task_text, task_type, subdir, done_when) -> result payload
    delegate: Callable[[str, str, str, str], dict]
    # finish(report_text) -> result payload; raises CompletionBlocked when gates are open
    finish: Callable[[str], dict]
