"""Execution context handed to tool executors.

Executors are plain callables `fn(args, ctx) -> dict`; domain failures are
raised as ToolError subclasses and become ok=false tool results. The context
carries the session's workspace root, the effective command policy, the
protected path globs every workspace write is checked against, and the two
runtime services (delegate, finish) that tools are allowed to invoke.
"""

from __future__ import annotations

from dataclasses import dataclass
from pathlib import Path
from typing import TYPE_CHECKING, Callable

if TYPE_CHECKING:  # pragma: no cover
    from .registry import SkillManifest


@dataclass
class RuntimeServices:
    """Callbacks into the planner, injected so executors stay import-light.

    delegate(task_text, task_type, subdir, done_when) -> result payload
    finish(report_text) -> result payload; raises CompletionBlocked when gates are open
    """

    delegate: Callable[[str, str, str, str], dict]
    finish: Callable[[str], dict]


@dataclass
class ExecutionContext:
    workspace_root: Path
    command_allowlist: list[str]
    command_timeout_s: float
    output_truncate_bytes: int
    protected_globs: list[str]  # union of the routed skills' protected_path_globs
    services: RuntimeServices
    skill: "SkillManifest | None" = None
