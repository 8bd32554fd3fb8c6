"""Exception types shared across the runtime."""

from __future__ import annotations


class SkilletError(Exception):
    """Base class for all runtime errors."""


# -- registry ----------------------------------------------------------------

class MalformedManifest(SkilletError):
    """A skill package failed to parse or violated a manifest invariant."""


class UnresolvedBinding(SkilletError):
    """An executor_id or program_id did not resolve against the binding table."""


class NotFound(SkilletError):
    pass


# -- session store -----------------------------------------------------------

class WorkspaceEscape(SkilletError):
    """A child workspace root lies outside its parent's root."""


class UnknownParent(SkilletError):
    pass


class SessionClosed(SkilletError):
    pass


class OrphanToolResult(SkilletError):
    """tool_result event whose call_id matches no prior tool_call."""


class CorruptStore(SkilletError):
    """A non-tail log record failed to parse; the store cannot be trusted."""


# -- hook pipeline -----------------------------------------------------------

class HookFault(SkilletError):
    """A hook program raised or returned a decision the pipeline refuses; the
    wakeup is aborted, the session survives."""

    def __init__(self, skill_id: str, program_id: str, cause: BaseException):
        super().__init__(f"hook {program_id} of skill {skill_id} raised: {cause!r}")
        self.skill_id = skill_id
        self.program_id = program_id


# -- model backends ----------------------------------------------------------

class ModelBackendError(SkilletError):
    def __init__(self, message: str, retryable: bool = False, status: int | None = None):
        super().__init__(message)
        self.retryable = retryable
        self.status = status


class ScriptExhausted(ModelBackendError):
    """No scripted step matched the request."""

    def __init__(self, message: str = "script exhausted: no matching step"):
        super().__init__(message, retryable=False)


class ScriptToolNotVisible(ModelBackendError):
    """A scripted step tried to call a tool the hook filter removed."""

    def __init__(self, tool: str, visible: list[str]):
        super().__init__(
            f"script calls tool {tool!r} but visible tools are {sorted(visible)}",
            retryable=False,
        )


class LogWriteError(SkilletError):
    """A JSONL log append failed (requests.jsonl: accounting integrity is a
    hard requirement), or a log refuses appends after a failed cut back."""


# -- planner -----------------------------------------------------------------

class ConfigError(SkilletError):
    """A run config that is not valid JSON, or does not fit RunConfig."""


class StepBudgetExhausted(SkilletError):
    """Wakeup queue not drained within max_steps. Carries the run summary."""

    def __init__(self, summary):
        super().__init__(f"step budget exhausted with {summary.pending} wakeups pending")
        self.summary = summary


# -- tool execution ----------------------------------------------------------

class ToolError(SkilletError):
    """Domain failure of a tool executor; becomes an ok=false tool_result.

    `code` is a stable machine-readable identifier surfaced to the model.
    """

    code = "tool_error"

    def payload(self) -> dict:
        return {"error": self.code, "message": str(self)}


class PathEscape(ToolError):
    code = "path_escape"


class CommandNotAllowed(ToolError):
    code = "command_not_allowed"


class CommandTimeout(ToolError):
    code = "command_timeout"


class TargetMissing(ToolError):
    code = "target_missing"


class HunkMismatch(ToolError):
    code = "hunk_mismatch"


class EmptyEvidence(ToolError):
    code = "empty_evidence"


class CompletionBlocked(ToolError):
    code = "completion_blocked"

    def __init__(self, reasons: list[str]):
        super().__init__("; ".join(reasons))
        self.reasons = list(reasons)

    def payload(self) -> dict:
        return {"error": self.code, "message": str(self), "reasons": self.reasons}
