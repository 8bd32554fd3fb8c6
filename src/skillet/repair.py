"""The code-repair reference skill.

Five-phase workflow object enforced by hooks rather than prose: the model
only ever sees the tools for the current phase plus a compact state-derived
guidance message, patch calls pass shape/path/size guards before any side
effect, patches and artifacts are written through the workspace writer
(which refuses protected paths, and artifact paths outside the policy's
artifact directory), verification is a structured check list, and the
registered completion gate keeps completion blocked until verification has
passed and the artifacts named by done_when exist on disk.

Phase transitions (the only legal edges):

    reproduce -> patch          evidence captured (default route)
    reproduce -> diagnose       evidence captured, contextual_diagnosis set
    diagnose  -> patch          contextual patch applied, rejoining the main flow
    patch     -> verify         patch applied
    verify    -> report         every check passed
    verify    -> patch          any check failed

The skill state lives in the session's skill-local store. The before_llm
hook is the one place that infers the required artifacts from done_when, at
the session's first wakeup in this process (done_when and the root never
change); it stores them in the state, where the completion gate reads them. The
after_llm hook forces the phase action in reproduce and verify, the
after_tool hook only advances the state, and whether the session may
complete is decided by the gate alone.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from pathlib import Path

from .bindings import completion_gate, executor, hook_program
from .errors import (
    CommandNotAllowed,
    EmptyEvidence,
    PathEscape,
    TargetMissing,
    ToolError,
)
from .execution import ExecutionContext
from .hooks import HookContext, HookDecision, Reject
from .patching import (
    PatchFormatError,
    apply_hunks,
    count_changed_lines,
    is_creation_patch,
    is_pure_addition,
    parse_unified_diff,
)
from .registry import PolicyConfig
from .workspace import _truncate, glob_match, resolve, run_allowlisted, write_file

SKILL_ID = "repair"

REPRODUCE = "reproduce"
DIAGNOSE = "diagnose"
PATCH = "patch"
VERIFY = "verify"
REPORT = "report"

PHASES = (REPRODUCE, DIAGNOSE, PATCH, VERIFY, REPORT)

# visible repair actions per phase; finish and fs_read stay visible on top
PHASE_ACTIONS: dict[str, tuple[str, ...]] = {
    REPRODUCE: ("repair_collect_evidence",),
    DIAGNOSE: ("repair_collect_evidence", "repair_apply_unified_patch"),
    PATCH: ("repair_collect_evidence", "repair_apply_unified_patch"),
    VERIFY: ("repair_run_verification",),
    REPORT: ("repair_write_artifact",),
}

PHASE_EDGES = frozenset({
    (REPRODUCE, PATCH),
    (REPRODUCE, DIAGNOSE),
    (DIAGNOSE, PATCH),
    (PATCH, VERIFY),
    (VERIFY, REPORT),
    (VERIFY, PATCH),
})

DEFAULT_ARTIFACT_EXTENSIONS = (".md", ".txt", ".json", ".patch")

CHECK_TYPES = ("command_exit_zero", "file_exists", "file_contains", "output_matches")

VERIFICATION_NOT_PASSED = "verification not passed"

WORKFLOW_ORDER = "reproduce -> patch -> verify -> report"


@dataclass
class RepairState:
    phase: str = REPRODUCE
    verification_passed: bool = False
    failure_signature: str | None = None
    required_artifacts: list[str] | None = None  # None: not inferred yet
    last_tool: dict | None = None  # {"name", "ok", "seq"}

    @classmethod
    def from_doc(cls, doc: dict) -> "RepairState":
        state = cls()
        for key in vars(state):
            if key in doc:
                setattr(state, key, doc[key])
        return state

    def to_doc(self) -> dict:
        return {
            "phase": self.phase,
            "verification_passed": self.verification_passed,
            "failure_signature": self.failure_signature,
            "required_artifacts": (None if self.required_artifacts is None
                                   else list(self.required_artifacts)),
            "last_tool": self.last_tool,
        }


# -- deterministic text machinery ---------------------------------------------

# "traceback" is deliberately not a signal word: Python's header line would
# otherwise shadow the real error in every traceback
_SIGNAL_RE = re.compile(r"(error|exception|assert|fail|fatal|panic)", re.IGNORECASE)
_PATHLIKE_RE = re.compile(r"[\w.~-]*(?:/[\w.~-]+)+")
_TRIM_CHARS = "`\"'(),.;:!?"


def normalize_failure_signature(output: str) -> str | None:
    """First error-looking line, with paths stripped to basenames and digits
    masked, so the same failure reproduces to the same signature."""
    lines = [l.strip() for l in output.splitlines() if l.strip()]
    if not lines:
        return None
    picked = next((l for l in lines if _SIGNAL_RE.search(l)), lines[0])
    picked = _PATHLIKE_RE.sub(lambda m: m.group(0).rsplit("/", 1)[-1], picked)
    return re.sub(r"\d+", "N", picked)


def artifact_extensions(config: dict) -> tuple[str, ...]:
    raw = config.get("artifact_extensions")
    if not raw:
        return DEFAULT_ARTIFACT_EXTENSIONS
    return tuple(e for e in (s.strip() for s in str(raw).split(",")) if e)


def infer_required_artifacts(
    done_when: str,
    workspace_root: Path,
    extensions: tuple[str, ...] = DEFAULT_ARTIFACT_EXTENSIONS,
) -> list[str]:
    """Extract the artifact paths a done_when contract demands.

    Rule: every backtick-quoted or whitespace-delimited token that contains a
    '/' or ends in a known artifact extension and resolves inside the
    workspace; order of appearance, deduplicated.
    """
    candidates: list[str] = list(re.findall(r"`([^`]+)`", done_when))
    candidates += [tok.strip(_TRIM_CHARS) for tok in re.sub(r"`[^`]*`", " ", done_when).split()]
    out: list[str] = []
    for cand in candidates:
        if not cand:
            continue
        if "/" not in cand and not cand.lower().endswith(extensions):
            continue
        try:
            resolve(workspace_root, cand)
        except PathEscape:
            continue
        if cand not in out:
            out.append(cand)
    return out


def workflow_message(state: RepairState, visible: list[str], required: list[str]) -> str:
    lines = [
        "[repair workflow]",
        f"phase: {state.phase}",
        f"visible tools: {', '.join(sorted(visible))}",
        f"order: {WORKFLOW_ORDER}",
        "completion is blocked until verification has passed",
        f"required artifacts: {', '.join(required) if required else '(none)'}",
        "edit files only through repair_apply_unified_patch (unified diff, @@ hunks)",
        'verification checks are {"name", "type", "args"}; '
        f"types: {', '.join(CHECK_TYPES)}",
    ]
    if state.failure_signature:
        lines.insert(3, f"failure signature: {state.failure_signature}")
    return "\n".join(lines)


def completion_gate_reasons(state: RepairState, workspace_root: Path) -> list[str]:
    """Open-gate reasons; empty list means completion is permitted."""
    reasons: list[str] = []
    if not state.verification_passed:
        reasons.append(VERIFICATION_NOT_PASSED)
    for path in state.required_artifacts or []:
        try:
            scoped = resolve(workspace_root, path)
        except PathEscape:
            reasons.append(f"missing artifact {path}")
            continue
        if not scoped.resolved.is_file():
            reasons.append(f"missing artifact {path}")
    return reasons


@completion_gate(SKILL_ID)
def repair_gate(session, state_doc: dict) -> list[str]:
    # required_artifacts were inferred and stored by before_llm, which runs
    # before every model call and so before any finish
    return completion_gate_reasons(RepairState.from_doc(state_doc), session.workspace_root)


# -- hook programs --------------------------------------------------------------

@hook_program("repair.before_llm")
def before_llm(ctx: HookContext) -> HookDecision:
    state = RepairState.from_doc(ctx.state)
    inferring = state.required_artifacts is None
    if inferring:  # once per session: the result is kept in the skill state
        state.required_artifacts = infer_required_artifacts(
            ctx.done_when, ctx.workspace_root, artifact_extensions(ctx.config))
    visible = set(PHASE_ACTIONS[state.phase]) | {"fs_read", "finish"}
    return HookDecision(
        tool_filter=visible,
        injected_messages=[workflow_message(state, sorted(visible),
                                            state.required_artifacts)],
        state_update=state.to_doc() if inferring else None,
    )


@hook_program("repair.after_llm")
def after_llm(ctx: HookContext) -> HookDecision | None:
    response = ctx.payload
    if response.tool_call is not None:
        return None
    state = RepairState.from_doc(ctx.state)
    if state.phase == REPRODUCE:
        return HookDecision(force_action="repair_collect_evidence")
    if state.phase == VERIFY:
        return HookDecision(force_action="repair_run_verification")
    return None


@hook_program("repair.before_tool")
def before_tool(ctx: HookContext) -> HookDecision | None:
    call = ctx.payload
    name, args = call["name"], call["args"]
    state = RepairState.from_doc(ctx.state)

    if name.startswith("repair_") and name not in PHASE_ACTIONS[state.phase]:
        return HookDecision(reject=Reject(
            reason=f"{name} is not available in phase {state.phase}",
            redirect_hint=f"allowed now: {', '.join(PHASE_ACTIONS[state.phase])}",
        ))

    if name == "repair_apply_unified_patch":
        return _guard_patch(ctx, state, args)

    if name == "repair_run_verification":
        checks = args.get("checks") or []
        if not checks:
            return HookDecision(reject=Reject(
                reason="verification requires a non-empty check list",
                redirect_hint='pass checks as [{"name", "type", "args"}, ...]',
            ))
    return None


def _guard_patch(ctx: HookContext, state: RepairState, args: dict) -> HookDecision | None:
    target = args.get("target", "")
    try:
        scoped = resolve(ctx.workspace_root, target)
    except PathEscape:
        return HookDecision(reject=Reject(
            reason=f"patch target {target!r} escapes the workspace"))
    if glob_match(scoped.relative, ctx.policy.protected_path_globs):
        return HookDecision(reject=Reject(
            reason=f"patch target {scoped.relative!r} matches a protected path",
            redirect_hint="do not edit protected files; record the proposed change "
                          "as an artifact note via repair_write_artifact in report",
        ))
    try:
        hunks = parse_unified_diff(args.get("body", ""))
    except PatchFormatError as exc:
        return HookDecision(reject=Reject(
            reason=f"invalid patch: {exc}",
            redirect_hint="unified diff bodies need @@ -a,b +c,d @@ hunk headers",
        ))
    changed = count_changed_lines(hunks)
    if changed > ctx.policy.max_patch_lines:
        return HookDecision(reject=Reject(
            reason=f"patch changes {changed} lines, above the {ctx.policy.max_patch_lines} line limit",
            redirect_hint="split the change into smaller patches",
        ))
    exists = scoped.resolved.is_file()
    if exists and is_pure_addition(hunks):
        return HookDecision(reject=Reject(
            reason="append-only patch on an existing file",
            redirect_hint="anchor the change with context lines around the edit",
        ))
    if not exists and not is_creation_patch(hunks):
        return HookDecision(reject=Reject(
            reason=f"patch target {scoped.relative!r} does not exist and the patch "
                   "is not a pure file creation"))
    return None


@hook_program("repair.after_tool")
def after_tool(ctx: HookContext) -> HookDecision:
    record = ctx.payload
    name, ok, result = record["name"], record["ok"], record["result"]
    state = RepairState.from_doc(ctx.state)
    state.last_tool = {"name": name, "ok": ok, "seq": record["seq"]}

    if ok and name == "repair_collect_evidence":
        signature = result.get("signature")
        if signature:
            state.failure_signature = signature
        if state.phase == REPRODUCE:
            state.phase = DIAGNOSE if ctx.config.get("contextual_diagnosis") else PATCH
    elif ok and name == "repair_apply_unified_patch":
        if state.phase == PATCH:
            state.phase = VERIFY
        elif state.phase == DIAGNOSE:
            # contextual patching rejoins the main flow; only the patch-phase
            # patch advances to verification
            state.phase = PATCH
    elif ok and name == "repair_run_verification":
        if result.get("passed"):
            state.verification_passed = True
            if state.phase == VERIFY:
                state.phase = REPORT
        else:
            state.verification_passed = False
            if state.phase == VERIFY:
                state.phase = PATCH
    return HookDecision(state_update=state.to_doc())


# -- executors -------------------------------------------------------------------

@executor("repair.collect_evidence")
def collect_evidence(args: dict, ctx: ExecutionContext) -> dict:
    argv = args.get("command")
    log_path = args.get("log_path")
    if argv:
        run = run_allowlisted(
            argv, cwd=ctx.workspace_root, allowlist=ctx.command_allowlist,
            timeout_s=ctx.command_timeout_s, truncate_bytes=ctx.output_truncate_bytes,
        )
        output = (run["stdout"] + run["stderr"]).strip()
        exit_code = run["exit_code"]
        if not output and exit_code == 0:
            raise EmptyEvidence("command produced no output and no error")
        source = output or f"exit code {exit_code}"
    elif log_path:
        scoped = resolve(ctx.workspace_root, log_path)
        if not scoped.resolved.is_file():
            raise EmptyEvidence(f"log path {log_path!r} does not exist")
        output = scoped.resolved.read_text(encoding="utf-8", errors="replace").strip()
        exit_code = None
        if not output:
            raise EmptyEvidence(f"log {log_path!r} is empty")
        source = output
    else:
        raise ToolError("provide either command or log_path")
    return {
        "output": _truncate(output, ctx.output_truncate_bytes)[0],
        "exit_code": exit_code,
        "signature": normalize_failure_signature(source),
    }


@executor("repair.apply_unified_patch")
def apply_unified_patch(args: dict, ctx: ExecutionContext) -> dict:
    scoped = resolve(ctx.workspace_root, args["target"])
    try:
        hunks = parse_unified_diff(args["body"])
    except PatchFormatError as exc:
        raise ToolError(f"invalid patch: {exc}") from exc
    exists = scoped.resolved.is_file()
    if not exists and not is_creation_patch(hunks):
        raise TargetMissing(f"patch target {scoped.relative!r} does not exist")
    original = scoped.resolved.read_text(encoding="utf-8") if exists else ""
    lines = original.splitlines()
    patched = apply_hunks(lines, hunks)  # HunkMismatch leaves the file untouched
    write_file(ctx, args["target"], "\n".join(patched) + ("\n" if patched else ""))
    return {
        "target": scoped.relative,
        "created": not exists,
        "hunks": len(hunks),
        "changed_lines": count_changed_lines(hunks),
    }


@executor("repair.run_verification")
def run_verification(args: dict, ctx: ExecutionContext) -> dict:
    results = []
    for check in args["checks"]:
        results.append(_run_check(check, ctx))
    return {"passed": all(r["passed"] for r in results), "checks": results}


def _run_check(check: dict, ctx: ExecutionContext) -> dict:
    name, ctype, cargs = check["name"], check["type"], check.get("args", {})
    passed, detail = False, ""
    if ctype == "command_exit_zero":
        run = _check_command(cargs, ctx)
        passed = run["exit_code"] == 0
        detail = f"exit code {run['exit_code']}"
    elif ctype == "file_exists":
        passed, detail = _check_file(cargs, ctx, needle=None)
    elif ctype == "file_contains":
        needle = cargs.get("needle")
        if not isinstance(needle, str):
            detail = "malformed args: needle must be a string"
        else:
            passed, detail = _check_file(cargs, ctx, needle=needle)
    elif ctype == "output_matches":
        pattern = cargs.get("pattern")
        if not isinstance(pattern, str):
            detail = "malformed args: pattern must be a string"
        else:
            run = _check_command(cargs, ctx)
            passed = re.search(pattern, run["stdout"] + run["stderr"]) is not None
            detail = "pattern matched" if passed else "pattern not found"
    else:
        detail = f"unknown check type {ctype!r}"
    return {"name": name, "type": ctype, "passed": passed, "detail": detail}


def _check_command(cargs: dict, ctx: ExecutionContext) -> dict:
    argv = cargs.get("argv")
    if not isinstance(argv, list) or not all(isinstance(a, str) for a in argv):
        raise ToolError("malformed check args: argv must be a list of strings")
    # CommandNotAllowed propagates: a disallowed command is an error, not a failed check
    return run_allowlisted(
        argv, cwd=ctx.workspace_root, allowlist=ctx.command_allowlist,
        timeout_s=ctx.command_timeout_s, truncate_bytes=ctx.output_truncate_bytes,
    )


def _check_file(cargs: dict, ctx: ExecutionContext, needle: str | None) -> tuple[bool, str]:
    path = cargs.get("path")
    if not isinstance(path, str):
        return False, "malformed args: path must be a string"
    try:
        scoped = resolve(ctx.workspace_root, path)
    except PathEscape as exc:
        return False, str(exc)
    if not scoped.resolved.is_file():
        return False, f"{path} does not exist"
    if needle is None:
        return True, f"{path} exists"
    content = scoped.resolved.read_text(encoding="utf-8", errors="replace")
    if needle in content:
        return True, f"{path} contains the needle"
    return False, f"{path} does not contain the needle"


@executor("repair.write_artifact")
def write_artifact(args: dict, ctx: ExecutionContext) -> dict:
    policy = ctx.skill.policy if ctx.skill is not None else PolicyConfig()
    return write_file(ctx, args["path"], args["content"], artifact_dir=policy.artifact_dir)
