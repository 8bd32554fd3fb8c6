"""The code-repair reference skill.

Five-phase workflow enforced by the runtime rather than prose: the phases
are the `workflow` block of the skill's manifest, which the hook pipeline
runs (`PHASE_EDGES`, the legal phase moves, is read from it). This module
adds a compact state-derived guidance message, the phase's forced tool when
the model replies without a call, patch guards before any side effect,
patches and artifacts written through the workspace writer (which refuses
protected paths, and artifact paths outside the policy's artifact
directory), structured verification checks, and the completion gate, which
keeps completion blocked until verification has passed and the session's
required artifacts (`Session.required_artifacts`) exist on disk.

The skill state lives in the session's skill-local store and holds only the
skill's own decisions, the phase and the failure signature: verification has
passed exactly when the phase is `report`, where a passing verification
moves and which it never leaves. The before_llm hook writes the first
snapshot; its workflow message is standing guidance: the planner writes it,
marked with its stage's `standing` block id, only when its text differs
from the one already standing, and each request carries only the latest
one, as its last message. The after_tool hook records the failure
signature (a step that changes nothing writes no snapshot), and whether the
session may complete is decided by the gate alone.
"""

from __future__ import annotations

import re
from dataclasses import asdict, dataclass, fields
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
    split_lines,
)
from .registry import SkillRegistry
from .workspace import (
    ScopedPath,
    _truncate,
    glob_match,
    open_file,
    read_head,
    resolve,
    run_allowlisted,
    write_file,
)

SKILL_ID = "repair"

REPRODUCE = "reproduce"  # a state's phase until the first before_llm sets the initial one
REPORT = "report"  # the phase a passing verification moves to, and never leaves

CHECK_TYPES = ("command_exit_zero", "file_exists", "file_contains", "output_matches")

VERIFICATION_NOT_PASSED = "verification not passed"

WORKFLOW_ORDER = "reproduce -> patch -> verify -> report"


@dataclass
class RepairState:
    phase: str = REPRODUCE
    failure_signature: str | None = None

    @property
    def verification_passed(self) -> bool:
        return self.phase == REPORT

    @classmethod
    def from_doc(cls, doc: dict) -> "RepairState":
        # keys that are not fields, such as an older snapshot's, are ignored
        return cls(**{f.name: doc[f.name] for f in fields(cls) if f.name in doc})

    def to_doc(self) -> dict:
        return asdict(self)


# -- deterministic text machinery ---------------------------------------------

# "traceback" is deliberately not a signal word: Python's header line would
# otherwise shadow the real error in every traceback
_SIGNAL_RE = re.compile(r"(error|exception|assert|fail|fatal|panic)", re.IGNORECASE)
_PATHLIKE_RE = re.compile(r"[\w.~-]*(?:/[\w.~-]+)+")


def normalize_failure_signature(output: str) -> str | None:
    """First error-looking line, with paths stripped to basenames and digits
    masked, so the same failure reproduces to the same signature."""
    lines = [l.strip() for l in output.splitlines() if l.strip()]
    if not lines:
        return None
    picked = next((l for l in lines if _SIGNAL_RE.search(l)), lines[0])
    picked = _PATHLIKE_RE.sub(lambda m: m.group(0).rsplit("/", 1)[-1], picked)
    return re.sub(r"\d+", "N", picked)


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


def completion_gate_reasons(state: RepairState, required: list[str],
                            workspace_root: Path) -> list[str]:
    """Open-gate reasons; empty list means completion is permitted."""
    reasons: list[str] = []
    if not state.verification_passed:
        reasons.append(VERIFICATION_NOT_PASSED)
    for path in required:
        try:
            scoped = resolve(workspace_root, path)
        except PathEscape:
            reasons.append(f"missing artifact {path}")
            continue
        if not scoped.is_file:
            reasons.append(f"missing artifact {path}")
    return reasons


@completion_gate(SKILL_ID)
def repair_gate(session, state_doc: dict) -> list[str]:
    return completion_gate_reasons(RepairState.from_doc(state_doc), session.required_artifacts,
                                   session.workspace_root)


# -- hook programs --------------------------------------------------------------

@hook_program("repair.before_llm")
def before_llm(ctx: HookContext) -> HookDecision:
    state = RepairState.from_doc({"phase": ctx.workflow.initial, **ctx.state})
    visible = ctx.workflow.phases[state.phase].tools
    return HookDecision(
        injected_messages=[workflow_message(state, visible, ctx.required_artifacts)],
        state_update=None if ctx.state else state.to_doc(),  # the first wakeup's snapshot
    )


@hook_program("repair.after_llm")
def after_llm(ctx: HookContext) -> HookDecision | None:
    if ctx.payload.tool_call is not None:
        return None
    phase = RepairState.from_doc(ctx.state).phase
    return HookDecision(force_action=ctx.workflow.phases[phase].force)


@hook_program("repair.before_tool")
def before_tool(ctx: HookContext) -> HookDecision | None:
    """The patch guard: the target's path, the diff's shape and its size."""
    if ctx.payload["name"] != "repair_apply_unified_patch":
        return None
    args = ctx.payload["args"]
    target = args.get("target", "")
    try:
        scoped = resolve(ctx.workspace_root, target)
    except PathEscape:
        return HookDecision(reject=Reject(
            reason=f"patch target {target!r} escapes the workspace"))
    if glob_match(scoped.path, ctx.protected_globs):
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
    exists = scoped.is_file
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
    # the pipeline has already moved ctx.state's phase along the workflow
    record = ctx.payload
    state = RepairState.from_doc(ctx.state)
    if record["ok"] and record["name"] == "repair_collect_evidence":
        state.failure_signature = record["result"].get("signature") or state.failure_signature
    return HookDecision(state_update=state.to_doc())


# -- executors -------------------------------------------------------------------

@executor("repair.collect_evidence")
def collect_evidence(args: dict, ctx: ExecutionContext) -> dict:
    argv = args.get("command")
    log_path = args.get("log_path")
    if argv:
        run = run_allowlisted(argv, ctx)
        output = (run["stdout"] + run["stderr"]).strip()
        exit_code = run["exit_code"]
        if not output and exit_code == 0:
            raise EmptyEvidence("command produced no output and no error")
        source = output or f"exit code {exit_code}"
    elif log_path:
        # only the log's head is read: the signature comes from its first cap bytes
        head = read_head(ctx, resolve(ctx.workspace_root, log_path))
        if head is None:
            raise EmptyEvidence(f"log path {log_path!r} does not exist")
        output = head.strip()
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
    fh = open_file(scoped, "rb")
    exists = fh is not None
    if not exists and not is_creation_patch(hunks):
        raise TargetMissing(f"patch target {scoped.relative!r} does not exist")
    original = ""
    if exists:
        with fh:
            try:
                original = fh.read().decode("utf-8")
            except UnicodeDecodeError:
                raise ToolError(f"patch target {scoped.relative!r} is not UTF-8 text") from None
    patched = apply_hunks(split_lines(original), hunks)  # HunkMismatch writes nothing
    write_file(ctx, args["target"], "".join(patched))
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
    return run_allowlisted(argv, ctx)


def _check_file(cargs: dict, ctx: ExecutionContext, needle: str | None) -> tuple[bool, str]:
    path = cargs.get("path")
    if not isinstance(path, str):
        return False, "malformed args: path must be a string"
    try:
        scoped = resolve(ctx.workspace_root, path)
    except PathEscape as exc:
        return False, str(exc)
    if not scoped.is_file:
        return False, f"{path} does not exist"
    if needle is None:
        return True, f"{path} exists"
    if _contains(scoped, needle):
        return True, f"{path} contains the needle"
    return False, f"{path} does not contain the needle"


_CHUNK_CHARS = 64 * 1024


def _contains(scoped: ScopedPath, needle: str) -> bool:
    """Whether the file holds `needle`, read as UTF-8 with replacement, in
    chunks: each search covers the previous chunk's last `len(needle) - 1`
    characters plus the new chunk, so a needle that straddles two chunks is
    found and memory stays bounded. False for a file gone since `resolve`."""
    if not needle:
        return True
    keep = len(needle) - 1
    fh = open_file(scoped, encoding="utf-8", errors="replace")
    if fh is None:
        return False
    with fh:
        tail = ""
        while chunk := fh.read(_CHUNK_CHARS):
            window = tail + chunk
            if needle in window:
                return True
            tail = window[-keep:] if keep else ""  # window[-0:] would keep it all
    return False


@executor("repair.write_artifact")
def write_artifact(args: dict, ctx: ExecutionContext) -> dict:
    return write_file(ctx, args["path"], args["content"], artifact_dir=ctx.artifact_dir)


# loaded last, once the bindings above are registered: the legal phase
# changes, read from the manifest's workflow
_WORKFLOW = SkillRegistry().load_skill_package(Path(__file__).parent / "skills" / SKILL_ID).workflow
PHASE_EDGES = frozenset((phase, t.to) for phase, p in _WORKFLOW.phases.items() for t in p.next)
