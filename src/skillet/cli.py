"""Operator CLI: run a task, list skills, inspect a session trace.

Exit codes: 0 the root session completed, 1 load/config error, 2 step
budget exhausted with sessions still awaiting follow-up.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from pathlib import Path

from .backends import HttpBackend, ScriptedBackend, UsageLog
from .config import RunConfig
from .errors import SkilletError, StepBudgetExhausted
from .planner import RunSummary, Runtime
from .registry import SkillRegistry
from .router import DelegatedTask
from .sessions import EventKind, SessionStore, is_standing, read_log, snapshot_records


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="skillet")
    sub = parser.add_subparsers(dest="command", required=True)

    run = sub.add_parser("run", help="run one task to quiescence")
    run.add_argument("--skills", required=True, help="directory of skill packages")
    run.add_argument("--store", required=True, help="session store directory")
    run.add_argument("--workspace", required=True, help="workspace root")
    run.add_argument("--task", required=True, help="task text")
    run.add_argument("--task-type", default="", help="task type tag")
    run.add_argument("--done-when", default="", help="completion contract text")
    backend = run.add_mutually_exclusive_group(required=True)
    backend.add_argument("--script", help="scripted backend: JSON step file")
    backend.add_argument("--http", action="store_true",
                         help="HTTP backend via MODEL_BASE_URL/MODEL_API_KEY/MODEL_NAME")
    run.add_argument("--config", help="JSON config overrides (router/planner/workspace)")

    skills = sub.add_parser("skills", help="list loaded skills")
    skills.add_argument("--skills", required=True, dest="skills_dir")

    trace = sub.add_parser("trace", help="print one session's typed history")
    trace.add_argument("--store", required=True)
    trace.add_argument("--session", required=True)
    return parser


def cmd_run(args: argparse.Namespace) -> int:
    skills_dir = Path(args.skills)
    if not skills_dir.is_dir():
        print(f"error: skills directory not found: {skills_dir}", file=sys.stderr)
        return 1
    workspace = Path(args.workspace)
    if not workspace.is_dir():
        print(f"error: workspace not found: {workspace}", file=sys.stderr)
        return 1
    config = RunConfig()
    if args.config:
        config = RunConfig.from_file(args.config)

    if args.script:
        backend = ScriptedBackend.from_file(args.script)
    else:
        base_url = os.environ.get("MODEL_BASE_URL")
        if not base_url:
            print("error: --http requires MODEL_BASE_URL", file=sys.stderr)
            return 1
        backend = HttpBackend(
            base_url=base_url,
            api_key=os.environ.get("MODEL_API_KEY", ""),
            model=os.environ.get("MODEL_NAME", "default"),
        )

    registry = SkillRegistry()
    registry.load_all(skills_dir)
    usage_log = UsageLog(Path(args.store) / "requests.jsonl")
    exhausted = False
    with SessionStore(args.store) as store:
        runtime = Runtime(registry, store, backend, usage_log, config)
        root = runtime.submit_task(DelegatedTask(
            task_text=args.task,
            task_type=args.task_type,
            workspace_root=workspace.resolve(),
            done_when=args.done_when,
        ))
        try:
            summary = runtime.run_until_quiescent()
        except StepBudgetExhausted as exc:
            summary = exc.summary
            exhausted = True
    print_summary(summary)
    if exhausted:
        return 2
    return 0 if store.session(root.session_id).status.value == "completed" else 1


def print_summary(summary: RunSummary) -> None:
    print(f"steps used: {summary.steps_used}  pending wakeups: {summary.pending}")
    for s in summary.sessions:
        parent = f" parent={s.parent_id}" if s.parent_id else ""
        print(
            f"{s.session_id}{parent} status={s.status} turns={s.turns} "
            f"tokens={s.usage.total_tokens} requests={s.usage.request_count}"
        )


def cmd_skills(args: argparse.Namespace) -> int:
    registry = SkillRegistry()
    registry.load_all(args.skills_dir)
    for manifest in registry.manifests():
        print(f"{manifest.skill_id} v{manifest.version}")
        print(f"  {manifest.description}")
        print(f"  tools: {', '.join(manifest.tool_names()) or '(none)'}")
        print(f"  task types: {', '.join(sorted(manifest.task_types))}")
        print(f"  triggers: {', '.join(sorted(manifest.trigger_keywords))}")
    for note in registry.diagnostics:
        print(f"  note: {note}")
    return 0


def cmd_trace(args: argparse.Namespace) -> int:
    """Print one session's history, read from `<store>/sessions/<id>.log`
    alone and folded as the store folds it, with the phase notes of its
    snapshot records and each turn's tokens from `requests.jsonl`. Standing
    guidance that a later block of its skill superseded, and that later
    requests no longer carried, is marked `[superseded]`. Trace creates,
    moves and truncates nothing, so it can read a running store."""
    session, records = read_log(args.store, args.session)
    current = {seq for block in session.standing.values() for seq in block.seqs}
    usage_lines = [line for line in UsageLog(Path(args.store) / "requests.jsonl").lines()
                   if line.get("session_id") == args.session]
    snapshots = iter(snapshot_records(records))
    pending = next(snapshots, None)
    turn = 0
    print(f"session {session.session_id} status={session.status.value} "
          f"workspace={session.workspace_root}")
    print(f"routed skills: {', '.join(session.routed_skills) or '(none)'}")
    for event in session.history:
        line = f"{event.seq:>4} {event.kind.value:<20}"
        if event.kind is EventKind.ASSISTANT_MESSAGE:
            usage = usage_lines[turn] if turn < len(usage_lines) else None
            turn += 1
            if usage:
                line += f" [tokens in={usage['input_tokens']} out={usage['output_tokens']}]"
        elif is_standing(event) and event.seq not in current:
            line += " [superseded]"
        line += " " + _brief(event.payload)
        print(line)
        while pending is not None and pending["seq"] <= event.seq:
            phase = pending["state"].get("phase")
            note = f"phase={phase}" if phase else f"{len(pending['state'])} keys"
            print(f"     state[{pending['skill_id']}] {note}")
            pending = next(snapshots, None)
    return 0


def _brief(payload: dict, limit: int = 100) -> str:
    text = json.dumps(payload, sort_keys=True)
    return text if len(text) <= limit else text[: limit - 3] + "..."


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        if args.command == "run":
            return cmd_run(args)
        if args.command == "skills":
            return cmd_skills(args)
        return cmd_trace(args)
    except SkilletError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
