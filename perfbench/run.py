"""Runtime benchmark for skillet: one workload per invocation.

Run from the root of a skillet checkout:

    python3 perfbench/run.py --workload fanout --seed 1 --seconds 20 --trace 0

The program is imported from the checkout's own `src/`. The run builds its
inputs from --seed, discards one warm-up round, then runs whole rounds until
--seconds are used up, checks every round's outputs, and prints one line per
metric followed by a JSON object as the last line of standard output:
`correct`, `attempted` and `failed` (root tasks), and `metrics`, which are
the end-to-end metrics with --trace 0 and the per-layer metrics with
--trace 1. Stores and workspaces live under `.perfbench/` in the checkout
and are removed at the end; a traced run leaves its spans in
`.perfbench/trace-<workload>.jsonl`.
"""

from __future__ import annotations

import argparse
import json
import resource
import shutil
import statistics
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"

END_TO_END_UNITS = {
    "setup_s": "s",
    "wakeup_ms_p50": "ms",
    "wakeup_ms_p90": "ms",
    "sessions_per_s": "1/s",
    "task_ms_p50": "ms",
    "input_tokens_per_task": "tokens",
    "written_kb_per_wakeup": "KB",
    "peak_rss_mb": "MB",
}


def layer_unit(name: str) -> str:
    for suffix, unit in (("_ms", "ms"), ("_us", "us"), ("_kchars", "kchar"),
                         ("_ratio", "ratio"), ("_ms_p50", "ms")):
        if name.endswith(suffix):
            return unit
    return "count"


def import_skillet() -> None:
    """Put the checkout's src/ first on the path; refuse any other copy."""
    package = SRC / "skillet"
    if not (package / "__init__.py").is_file():
        sys.exit(f"error: {package} not found; run from the root of a skillet checkout")
    sys.path.insert(0, str(SRC))
    import skillet

    if Path(skillet.__file__).resolve().parent != package:
        sys.exit(f"error: imported skillet from {skillet.__file__}, not {package}")


def parse_args(argv: list[str] | None = None) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True,
                        choices=["fanout", "long_history", "delegated_repair", "model_latency"])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True,
                        help="time budget of the measured rounds")
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    parser.add_argument("--size", type=int,
                        help="one-off scaling: tasks per round (fanout, model_latency, "
                             "delegated_repair) or turns before the resume (long_history)")
    return parser.parse_args(argv)


def main(argv: list[str] | None = None) -> int:
    args = parse_args(argv)
    import_skillet()
    from probe import Patches, Tracer, WakeupLog, clock, layer_metrics
    from workloads import WORKLOADS, metrics, speed

    out_dir = ROOT / ".perfbench"
    out_dir.mkdir(exist_ok=True)
    work_dir = Path(tempfile.mkdtemp(prefix=f"{args.workload}-", dir=out_dir))
    patches = Patches()
    log = WakeupLog()
    log.install(patches)
    workload_cls = WORKLOADS[args.workload]
    tracer = None
    if args.trace:
        tracer = Tracer()
        tracer.install(patches, workload_cls.backend_owner)
    workload = workload_cls(args.seed, work_dir, log, args.size)
    if tracer is not None:
        workload.unmeasured = tracer.unmeasured
    try:
        workload.prepare()
        workload.warm_up()
        if tracer is not None:
            tracer.measuring = True
        # whole rounds only; stop before a round that would end past --seconds
        rounds, took = [], []
        start = clock()
        while not rounds or clock() - start + statistics.mean(took) <= args.seconds:
            began = clock()
            rounds.append(workload.round())
            took.append(clock() - began)
        if tracer is not None:
            tracer.measuring = False
    finally:
        patches.restore()
        shutil.rmtree(work_dir, ignore_errors=True)

    attempted = sum(r.attempted for r in rounds)
    failed = sum(r.failed for r in rounds)
    problems = [p for r in rounds for p in r.problems]
    end_to_end = metrics(rounds)
    if tracer is None:
        values = dict(end_to_end,
                      peak_rss_mb=resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024)
        units = END_TO_END_UNITS
    else:
        values = layer_metrics(tracer, attempted)
        values["trace.wakeup_ms_p50"] = end_to_end["wakeup_ms_p50"]
        values["trace.speed_ratio"] = statistics.median(speed(r) for r in rounds)
        units = {name: layer_unit(name) for name in values}
        tracer.write(out_dir / f"trace-{args.workload}.jsonl")

    for problem in problems[:20]:
        print(f"problem: {problem}", file=sys.stderr)
    wakeups = sum(len(r.wakeups) for r in rounds)
    print(f"# {args.workload} seed={args.seed} rounds={len(rounds)} wakeups={wakeups} "
          f"tasks attempted={attempted} failed={failed} problems={len(problems)}")
    print(f"# speed factor {statistics.median(speed(r) for r in rounds):.4f} "
          f"(median over rounds); times as the clock read them: " + " ".join(
              f"{name}={value:.4f}" for name, value in metrics(rounds, calibrated=False).items()))
    for name, value in values.items():
        print(f"{name:40s} {value:14.4f} {units[name]}")
    print(json.dumps({
        "correct": not problems,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": units[name]} for name, value in values.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
