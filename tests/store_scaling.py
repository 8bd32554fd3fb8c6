"""Time opening a store of N closed sessions and one open one, and the open
session's first wakeup.

    PYTHONPATH=<checkout>/src python tests/store_scaling.py [N ...]

For each N (100, 1000 and 4000 by default) it runs the canonical plain
repair run (`conftest.canonical_runtime`, single worker), copies its log to
N closed session ids, writes the run's `requests.jsonl` lines once for each
copy (five per session, so 20,000 lines at N = 4000), and submits one
repair task, which stays open. A fresh
process then opens the store and runs the open session's first wakeup, a
scripted `repair_collect_evidence` on the fixture's log, and prints one JSON
line: the open time, the growth of peak RSS (`ru_maxrss`) across the open,
and the wakeup's time. The store is built in a process of its own too, as a
child's `ru_maxrss` starts from its parent's peak. It drives whichever
`skillet` comes first on the path, with the helpers of the conftest.py next
to it; pytest does not collect it.
"""

from __future__ import annotations

import json
import resource
import subprocess
import sys
import tempfile
import time
from pathlib import Path

from conftest import canonical_runtime, evidence_step, submit_repair_task, write_repair_workspace
from skillet import Runtime, ScriptedBackend, SessionStore, SkillRegistry, UsageLog, builtin_skills_dir

SIZES = (100, 1000, 4000)


def registry() -> SkillRegistry:
    loaded = SkillRegistry()
    loaded.load_all(builtin_skills_dir())
    return loaded


def build(tmp: Path, closed: int) -> str:
    """Write the store under `tmp`; the open session's id."""
    ws = tmp / "ws"
    ws.mkdir()
    write_repair_workspace(ws)
    canonical = tmp / "canonical"
    canonical_runtime(registry(), ws, canonical, delegated=False,
                      single_worker=True).run_until_quiescent(25)
    meta, rest = (canonical / "sessions" / "s0001.log").read_bytes().split(b"\n", 1)
    ledger = (canonical / "requests.jsonl").read_bytes()
    sessions = tmp / "store" / "sessions"
    sessions.mkdir(parents=True)
    with open(tmp / "store" / "requests.jsonl", "wb") as requests:
        for i in range(1, closed + 1):
            session_id = f"s{i:04d}"
            own_meta = meta.replace(b'"session_id":"s0001"',
                                    f'"session_id":"{session_id}"'.encode())
            (sessions / f"{session_id}.log").write_bytes(own_meta + b"\n" + rest)
            requests.write(ledger.replace(b'"session_id": "s0001"',
                                          f'"session_id": "{session_id}"'.encode()))
    runtime = Runtime(registry(), SessionStore(tmp / "store"), ScriptedBackend([]),
                      UsageLog(tmp / "store" / "requests.jsonl"))
    return submit_repair_task(runtime, ws).session_id


def measure(store_dir: str, session_id: str) -> dict:
    """Open the store and run one wakeup, in this process."""
    loaded = registry()
    before = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    start = time.perf_counter()
    store = SessionStore(store_dir)
    open_s = time.perf_counter() - start
    grown = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss - before
    backend = ScriptedBackend([evidence_step(log_path="in/fail.log")])
    runtime = Runtime(loaded, store, backend, UsageLog(Path(store_dir) / "requests.jsonl"))
    runtime.queue.enqueue(session_id, "initial")
    start = time.perf_counter()
    runtime.run_wakeup(runtime.queue.pop())
    wakeup_s = time.perf_counter() - start
    return {"open_ms": round(open_s * 1e3, 1), "rss_growth_mb": round(grown / 1024, 1),
            "first_wakeup_ms": round(wakeup_s * 1e3, 2), "sessions": len(store.sessions())}


def main(argv: list[str]) -> int:
    if argv[:1] == ["--build"]:
        print(build(Path(argv[1]), int(argv[2])))
        return 0
    if argv[:1] == ["--measure"]:
        print(json.dumps(measure(argv[1], argv[2])))
        return 0
    for closed in map(int, argv or SIZES):
        with tempfile.TemporaryDirectory() as tmp:
            session_id = self_run("--build", tmp, str(closed)).strip()
            out = self_run("--measure", str(Path(tmp) / "store"), session_id)
        print(json.dumps({"closed": closed, **json.loads(out)}), flush=True)
    return 0


def self_run(*args: str) -> str:
    return subprocess.run([sys.executable, __file__, *args], check=True,
                          capture_output=True, text=True).stdout


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
