"""Write the logs of the canonical runs, so that two versions of skillet can
be compared byte for byte.

    PYTHONPATH=<checkout>/src python tests/canonical_logs.py <out_dir>

Runs the canonical plain and delegated runs (`conftest.canonical_runtime`)
in both drain modes, each in a fresh workspace and store, and writes
`<out_dir>/<plain|delegated>-<single|threaded>/`: the session logs under
`sessions/`, each session's `skillet trace` output under `traces/`, each
request the backend received under `requests/<session>.jsonl` (one line per
request: its messages and the names of its tools), and `requests.jsonl`
without its `ts_us` field. The workspace path is replaced by
`<workspace>`, so outputs made in any directories compare with `diff -r`.
It drives whichever `skillet` comes first on the path, with the helpers of
the conftest.py next to it; pytest does not collect it.
"""

from __future__ import annotations

import io
import json
import sys
import tempfile
from contextlib import redirect_stdout
from pathlib import Path

from conftest import canonical_runtime, write_repair_workspace
from skillet import SkillRegistry, builtin_skills_dir
from skillet.cli import main as skillet_main

PLACEHOLDER = b"<workspace>"


def write_run(registry, out: Path, delegated: bool, single_worker: bool) -> None:
    with tempfile.TemporaryDirectory() as tmp:
        ws = Path(tmp) / "ws"
        ws.mkdir()
        write_repair_workspace(ws)
        store_dir = Path(tmp) / "store"
        runtime = canonical_runtime(registry, ws, store_dir, delegated=delegated,
                                    single_worker=single_worker)
        received: dict[str, list[bytes]] = {}
        complete = runtime.backend.complete

        def record(request):
            received.setdefault(request.session_id, []).append(json.dumps({
                "messages": request.messages,
                "tools": [tool.name for tool in request.tools],
            }, sort_keys=True).encode() + b"\n")
            return complete(request)

        runtime.backend.complete = record
        runtime.run_until_quiescent(25)
        root = str(ws.resolve()).encode()
        (out / "sessions").mkdir(parents=True)
        (out / "traces").mkdir()
        (out / "requests").mkdir()
        for session_id, lines in received.items():
            (out / "requests" / f"{session_id}.jsonl").write_bytes(
                b"".join(lines).replace(root, PLACEHOLDER))
        for log in sorted((store_dir / "sessions").glob("*.log")):
            (out / "sessions" / log.name).write_bytes(
                log.read_bytes().replace(root, PLACEHOLDER))
            trace = io.StringIO()
            with redirect_stdout(trace):
                skillet_main(["trace", "--store", str(store_dir), "--session", log.stem])
            (out / "traces" / f"{log.stem}.txt").write_bytes(
                trace.getvalue().encode().replace(root, PLACEHOLDER))
        lines = []
        for line in (store_dir / "requests.jsonl").read_text().splitlines():
            record = json.loads(line)
            del record["ts_us"]
            lines.append(json.dumps(record, sort_keys=True) + "\n")
        (out / "requests.jsonl").write_text("".join(lines))


def main(argv: list[str]) -> int:
    if len(argv) != 1:
        print("usage: canonical_logs.py <out_dir>", file=sys.stderr)
        return 1
    out_dir = Path(argv[0])
    registry = SkillRegistry()
    registry.load_all(builtin_skills_dir())
    for delegated in (False, True):
        for single_worker in (True, False):
            name = (f"{'delegated' if delegated else 'plain'}-"
                    f"{'single' if single_worker else 'threaded'}")
            write_run(registry, out_dir / name, delegated, single_worker)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
