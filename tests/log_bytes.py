"""Print the bytes a store's logs hold, per record kind and per wakeup.

    python tests/log_bytes.py <store_dir>

Reads `<store_dir>/sessions/*.log` and `<store_dir>/requests.jsonl` and
prints one row per session-log record kind, then one for the
`requests.jsonl` lines and one for all of them: the record count, the
bytes (each line with its newline) and the bytes per wakeup. A wakeup here
is a model reply, so the count is that of the `assistant_message` records;
a wakeup whose model call failed wrote none and is not counted. A torn
last line is counted under `(torn)`. It needs only the standard library
and writes nothing; pytest does not collect it.
"""

from __future__ import annotations

import json
import sys
from collections import Counter
from pathlib import Path


def tally(lines: list[bytes], kind_of) -> tuple[Counter, Counter]:
    counts: Counter = Counter()
    sizes: Counter = Counter()
    for line in lines:
        try:
            kind = kind_of(json.loads(line))
        except ValueError:
            kind = "(torn)"
        counts[kind] += 1
        sizes[kind] += len(line)
    return counts, sizes


def log_lines(path: Path) -> list[bytes]:
    return path.read_bytes().splitlines(keepends=True) if path.is_file() else []


def main(argv: list[str]) -> int:
    if len(argv) != 1:
        print("usage: log_bytes.py <store_dir>", file=sys.stderr)
        return 1
    store = Path(argv[0])
    logs = sorted((store / "sessions").glob("*.log"))
    if not logs:
        print(f"error: no session logs under {store / 'sessions'}", file=sys.stderr)
        return 1
    counts, sizes = tally([line for path in logs for line in log_lines(path)],
                          lambda record: record.get("kind", "(no kind)"))
    ledger = tally(log_lines(store / "requests.jsonl"), lambda record: "requests.jsonl")
    counts.update(ledger[0])
    sizes.update(ledger[1])
    wakeups = counts["assistant_message"]
    print(f"{len(logs)} session logs, {wakeups} wakeups")
    print(f"{'kind':<24}{'records':>9}{'bytes':>11}{'bytes/wakeup':>14}")
    rows = sorted(sizes, key=lambda kind: (kind == "requests.jsonl", -sizes[kind]))
    for kind in rows + ["total"]:
        count = sum(counts.values()) if kind == "total" else counts[kind]
        size = sum(sizes.values()) if kind == "total" else sizes[kind]
        per = f"{size / wakeups:.1f}" if wakeups else "-"
        print(f"{kind:<24}{count:>9}{size:>11}{per:>14}")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
