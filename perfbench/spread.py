"""Run-to-run spread of the end-to-end metrics.

Runs `run.py` once per seed and set, alternating the sets (set A seed 1,
set B seed 1, set A seed 2, ...), and prints for each set and metric the
median, the quartiles and the quartile distance as a share of the median,
then the shift of set B's median against set A's; each set's line also
gives the range of its runs' speed factors. Run from the root of a
skillet checkout:

    python3 perfbench/spread.py --workload model_latency --seeds 10 --sets 2

Add `--json FILE` to keep every run's result.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

RUN = Path(__file__).resolve().parent / "run.py"


def one_run(workload: str, seed: int, seconds: float) -> dict:
    out = subprocess.run(
        [sys.executable, str(RUN), "--workload", workload, "--seed", str(seed),
         "--seconds", str(seconds), "--trace", "0"],
        capture_output=True, text=True, check=True, timeout=600)
    lines = out.stdout.strip().splitlines()
    result = json.loads(lines[-1])
    result["speed_factor"] = next(float(line.split()[3]) for line in lines
                                  if line.startswith("# speed factor"))
    return result


def summary(results: list[dict]) -> dict[str, tuple[float, float, float]]:
    out = {}
    for name in results[0]["metrics"]:
        values = [r["metrics"][name]["value"] for r in results]
        q1, median, q3 = statistics.quantiles(values, n=4)
        out[name] = (median, q1, q3)
    return out


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seeds", type=int, default=10)
    parser.add_argument("--sets", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=55)
    parser.add_argument("--json", help="write every run's result to this file")
    args = parser.parse_args()

    sets: list[list[dict]] = [[] for _ in range(args.sets)]
    for seed in range(1, args.seeds + 1):
        for results in sets:
            results.append(one_run(args.workload, seed, args.seconds))
    if args.json:
        Path(args.json).write_text(json.dumps(sets, indent=1))

    summaries = [summary(results) for results in sets]
    for i, (results, summ) in enumerate(zip(sets, summaries)):
        shares = {(r["failed"], r["attempted"]) for r in results}
        correct = all(r["correct"] for r in results)
        speeds = [r["speed_factor"] for r in results]
        print(f"{args.workload} set {'AB'[i] if i < 2 else i}: correct={correct} "
              f"failed/attempted={sorted(shares)} "
              f"speed factors {min(speeds):.2f} to {max(speeds):.2f}")
        for name, (median, q1, q3) in summ.items():
            print(f"  {name:24s} median {median:12.4f}  q1 {q1:12.4f}  q3 {q3:12.4f}  "
                  f"spread {(q3 - q1) / median:7.2%}")
    if len(summaries) > 1:
        print(f"{args.workload} set B median against set A:")
        for name, (median_a, _, _) in summaries[0].items():
            print(f"  {name:24s} {summaries[1][name][0] / median_a - 1:+7.2%}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
