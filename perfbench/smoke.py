"""Smoke test of the benchmark itself.

Usage: python3 perfbench/smoke.py [--seed N]

1. Runs every workload once (one pass, ``--seconds 1``) with ``--trace 0``
   and with ``--trace 1``.  Each run must exit 0, report ``correct`` with no
   failed invocation, and print exactly the metrics that ``BENCHMARK.json``
   lists for that mode, each with its listed unit.  ``residual_headroom``
   must stay above 3 decades, both as reported and at the run's own seed,
   so a second seed shows that later claims hold on inputs not used while
   writing them.
2. Copies ``golden.json`` with one point count raised by one, runs the
   ``theta`` workload against the copy, and requires a non-zero exit with
   failed invocations, so a run that checks fewer points than recorded
   cannot pass.

Exits 1 if any check fails.
"""

from __future__ import annotations

import argparse
import json
import re
import subprocess
import sys
import tempfile
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
MIN_HEADROOM = 3.0
SEED_HEADROOM = re.compile(r"^residual_headroom at --seed \d+: (\S+) decades$", re.M)


def bench(workload: str, seed: int, trace: int, *extra) -> tuple[int, dict, str]:
    argv = [sys.executable, str(HERE / "run.py"), "--workload", workload,
            "--seed", str(seed), "--seconds", "1", "--trace", str(trace), *extra]
    proc = subprocess.run(argv, capture_output=True, text=True, cwd=ROOT, timeout=180)
    lines = proc.stdout.splitlines()
    return proc.returncode, json.loads(lines[-1]) if lines else {}, proc.stdout


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--seed", type=int, default=1)
    args = parser.parse_args()
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    expected = {
        0: {m["name"]: m["unit"] for m in spec["end_to_end"]},
        1: {m["name"]: m["unit"] for m in spec["per_layer"]},
    }
    problems = []

    for workload in (w["name"] for w in spec["workloads"]):
        for trace in (0, 1):
            code, result, stdout = bench(workload, args.seed, trace)
            label = f"{workload} trace={trace} seed={args.seed}"
            metrics = result.get("metrics", {})
            units = {name: m["unit"] for name, m in metrics.items()}
            if code != 0 or not result.get("correct") or result.get("failed") != 0:
                problems.append(f"{label}: exit {code}, result {result}")
            if units != expected[trace]:
                problems.append(f"{label}: metrics/units {units} != {expected[trace]}")
            if trace == 0:
                # Both the reported headroom and the one at this run's seed.
                rooms = [metrics.get("residual_headroom", {}).get("value", 0.0)]
                rooms += [float(x) for x in SEED_HEADROOM.findall(stdout)]
                if len(rooms) != 2 or min(rooms) <= MIN_HEADROOM:
                    problems.append(f"{label}: residual_headroom {rooms}, need > {MIN_HEADROOM}")
            print(f"{label}: exit {code}, attempted {result.get('attempted')}, "
                  f"failed {result.get('failed')}", flush=True)

    golden = json.loads((HERE / "golden.json").read_text())
    golden["verify A3 --k 1 --suite theta"]["cases"][0][2] += 1
    with tempfile.TemporaryDirectory(dir=ROOT, prefix=".perfbench-") as scratch:
        wrong = Path(scratch) / "golden.json"
        wrong.write_text(json.dumps(golden))
        code, result, _ = bench("theta", args.seed, 0, "--golden", str(wrong))
    share = result.get("metrics", {}).get("passed_share", {}).get("value")
    if code == 0 or result.get("failed", 0) == 0 or share is None or share >= 1.0:
        problems.append(f"wrong golden entry not caught: exit {code}, result {result}")
    print(f"theta with a wrong golden entry: exit {code}, failed {result.get('failed')}")

    for problem in problems:
        print("FAIL", problem)
    print("smoke test", "failed" if problems else "passed")
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
