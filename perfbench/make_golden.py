"""Record the golden verdicts that run.py checks every invocation against.

Usage: python3 perfbench/make_golden.py [--output PATH]

Runs each invocation of every workload once, untraced, and writes its exit
code and verdict-bearing output: for ``verify`` the case ids, passed flags
and point counts; for ``fuse`` the table and oracle flag; for ``theta`` the
value.  Seeded invocations run at seed 0; the record must not depend on the
seed, and run.py checks every seed against it.  Regenerate it only when a
change to the program is meant to change these verdicts.
"""

from __future__ import annotations

import argparse
import json
import sys

from run import GOLDEN, INVOCATION_TIMEOUT_S, WORKLOADS, cli_argv, observe, run_child


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--output", default=str(GOLDEN))
    args = parser.parse_args()
    golden = {}
    for workload in WORKLOADS.values():
        for template in workload["invocations"]:
            child = run_child(cli_argv(template, 0, traced=False),
                              INVOCATION_TIMEOUT_S)
            golden[template], _ = observe(template, child)
            print(f"exit {child.code}  {child.wall_s:6.2f} s  {template}", file=sys.stderr)
    with open(args.output, "w") as handle:
        handle.write(dump(golden))
    return 0


def dump(golden: dict) -> str:
    """JSON with one line per verify case, so a changed verdict shows as a
    one-line diff."""
    parts = []
    for template, record in golden.items():
        fields = [f'  "{key}": {json.dumps(value)}' for key, value in record.items()
                  if key != "cases"]
        if "cases" in record:
            cases = ",\n".join("   " + json.dumps(case) for case in record["cases"])
            fields.append(f'  "cases": [\n{cases}\n  ]')
        parts.append(f" {json.dumps(template)}: {{\n" + ",\n".join(fields) + "\n }")
    return "{\n" + ",\n".join(parts) + "\n}\n"


if __name__ == "__main__":
    sys.exit(main())
