#!/usr/bin/env python3
"""Compare two sets of benchmark results metric by metric.

    python3 perfbench/compare.py BASE_DIR NEW_DIR

Each directory holds the files run.py wrote to .perfbench/results/ on one
commit.  For every workload, trace setting and metric present on both
sides it prints each side's median over its runs and the ratio new/base.
Results from different row-reduction backends (weitzlab.BACKEND) are not
comparable, so a backend mismatch, within a side or across the two, exits
with code 2 before anything is compared.
"""

import glob
import json
import os
import statistics
import sys


def load(directory: str) -> list[dict]:
    paths = sorted(glob.glob(os.path.join(directory, "*.json")))
    if not paths:
        raise SystemExit(f"error: no results in {directory}")
    records = []
    for path in paths:
        with open(path) as handle:
            records.append(json.load(handle))
    return records


def environments(records: list[dict], key: str) -> set:
    return {r["env"][key] for r in records}


def main(argv: list[str]) -> int:
    if len(argv) != 2:
        print(__doc__.strip(), file=sys.stderr)
        return 2
    base, new = (load(d) for d in argv)
    backends = environments(base, "backend") | environments(new, "backend")
    if len(backends) != 1:
        print(f"error: results come from different backends {sorted(backends)}", file=sys.stderr)
        return 2
    for key in ("python", "cpus"):
        if environments(base, key) != environments(new, key):
            print(f"note: {key} differs: {sorted(environments(base, key))} "
                  f"vs {sorted(environments(new, key))}")
    groups: dict = {}
    for side, records in ((0, base), (1, new)):
        for r in records:
            for name, value in r["metrics"].items():
                key = (r["workload"], r["trace"], name)
                groups.setdefault(key, ([], []))[side].append(value)
    print(f"{'workload':<18} {'metric':<38} {'base':>12} {'new':>12} {'new/base':>9}  runs")
    for (workload, _, name), (b, n) in sorted(groups.items()):
        if not b or not n:
            continue
        mb, mn = statistics.median(b), statistics.median(n)
        ratio = f"{mn / mb:9.3f}" if mb else f"{'-':>9}"
        print(f"{workload:<18} {name:<38} {mb:12.6g} {mn:12.6g} {ratio}  {len(b)}/{len(n)}")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
