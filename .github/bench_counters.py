#!/usr/bin/env python3
"""Zero-tolerance gate on the deterministic counters of `go run -C benchmark .`.

usage: bench_counters.py check|update RESULT.json [EXPECTED.json]

EXPECTED (default: bench-counters.json beside this script) maps workload ->
metric -> value. Its keys are the gated set: only counters that two runs of
one commit reproduce bit for bit belong there, never a timing. `check` exits 1
when a gated value differs from RESULT or is missing from it. `update`
rewrites EXPECTED's values from RESULT, keeping its keys: to gate one more
metric, add its key with any value and run `update`.
"""
import json
import os
import sys

# Integer-stable only: the fraction is a handful of allocations per run (pool
# refills after a GC) over its query count, and differs from run to run.
ROUNDED = {"allocs_per_query"}


def measured(result, workload, metric):
    w = result["workloads"].get(workload, {})
    v = w.get("end_to_end", {}).get(metric, {}).get("value")
    if v is None:
        v = w.get("per_layer", {}).get(metric)
    return round(v) if v is not None and metric in ROUNDED else v


def main(argv):
    if len(argv) not in (3, 4) or argv[1] not in ("check", "update"):
        sys.exit(__doc__)
    update = argv[1] == "update"
    here = os.path.dirname(os.path.abspath(__file__))
    path = argv[3] if len(argv) == 4 else os.path.join(here, "bench-counters.json")
    with open(argv[2]) as f:
        result = json.load(f)
    with open(path) as f:
        expected = json.load(f)
    bad = total = 0
    for workload, metrics in expected.items():
        for metric, want in metrics.items():
            total += 1
            got = measured(result, workload, metric)
            if got is None or (got != want and not update):
                bad += 1
                print(f"{workload} {metric}: expected {want!r}, measured {got!r}", file=sys.stderr)
            metrics[metric] = got  # what `update` writes back
    if bad:
        sys.exit(f"bench_counters: {bad} of {total} gated counters missing or different")
    if update:
        with open(path, "w") as f:
            json.dump(expected, f, indent=2)
            f.write("\n")
    print(f"bench_counters: {total} gated counters {'written' if update else 'identical'}")


if __name__ == "__main__":
    main(sys.argv)
