#!/usr/bin/env python3
"""Compare a fresh sim_speed run against the committed baseline.

Raw events/sec numbers are machine-dependent, so CI compares the
machine-independent wheel/reference speedup ratio per workload: both
implementations run in the same process on the same host, so their
ratio cancels out CPU speed. The job fails when any workload's ratio
regresses by more than the tolerance (default 15%), i.e. the wheel got
slower relative to the reference heap than the committed record says
it should be.

When CURRENT.json carries a "cluster" section (a cluster_speed run
merged via merge_bench_speed.py), the cluster scaling gate also runs:
the run must report byte-identical fingerprints between worker
counts, and on hosts where parallelism is physically possible
(min(machines, workers, cores) >= 2) the sequential/parallel
wall-clock ratio must clear a core-aware floor of
CLUSTER_FLOOR_FACTOR x that minimum. On a 1-core runner only the
identity check applies — no speedup can exist there.

Usage: check_speed_regression.py BASELINE.json CURRENT.json [tolerance]
"""

import json
import sys

# A conservative fraction of ideal linear scaling: barriers, the
# single-client machine and epoch bookkeeping all steal from it.
CLUSTER_FLOOR_FACTOR = 0.4


def load_doc(path):
    with open(path) as f:
        return json.load(f)


def load_ratios(doc):
    return {w["name"]: w["speedup_events_per_sec"]
            for w in doc["workloads"]}


def check_cluster(cluster):
    """Gate one cluster_speed record; returns True on failure."""
    machines = cluster["machines"]
    workers = cluster["workers"]
    cores = cluster["cores"]
    speedup = cluster["speedup"]
    if not cluster.get("identical", False):
        print("FAIL cluster: fingerprints diverged between worker "
              "counts (determinism bug)")
        return True
    effective = min(machines, workers, cores)
    if effective < 2:
        print(f"skip cluster scaling: min(machines={machines}, "
              f"workers={workers}, cores={cores}) = {effective} < 2, "
              f"no parallelism possible (measured {speedup:.2f}x)")
        return False
    floor = CLUSTER_FLOOR_FACTOR * effective
    status = "ok" if speedup >= floor else "FAIL"
    print(f"{status:4s} cluster: {speedup:.2f}x speedup at "
          f"{machines} machines / {workers} workers / {cores} cores "
          f"(floor {floor:.2f}x)")
    return status == "FAIL"


def main(argv):
    if len(argv) not in (3, 4):
        print(__doc__, file=sys.stderr)
        return 2
    tolerance = float(argv[3]) if len(argv) == 4 else 0.15
    current_doc = load_doc(argv[2])
    baseline = load_ratios(load_doc(argv[1]))
    current = load_ratios(current_doc)

    failed = []
    for name, base in sorted(baseline.items()):
        if name not in current:
            print(f"FAIL {name}: missing from current run")
            failed.append(name)
            continue
        cur = current[name]
        floor = base * (1.0 - tolerance)
        status = "ok"
        if cur < floor:
            status = "FAIL"
            failed.append(name)
        print(f"{status:4s} {name}: speedup {cur:.2f}x vs baseline "
              f"{base:.2f}x (floor {floor:.2f}x)")
    for name in sorted(set(current) - set(baseline)):
        print(f"note {name}: not in baseline ({current[name]:.2f}x)")

    if "cluster" in current_doc and check_cluster(current_doc["cluster"]):
        failed.append("cluster")

    if failed:
        print(f"speed gate failed on {', '.join(failed)} "
              "(see the FAIL lines above)", file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
