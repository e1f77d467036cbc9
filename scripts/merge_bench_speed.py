#!/usr/bin/env python3
"""Merge a cluster_speed run into a BENCH_SPEED.json doc.

The committed BENCH_SPEED.json holds the sim_speed workload records;
cluster_speed writes its own JSON. This script grafts a cluster_speed
result under the top-level key "cluster", so one artifact carries
both, without ever regenerating (and thus churning) the sim_speed
section.

Usage: merge_bench_speed.py BENCH_SPEED.json RUN.json [OUT.json]

OUT.json defaults to rewriting BENCH_SPEED.json in place.
"""

import json
import sys


def main(argv):
    if len(argv) not in (3, 4):
        print(__doc__, file=sys.stderr)
        return 2
    base_path, run_path = argv[1], argv[2]
    out_path = argv[3] if len(argv) == 4 else base_path

    with open(base_path) as f:
        doc = json.load(f)
    with open(run_path) as f:
        run = json.load(f)

    if run.pop("bench", None) != "cluster_speed":
        print(f"{run_path}: not a cluster_speed result", file=sys.stderr)
        return 1
    doc["cluster"] = run

    with open(out_path, "w") as f:
        json.dump(doc, f, indent=2)
        f.write("\n")
    print(f"merged {run_path} (cluster_speed) into {out_path}")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
