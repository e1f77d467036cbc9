#!/usr/bin/env python3
"""Build and run the svtsim host-speed benchmark.

    python3 hostbench/run.py --workload W --seed N --seconds S --trace 0|1

Run from the repository root (any directory works; paths are resolved
from this file). The first run configures and builds hostbench/ into
.bench_build/ (Release). Each run prints a short summary, then as its
last stdout line one JSON object:

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

With --trace 0 the metrics are BENCHMARK.json's end_to_end metrics,
with --trace 1 its per_layer metrics. The full record (fingerprint,
host record, every metric) goes to .bench_out/. A fingerprint that
differs from the one committed in hostbench/expected.json for this
workload, size and seed fails the run (exit 1).

    python3 hostbench/run.py --record-expected --size full --seeds 0-3

re-records expected fingerprints (after a change that is meant to move
the simulated results).
"""

import argparse
import hashlib
import json
import os
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
BUILD = ROOT / ".bench_build"
OUT = ROOT / ".bench_out"
BINARY = BUILD / "hostbench"
EXPECTED = HERE / "expected.json"
SPEC = ROOT / "BENCHMARK.json"
WORKLOADS = ["trap_rounds", "disk_rw", "memcached_rpc", "fleet_mix"]
# Leave room under the 180 s budget of one run.
RUN_TIMEOUT_S = 170
BUILD_TIMEOUT_S = 850


def fail(msg, code=2):
    print(f"run.py: {msg}", file=sys.stderr)
    sys.exit(code)


def run_checked(cmd, timeout):
    """Run cmd with stdout sent to stderr; kill it on timeout."""
    proc = subprocess.Popen(cmd, stdout=sys.stderr, stderr=sys.stderr)
    try:
        return proc.wait(timeout=timeout)
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.wait()
        fail(f"timed out: {' '.join(map(str, cmd))}")


def build():
    if not (ROOT / "src").is_dir():
        fail(f"no simulator sources at {ROOT / 'src'}")
    start = time.monotonic()
    if not (BUILD / "CMakeCache.txt").exists():
        if run_checked(["cmake", "-S", str(HERE), "-B", str(BUILD),
                        "-DCMAKE_BUILD_TYPE=Release"],
                       BUILD_TIMEOUT_S) != 0:
            fail("cmake configure failed")
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    left = BUILD_TIMEOUT_S - (time.monotonic() - start)
    if run_checked(["cmake", "--build", str(BUILD), "-j", jobs],
                   max(left, 1)) != 0:
        fail("build failed")


def source_digest():
    """sha256 over the simulator and benchmark sources (identifies the
    code when the checkout is not a git repository)."""
    h = hashlib.sha256()
    for base in (ROOT / "src", HERE):
        for p in sorted(base.rglob("*")):
            if p.is_file() and p.suffix in (".cc", ".h", ".txt", ".py"):
                h.update(str(p.relative_to(ROOT)).encode())
                h.update(p.read_bytes())
    return h.hexdigest()


def git_commit():
    try:
        out = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                             capture_output=True, text=True, timeout=10)
        return out.stdout.strip() if out.returncode == 0 else None
    except (OSError, subprocess.TimeoutExpired):
        return None


def run_binary(args, timeout=RUN_TIMEOUT_S):
    cmd = [str(BINARY)] + [str(a) for a in args]
    proc = subprocess.Popen(cmd, stdout=subprocess.PIPE, stderr=sys.stderr,
                            text=True)
    try:
        out, _ = proc.communicate(timeout=timeout)
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.communicate()
        fail(f"timed out: {' '.join(cmd)}")
    lines = out.strip().splitlines()
    if proc.returncode != 0 or not lines:
        fail(f"hostbench exited {proc.returncode}")
    return json.loads(lines[-1])


def load_expected(path):
    return json.loads(path.read_text()) if path.exists() else {}


def parse_seeds(text):
    seeds = []
    for part in text.split(","):
        lo, _, hi = part.partition("-")
        seeds.extend(range(int(lo), int(hi or lo) + 1))
    return seeds


def record_expected(args):
    expected = load_expected(EXPECTED)
    table = expected.setdefault(args.size, {})
    names = [args.workload] if args.workload else WORKLOADS
    for name in names:
        for seed in parse_seeds(args.seeds):
            rec = run_binary(["--workload", name, "--seed", seed,
                              "--size", args.size, "--rounds", 1])
            if not rec["correct"]:
                fail(f"{name} seed {seed}: run not correct", 1)
            table.setdefault(name, {})[str(seed)] = rec["fingerprint"]
            print(f"{name} seed {seed}: {rec['fingerprint']}",
                  file=sys.stderr)
    for name in table:
        table[name] = dict(sorted(table[name].items(),
                                  key=lambda kv: int(kv[0])))
    EXPECTED.write_text(json.dumps(expected, indent=1) + "\n")


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", choices=WORKLOADS)
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=10)
    ap.add_argument("--trace", type=int, choices=[0, 1], default=0)
    ap.add_argument("--size", choices=["full", "tiny"], default="full")
    ap.add_argument("--rounds", type=int, default=0,
                    help="fixed round count instead of --seconds")
    ap.add_argument("--record-expected", action="store_true")
    ap.add_argument("--seeds", default="1", help="for --record-expected")
    args = ap.parse_args()

    build()
    if args.record_expected:
        record_expected(args)
        return 0
    if not args.workload:
        fail("--workload is required")

    OUT.mkdir(exist_ok=True)
    stem = f"{args.workload}-{args.size}-seed{args.seed}-trace{args.trace}"
    bin_args = ["--workload", args.workload, "--seed", args.seed,
                "--seconds", args.seconds, "--trace", args.trace,
                "--size", args.size, "--rounds", args.rounds]
    if args.trace:
        bin_args += ["--trace-out", OUT / f"{stem}.trace.json"]
    rec = run_binary(bin_args)

    spec = json.loads(SPEC.read_text())
    wanted = spec["per_layer" if args.trace else "end_to_end"]
    correct = bool(rec["correct"])
    metrics = {}
    for m in wanted:
        got = rec["metrics"].get(m["name"])
        if got is None or got["unit"] != m["unit"]:
            print(f"run.py: metric {m['name']} missing or not in "
                  f"{m['unit']}", file=sys.stderr)
            correct = False
            continue
        metrics[m["name"]] = got

    want_fp = load_expected(EXPECTED).get(args.size, {}) \
        .get(args.workload, {}).get(str(args.seed))
    if want_fp is None:
        fp_status = "unrecorded seed: rounds agree with each other"
    elif want_fp == rec["fingerprint"]:
        fp_status = "matches expected.json"
    else:
        fp_status = f"MISMATCH, expected {want_fp}"
        correct = False

    rec["host"]["git_commit"] = git_commit()
    rec["host"]["source_sha256"] = source_digest()
    rec["fingerprint_check"] = fp_status
    (OUT / f"{stem}.json").write_text(json.dumps(rec, indent=1) + "\n")

    print(f"{args.workload} seed {args.seed}: {rec['rounds']} rounds"
          f" + {rec['traced_rounds']} traced, fingerprint"
          f" {rec['fingerprint']} ({fp_status}), fail_frac"
          f" {rec['fail_frac']}, pinned to CPUs {rec['host']['affinity']},"
          f" {len(rec['layer_sources'])} per-layer metrics borrowed from"
          f" other workloads' probes")
    failed = rec["failed"]
    if not correct and failed == 0:
        failed = 1  # a missing metric or a fingerprint mismatch
    print(json.dumps({"correct": correct,
                      "attempted": max(rec["attempted"], failed, 1),
                      "failed": failed,
                      "metrics": metrics}))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
