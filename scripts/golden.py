#!/usr/bin/env python3
"""Golden-output oracle: the deterministic benches must stay byte-identical.

Runs every deterministic bench in build/bench (all but the host-timing
sim_speed, cluster_speed and primitives_gbench) and hashes its stdout,
its --json and --metrics exports and, for the benches whose traces pin
the order of the nested trap stages, every --trace file. The hashes are
compared against the committed GOLDEN.sha256.

A refactor that claims "same simulated bytes" passes this check with no
GOLDEN.sha256 change. A deliberate behaviour change re-records it with
--update, and the diff of GOLDEN.sha256 names every output it moved.

The hashes hold for one toolchain only. The benches draw random samples
through libm (std::log, std::exp, std::pow), whose results may differ
with the compiler, the C library and the CPU's FMA support, so
GOLDEN.sha256 records the toolchain it was made with in its header.

Usage: golden.py [--update]

Exits 0 when every hash matches, 1 naming each output that differs
(or is missing / new), 2 on usage errors or a failing bench, and 77
(no verdict) when outputs differ on a toolchain other than the
recorded one.
"""

import hashlib
import os
import platform
import subprocess
import sys
import tempfile

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
BENCH_DIR = os.path.join(ROOT, "build", "bench")
GOLDEN = os.path.join(ROOT, "GOLDEN.sha256")
TOOLCHAIN_TAG = "# toolchain: "
# No verdict: the outputs differ, but so does the toolchain.
EXIT_FOREIGN_TOOLCHAIN = 77

# bench -> (extra flags, whether its --trace files are hashed). The
# traced three cover the nested, sw-svt, hw-svt, multiplexed and
# direct-reflect trap rounds between them.
BENCHES = {
    "ablation_bypass": ([], True),
    "ablation_contexts": ([], True),
    "ablation_housekeeping": ([], False),
    "ablation_shadowing": ([], False),
    "channel_micro": ([], False),
    "exit_elision": (["--quick"], False),
    "fig10_video": ([], False),
    "fig6_cpuid": ([], True),
    "fig7_io": ([], False),
    "fig8_memcached": ([], False),
    "fig9_tpcc": ([], False),
    "fleet_scale": (["--quick"], False),
    "table1_breakdown": ([], False),
}


def sha256(path):
    with open(path, "rb") as f:
        return hashlib.sha256(f.read()).hexdigest()


def run_bench(name, flags, traced, work):
    """Run one bench in @p work; return {output name: sha256}."""
    trace_dir = os.path.join(work, "trace")
    cmd = [os.path.join(BENCH_DIR, name), "--jobs=4", *flags,
           "--json=" + os.path.join(work, "json"),
           "--metrics=" + os.path.join(work, "metrics")]
    if traced:
        os.mkdir(trace_dir)
        cmd.append("--trace=" + os.path.join(trace_dir, "t.json"))
    with open(os.path.join(work, "stdout"), "wb") as out:
        rc = subprocess.run(cmd, stdout=out,
                            stderr=subprocess.DEVNULL).returncode
    if rc != 0:
        raise RuntimeError(f"{name} exited {rc}")
    hashes = {f"{name}/{part}": sha256(os.path.join(work, part))
              for part in ("stdout", "json", "metrics")}
    if traced:
        for f in sorted(os.listdir(trace_dir)):
            hashes[f"{name}/trace/{f}"] = sha256(os.path.join(trace_dir, f))
    return hashes


def toolchain():
    """The compiler, C library and CPU features build/bench came from."""
    cxx = "unknown compiler"
    try:
        with open(os.path.join(ROOT, "build", "CMakeCache.txt")) as f:
            for line in f:
                if line.startswith("CMAKE_CXX_COMPILER:"):
                    path = line.split("=", 1)[1].strip()
                    out = subprocess.run([path, "--version"],
                                         capture_output=True, text=True)
                    cxx = out.stdout.splitlines()[0]
                    break
    except (OSError, IndexError):
        pass
    libc = " ".join(platform.libc_ver()).strip() or "unknown libc"
    flags = set()
    try:
        with open("/proc/cpuinfo") as f:
            for line in f:
                if line.startswith("flags"):
                    flags = set(line.split(":", 1)[1].split())
                    break
    except OSError:
        pass
    fma = "fma+avx2" if {"fma", "avx2"} <= flags else "no fma+avx2"
    return f"{cxx}; {libc}; {platform.machine()} {fma}"


def load_golden():
    """@return ({output name: sha256}, recorded toolchain or None)."""
    golden, recorded = {}, None
    with open(GOLDEN) as f:
        for line in f:
            if line.startswith(TOOLCHAIN_TAG):
                recorded = line[len(TOOLCHAIN_TAG):].strip()
            elif not line.startswith("#"):
                digest, name = line.split()
                golden[name] = digest
    return golden, recorded


def main(argv):
    if argv[1:] not in ([], ["--update"]):
        print(__doc__, file=sys.stderr)
        return 2
    current = {}
    try:
        for name, (flags, traced) in BENCHES.items():
            with tempfile.TemporaryDirectory() as work:
                current.update(run_bench(name, flags, traced, work))
    except (OSError, RuntimeError) as e:
        print(f"golden: {e}", file=sys.stderr)
        return 2

    if argv[1:] == ["--update"]:
        with open(GOLDEN, "w") as f:
            f.write(f"{TOOLCHAIN_TAG}{toolchain()}\n"
                    "# The hashes hold for this toolchain only: see "
                    "scripts/golden.py.\n")
            for name in sorted(current):
                f.write(f"{current[name]}  {name}\n")
        print(f"golden: recorded {len(current)} outputs in {GOLDEN}")
        return 0

    try:
        golden, recorded = load_golden()
    except (OSError, ValueError) as e:
        print(f"golden: cannot read {GOLDEN}: {e}", file=sys.stderr)
        return 2
    bad = sorted(n for n in golden.keys() | current.keys()
                 if golden.get(n) != current.get(n))
    for name in bad:
        state = ("missing" if name not in current else
                 "new" if name not in golden else "differs")
        print(f"golden: {name} {state}")
    here = toolchain()
    if bad:
        print(f"golden: {len(bad)} of {len(golden)} outputs changed")
        if here != recorded:
            print(f"golden: no verdict: recorded with {recorded},\n"
                  f"        this build is {here}")
            return EXIT_FOREIGN_TOOLCHAIN
        return 1
    print(f"golden: all {len(golden)} outputs match")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
