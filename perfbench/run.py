#!/usr/bin/env python3
"""The repository's benchmark: one workload run, end to end.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 perfbench/run.py --self-test
    python3 perfbench/run.py --record-reference

Run from the root of a checkout. The first run builds rnoc_perfbench (the
rnoc library from src/ plus the harness in perfbench/src) with CMake into
$CARGO_TARGET_DIR, or .bench_build when that is unset; later runs reuse the
build. The harness writes its caches, socket and span log under
<build dir>/perfbench-work.

Workloads: uniform_mid, fig7_faulted, service_warm (see
perfbench/README.md). The last line of stdout is one JSON object with the
keys correct, attempted, failed and metrics: the end-to-end metrics with
--trace 0, the per-layer metrics of a traced run with --trace 1.
--record-reference rewrites perfbench/reference/sim_stats.txt, the
simulated statistics the simulator workloads' requests must reproduce.
"""

import argparse
import os
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
HERE = os.path.join(ROOT, "perfbench")
WORKLOADS = ("uniform_mid", "fig7_faulted", "service_warm")
RUN_TIMEOUT_S = 170


def fail(msg):
    print(f"perfbench: {msg}", file=sys.stderr)
    sys.exit(1)


def build(build_dir):
    """Configures (once) and builds the harness; returns the binary path."""
    for need in ("src/CMakeLists.txt", "results/golden"):
        if not os.path.exists(os.path.join(ROOT, need)):
            fail(f"{need} is missing: run from a full checkout of the repo")
    jobs = str(min(os.cpu_count() or 1, 4))
    steps = []
    if not os.path.exists(os.path.join(build_dir, "CMakeCache.txt")):
        steps.append(["cmake", "-S", HERE, "-B", build_dir,
                      "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", build_dir, "--target", "rnoc_perfbench",
                  "-j", jobs])
    for cmd in steps:
        # Build output goes to stderr: stdout ends with the result line.
        done = subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr)
        if done.returncode != 0:
            fail(f"build step failed: {' '.join(cmd)}")
    return os.path.join(build_dir, "rnoc_perfbench")


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", choices=WORKLOADS)
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=20)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--self-test", action="store_true",
                    help="check the harness's own statistics code")
    ap.add_argument("--record-reference", action="store_true",
                    help="rewrite the simulator workloads' reference stats")
    opts = ap.parse_args()
    if not (opts.self_test or opts.record_reference) and opts.workload is None:
        ap.error("--workload is required")

    build_dir = os.path.join(
        ROOT, os.environ.get("CARGO_TARGET_DIR") or ".bench_build")
    binary = build(build_dir)
    if opts.self_test:
        cmd = [binary, "--self-test"]
    elif opts.record_reference:
        cmd = [binary, "--record-reference", "--root", ROOT]
    else:
        cmd = [binary, "--workload", opts.workload, "--seed", str(opts.seed),
               "--seconds", str(opts.seconds), "--trace", str(opts.trace),
               "--root", ROOT,
               "--work-dir", os.path.join(build_dir, "perfbench-work")]
    try:
        done = subprocess.run(cmd, timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        fail(f"run exceeded {RUN_TIMEOUT_S} s and was stopped")
    sys.exit(done.returncode)


if __name__ == "__main__":
    main()
