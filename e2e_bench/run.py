#!/usr/bin/env python3
"""End-to-end benchmark of the S-NIC simulator.

Builds the driver (e2e_bench/CMakeLists.txt, Release) from the sources of
the checkout it sits in, runs one workload and passes its output through;
the last line of standard output is the result JSON.

    python3 e2e_bench/run.py --workload datapath_mix --seed 1 --seconds 10 \
        --trace 0

Workloads: replay_colocation, datapath_mix, tenant_churn, scenario_curated.
--trace 1 reports the per-layer metrics and writes the spans file to
.bench_build/e2e_out/<workload>.spans.jsonl. README.md describes every
metric. Extra flags for the benchmark's own tests: --tiny (small inputs),
--corrupt-oracle (one wrong expectation, so failures must be counted).
"""

import argparse
import hashlib
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKLOADS = ("replay_colocation", "datapath_mix", "tenant_churn",
             "scenario_curated")
RUN_TIMEOUT_S = 170


def fail(message):
    print("e2e_bench: " + message, file=sys.stderr)
    sys.exit(2)


def build_dir():
    base = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    if not os.path.isabs(base):
        base = os.path.join(ROOT, base)
    return os.path.join(base, "snic_e2e")


def build(out):
    cache = os.path.join(out, "CMakeCache.txt")
    if not os.path.exists(cache):
        subprocess.run(["cmake", "-S", HERE, "-B", out,
                        "-DCMAKE_BUILD_TYPE=Release"],
                       stdout=sys.stderr, check=True)
    jobs = str(min(4, os.cpu_count() or 1))
    subprocess.run(["cmake", "--build", out, "-j", jobs],
                   stdout=sys.stderr, check=True)
    return os.path.join(out, "snic_e2e")


def source_identity():
    """The git commit when the checkout is a repository, else a digest of
    the sources the benchmark builds and reads."""
    if os.path.isdir(os.path.join(ROOT, ".git")):
        head = subprocess.run(["git", "-C", ROOT, "rev-parse", "HEAD"],
                              capture_output=True, text=True)
        if head.returncode == 0:
            dirty = subprocess.run(
                ["git", "-C", ROOT, "status", "--porcelain", "--", "src",
                 "bench/scenarios", "e2e_bench"],
                capture_output=True, text=True).stdout.strip()
            return head.stdout.strip() + ("-dirty" if dirty else "")
    digest = hashlib.sha256()
    for top in ("src", os.path.join("bench", "scenarios"), "e2e_bench"):
        for dirpath, dirnames, filenames in os.walk(os.path.join(ROOT, top)):
            dirnames.sort()
            for name in sorted(filenames):
                path = os.path.join(dirpath, name)
                digest.update(os.path.relpath(path, ROOT).encode())
                with open(path, "rb") as f:
                    digest.update(f.read())
    return "src-sha256:" + digest.hexdigest()[:16]


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--tiny", action="store_true")
    parser.add_argument("--corrupt-oracle", action="store_true")
    args = parser.parse_args()

    specs = os.path.join(ROOT, "bench", "scenarios")
    if not os.path.isfile(os.path.join(ROOT, "src", "CMakeLists.txt")) or \
            not os.path.isdir(specs):
        fail("the simulator sources (src/, bench/scenarios/) are not next "
             "to " + HERE)

    out = build_dir()
    binary = build(out)
    spans_dir = os.path.join(os.path.dirname(out), "e2e_out")
    os.makedirs(spans_dir, exist_ok=True)
    command = [binary, "--workload", args.workload,
               "--seed", str(args.seed), "--seconds", str(args.seconds),
               "--trace", str(args.trace), "--out-dir", spans_dir,
               "--specs-dir", specs, "--source", source_identity()]
    if args.tiny:
        command.append("--tiny")
    if args.corrupt_oracle:
        command.append("--corrupt-oracle")
    try:
        result = subprocess.run(command, stdout=subprocess.PIPE, text=True,
                                timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        fail("run exceeded %d s" % RUN_TIMEOUT_S)
    sys.stdout.write(result.stdout)
    sys.stdout.flush()
    sys.exit(result.returncode)


if __name__ == "__main__":
    main()
