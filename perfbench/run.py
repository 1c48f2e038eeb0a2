#!/usr/bin/env python3
# Copyright (c) 2026 The siri Authors. MIT license.
"""Builds and runs the repo benchmark (see perfbench/README.md).

Run from the root of a checkout:

  python3 perfbench/run.py --workload shared_branch --seed 1 --seconds 10 --trace 0
  python3 perfbench/run.py --self-test

The first run configures and builds perfbench/ (which builds the siri
library from the checkout's own sources) into $CARGO_TARGET_DIR, or
.bench_build when unset; later runs only rebuild what changed. The last
line of standard output is the result object; the exit status is 0 only
when every correctness check passed.
"""

import argparse
import hashlib
import json
import os
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
REPO = os.path.dirname(HERE)
WORKLOADS = ("shared_branch", "read_mostly", "version_ops")
RUN_TIMEOUT_S = 170


def fail(msg, code=2):
    print("perfbench: " + msg, file=sys.stderr)
    sys.exit(code)


def build_dir():
    d = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    return os.path.abspath(os.path.join(REPO, d))


def build(bdir):
    if not (os.path.isfile(os.path.join(REPO, "CMakeLists.txt"))
            and os.path.isdir(os.path.join(REPO, "src"))):
        fail("no siri source tree (CMakeLists.txt and src/) next to perfbench/")
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    steps = []
    if not os.path.isfile(os.path.join(bdir, "CMakeCache.txt")):
        steps.append(["cmake", "-S", HERE, "-B", bdir, "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", bdir, "--target", "perfbench",
                  "perfbench_selftest", "-j", jobs])
    for cmd in steps:
        # Build output goes to stderr: stdout carries only the result.
        if subprocess.call(cmd, stdout=sys.stderr, stderr=sys.stderr) != 0:
            fail("build failed: " + " ".join(cmd))


def source_digest():
    h = hashlib.sha256()
    paths = [os.path.join(REPO, "CMakeLists.txt")]
    for root, dirs, files in os.walk(os.path.join(REPO, "src")):
        dirs.sort()
        paths += [os.path.join(root, f) for f in sorted(files)]
    for p in paths:
        h.update(os.path.relpath(p, REPO).encode())
        with open(p, "rb") as f:
            h.update(f.read())
    return h.hexdigest()[:16]


def git_rev():
    try:
        out = subprocess.run(["git", "-C", REPO, "rev-parse", "HEAD"],
                             capture_output=True, text=True, timeout=10)
        return out.stdout.strip() if out.returncode == 0 else "none"
    except (OSError, subprocess.SubprocessError):
        return "none"


def run_once(bdir, workload, seed, seconds, trace):
    """Runs the benchmark binary; returns (exit code, stdout lines)."""
    work = os.path.join(bdir, "run-%d" % os.getpid())
    shutil.rmtree(work, ignore_errors=True)
    os.makedirs(work)
    cmd = [os.path.join(bdir, "perfbench"), "--workload=" + workload,
           "--seed=%d" % seed, "--seconds=%s" % seconds,
           "--trace=%d" % trace, "--work-dir=" + work,
           "--rev=" + git_rev(), "--src-digest=" + source_digest()]
    proc = subprocess.Popen(cmd, stdout=subprocess.PIPE, text=True)
    try:
        out, _ = proc.communicate(timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.communicate()
        shutil.rmtree(work, ignore_errors=True)
        fail("run exceeded %d s" % RUN_TIMEOUT_S, 3)
    # Keep the traced run's spans; drop the stores.
    spans = os.path.join(bdir, "spans")
    for f in os.listdir(work):
        if f.startswith("spans-"):
            os.makedirs(spans, exist_ok=True)
            os.replace(os.path.join(work, f), os.path.join(spans, f))
    shutil.rmtree(work, ignore_errors=True)
    return proc.returncode, out.splitlines()


def parse_result(lines):
    if not lines:
        return None
    try:
        result = json.loads(lines[-1])
    except ValueError:
        return None
    keys = {"correct", "attempted", "failed", "metrics"}
    return result if isinstance(result, dict) and set(result) == keys else None


def self_test(bdir):
    """Unit-tests the report arithmetic, then smoke-runs every workload
    (untraced and traced) and checks every named metric appears with its
    unit."""
    if subprocess.call([os.path.join(bdir, "perfbench_selftest")]) != 0:
        fail("perfbench_selftest failed", 1)
    with open(os.path.join(REPO, "BENCHMARK.json")) as f:
        spec = json.load(f)
    failures = 0
    # Every workload, including one BENCHMARK.json does not gate, must
    # still print every declared metric.
    for workload in WORKLOADS:
        # A traced run halves its measuring time per execution.
        for trace, section, seconds in ((0, "end_to_end", 2), (1, "per_layer", 4)):
            code, lines = run_once(bdir, workload, 1, seconds, trace)
            result = parse_result(lines)
            problems = []
            if code != 0 or result is None or not result["correct"]:
                problems.append("run failed (exit %d)" % code)
            else:
                got = result["metrics"]
                for m in spec[section]:
                    if m["name"] not in got:
                        problems.append("missing " + m["name"])
                    elif got[m["name"]]["unit"] != m["unit"]:
                        problems.append("unit of " + m["name"])
                extra = set(got) - {m["name"] for m in spec[section]}
                if extra:
                    problems.append("undeclared " + ", ".join(sorted(extra)))
            status = "ok" if not problems else "FAIL: " + "; ".join(problems)
            print("smoke %s trace=%d: %s" % (workload, trace, status))
            failures += bool(problems)
    return 0 if failures == 0 else 1


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", choices=WORKLOADS)
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=10)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--self-test", action="store_true")
    args = ap.parse_args()
    bdir = build_dir()
    build(bdir)
    if args.self_test:
        return self_test(bdir)
    if args.workload is None:
        fail("--workload is required")
    code, lines = run_once(bdir, args.workload, args.seed, args.seconds, args.trace)
    for line in lines:
        print(line)
    sys.stdout.flush()
    if parse_result(lines) is None:
        fail("the benchmark printed no result", code or 4)
    return code


if __name__ == "__main__":
    sys.exit(main())
