#!/usr/bin/env bash
# Copyright (c) 2026 The siri Authors. MIT license.
#
# Runs a fast subset of the per-figure benchmark binaries and emits a
# machine-readable perf trajectory file (BENCH_baseline.json by default).
# Future scaling PRs compare their numbers against this baseline.
#
# Usage:
#   scripts/run_bench.sh [-b BUILD_DIR] [-o OUT_JSON] [-a]
#     -b  build directory containing bench/ binaries (default: build)
#     -o  output JSON path (default: BENCH_baseline.json)
#     -a  run ALL bench binaries instead of the fast subset
#
# Per-bench stdout is kept under BENCH_out/<name>.txt next to the JSON.

set -u

BUILD_DIR=build
OUT=BENCH_baseline.json
ALL=0
while getopts "b:o:a" opt; do
  case "$opt" in
    b) BUILD_DIR=$OPTARG ;;
    o) OUT=$OPTARG ;;
    a) ALL=1 ;;
    *) echo "usage: $0 [-b build_dir] [-o out.json] [-a]" >&2; exit 2 ;;
  esac
done
shift $((OPTIND - 1))
if [ $# -gt 0 ]; then
  # A stray word here is almost always a typo'd option (e.g. `-all`): fail
  # fast instead of silently recording a baseline the caller did not ask
  # for. The bench binaries reject unknown --flags the same way.
  echo "error: unrecognized argument(s): $*" >&2
  echo "usage: $0 [-b build_dir] [-o out.json] [-a]" >&2
  exit 2
fi

BENCH_DIR="$BUILD_DIR/bench"
if [ ! -d "$BENCH_DIR" ]; then
  echo "error: $BENCH_DIR not found — build first:" >&2
  echo "  cmake --preset release && cmake --build --preset release -j" >&2
  exit 1
fi

# The fast subset keeps the whole run around a minute on one core while
# still touching every structure (throughput, diff, height, MBT breakdown,
# parameter sweep) plus the multi-client read-scaling report.
FAST_SUBSET="fig01_motivation fig09_tree_height fig13_mbt_breakdown tab03_parameters fig08_diff fig06_threads fig06_write_scaling fig06_branch_commits fig06_group_commit"

if [ "$ALL" -eq 1 ]; then
  BENCHES=$(cd "$BENCH_DIR" && ls)
else
  BENCHES=$FAST_SUBSET
fi

# Pseudo-benches: logical names that map to a binary plus arguments.
# fig06_threads = the fig06 multi-client read section only, swept at
# 1/2/4/8 client threads (aggregate kops/s + per-structure hit ratios).
# fig06_write_scaling = the fig06 multi-client write section only, swept
# at 1/2/4/8 writer threads (aggregate write kops/s + upload RPCs/commit).
# fig06_branch_commits = the fig06 multi-writer-same-branch contention
# section only: K writers racing one branch via head CAS + merge retry
# (aggregate commits/s + lost head races per commit).
# fig06_group_commit = the group-commit publish pipeline sweep: the same
# contended-branch regime with the combining commit queue off vs on
# (aggregate commits/s, retries/commit, commits-per-fsync).
bench_cmdline() {
  case "$1" in
    fig06_threads)       echo "fig06_ycsb_throughput --threads=1,2,4,8 --threads-only" ;;
    fig06_write_scaling) echo "fig06_ycsb_throughput --write-threads=1,2,4,8 --write-scaling-only" ;;
    fig06_branch_commits) echo "fig06_ycsb_throughput --write-threads=1,2,4 --branch-commits-only" ;;
    fig06_group_commit)  echo "fig06_ycsb_throughput --write-threads=1,2,4,8 --group-commit-only" ;;
    *)                   echo "$1" ;;
  esac
}

# Client/writer thread counts a bench sweeps, recorded in its JSON entry
# so trajectory comparisons know which rows are multi-threaded.
bench_threads() {
  case "$1" in
    fig06_threads)       echo "1,2,4,8" ;;
    fig06_write_scaling) echo "1,2,4,8" ;;
    fig06_branch_commits) echo "1,2,4" ;;
    fig06_group_commit)  echo "1,2,4,8" ;;
    *)                   echo "" ;;
  esac
}

OUT_DIR=$(dirname "$OUT")/BENCH_out
mkdir -p "$OUT_DIR"

TIMEOUT_SECS=${BENCH_TIMEOUT:-600}
GIT_REV=$(git rev-parse --short HEAD 2>/dev/null || echo unknown)
STAMP=$(date -u +%Y-%m-%dT%H:%M:%SZ)

{
  echo "{"
  echo "  \"schema\": \"siri-bench-v1\","
  echo "  \"timestamp\": \"$STAMP\","
  echo "  \"git_rev\": \"$GIT_REV\","
  echo "  \"host\": \"$(uname -srm)\","
  echo "  \"results\": ["
} > "$OUT"

first=1
failed=0
for b in $BENCHES; do
  set -- $(bench_cmdline "$b")
  bin="$BENCH_DIR/$1"
  shift
  [ -x "$bin" ] || continue
  echo "== $b" >&2
  start=$(date +%s)
  if timeout "$TIMEOUT_SECS" "$bin" "$@" > "$OUT_DIR/$b.txt" 2>&1; then
    status=ok
  else
    status=failed
    failed=1
  fi
  secs=$(( $(date +%s) - start ))
  [ $first -eq 1 ] || echo "    ," >> "$OUT"
  first=0
  threads=$(bench_threads "$b")
  # Group-commit trajectory fields: the bench emits machine-readable
  # `#json ... gc=on commits_per_fsync=X ... window_us=Y` lines; record
  # the best (highest-thread-count) commits-per-fsync and the publish
  # window so the BENCH trajectory captures the group-commit win.
  cpf=$(grep -o 'gc=on.*commits_per_fsync=[0-9.]*' "$OUT_DIR/$b.txt" 2>/dev/null \
        | grep -o 'commits_per_fsync=[0-9.]*' | cut -d= -f2 | sort -g | tail -1)
  window=$(grep -o 'window_us=[0-9]*' "$OUT_DIR/$b.txt" 2>/dev/null \
           | head -1 | cut -d= -f2)
  {
    echo "    {"
    echo "      \"bench\": \"$b\","
    echo "      \"status\": \"$status\","
    echo "      \"threads\": \"$threads\","
    [ -n "$cpf" ] && echo "      \"commits_per_fsync\": $cpf,"
    [ -n "$window" ] && echo "      \"publish_window_micros\": $window,"
    echo "      \"wall_seconds\": $secs,"
    echo "      \"output\": \"$OUT_DIR/$b.txt\""
    echo "    }"
  } >> "$OUT"
done

{
  echo "  ]"
  echo "}"
} >> "$OUT"

echo "wrote $OUT" >&2
exit $failed
