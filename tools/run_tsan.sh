#!/bin/sh
# Builds the concurrency-sensitive test suites under a sanitizer and runs
# them. The suite list lives in ONE place — tests/CMakeLists.txt, where
# `jecb_add_test(<name> LABELS tsan)` both labels the suite for ctest and
# registers the binary with the `jecb_tsan_tests` aggregate target — so the
# build list and the run list cannot drift, and a missing binary fails the
# build instead of being silently skipped.
#
# Covers the runtime (coordinator, in-process channel, fault injector), the
# open-loop driver (executors claiming arrivals under one mutex), the
# parallel partitioning pipeline (thread pool, chunked Evaluate, parallel
# Combiner search), the fault-injection suites, and the distributed
# runtime (net wire/event-loop suite plus the multi-process socket
# transport — forked shard servers stay single-threaded, so the whole
# 2PC-over-sockets path runs cleanly under both sanitizers).
#
# Usage: tools/run_tsan.sh [build-dir] [sanitizer]
#   build-dir  defaults to build-tsan
#   sanitizer  thread (default) or address — passed to -DJECB_SANITIZE
set -eu

cd "$(dirname "$0")/.."
BUILD_DIR="${1:-build-tsan}"
SANITIZER="${2:-thread}"

cmake -B "$BUILD_DIR" -S . -DJECB_SANITIZE="$SANITIZER" >/dev/null
cmake --build "$BUILD_DIR" --target jecb_tsan_tests -j "$(nproc)"

cd "$BUILD_DIR"
# Guard against label drift: an empty selection would "pass" while running
# nothing, which is exactly the failure mode the old hard-coded list had.
COUNT="$(ctest -L tsan -N | sed -n 's/^Total Tests: *//p')"
if [ -z "$COUNT" ] || [ "$COUNT" -eq 0 ]; then
  echo "error: no tests carry the 'tsan' ctest label" >&2
  exit 1
fi
echo "running $COUNT sanitizer-labeled tests ($SANITIZER)"
# exec replaces the shell, so ctest's exit code IS the script's exit code —
# no trap/wrapper can swallow a sanitizer failure between ctest and CI.
exec ctest --output-on-failure -j "$(nproc)" -L tsan
