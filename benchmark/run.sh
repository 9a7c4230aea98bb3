#!/usr/bin/env bash
# Builds jecb_bench from this checkout (into build-bench/) and runs it.
#
#   bash benchmark/run.sh --workload NAME --seed N --seconds S --trace 0|1
#       One run. Build output goes to stderr; the last line of stdout is the
#       run's JSON result.
#   bash benchmark/run.sh --rounds N
#       N rounds over every workload in BENCHMARK.json, each run in a fresh
#       process for its run_seconds with seed = round number, the workload
#       order rotated every round. Writes one JSON file per run to
#       build-bench/rounds/, then prints the median, Q1 and Q3 of every metric
#       per workload, and exits non-zero when an end-to-end metric's spread
#       (Q3-Q1)/median exceeds its bound (setup_s excepted).
set -euo pipefail

root="$(cd "$(dirname "${BASH_SOURCE[0]}")/.." && pwd)"
build="$root/build-bench"
# The compiler's temporary files stay in the build tree too.
export TMPDIR="$build/tmp"
mkdir -p "$TMPDIR"

cmake -S "$root/benchmark" -B "$build" -DCMAKE_BUILD_TYPE=RelWithDebInfo >&2
cmake --build "$build" -j4 --target jecb_bench >&2

# Not exec: the benchmark reads its children's peak RSS, and an exec'd
# process would inherit this shell's, the compiler's included.
if [[ "${1:-}" != "--rounds" ]]; then
  "$build/jecb_bench" "$@"
  exit
fi

rounds="${2:?usage: run.sh --rounds N}"
mapfile -t spec < <(python3 -c '
import json, sys
spec = json.load(open(sys.argv[1]))
print(spec["run_seconds"])
for w in spec["workloads"]:
    print(w["name"])' "$root/BENCHMARK.json")
seconds="${spec[0]}"
workloads=("${spec[@]:1}")

out="$build/rounds"
rm -rf "$out"
mkdir -p "$out"
for ((r = 1; r <= rounds; r++)); do
  for ((i = 0; i < ${#workloads[@]}; i++)); do
    w="${workloads[$(((i + r) % ${#workloads[@]}))]}"
    echo "round $r/$rounds: $w" >&2
    "$build/jecb_bench" --workload "$w" --seed "$r" --seconds "$seconds" --trace 0 \
      --json "$out/$r-$w.json" >/dev/null
  done
done
exec "$build/jecb_bench" --summarize --spec "$root/BENCHMARK.json" "$out"/*.json
