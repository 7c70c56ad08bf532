#!/usr/bin/env bash
# run.sh — build bench_e2e (Release, in build-bench-e2e/) and run it.
#
#   bench/e2e/run.sh [bench_e2e flags]       measure (default: every
#                                            workload, end to end and
#                                            traced)
#   bench/e2e/run.sh --smoke                 50k requests, one op each,
#                                            metric-name and failed-op checks
#   bench/e2e/run.sh compare PARENT CHANGE   regression check of two
#                                            --out result files
#
# One workload, one family of metrics:
#   bench/e2e/run.sh --workload W --seed N --seconds T --trace 0|1
# Build output and the total runtime go to stderr, so the last line of
# stdout is bench_e2e's JSON result.
set -euo pipefail

here="$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)"
root="$(cd "${here}/../.." && pwd)"
build="${root}/build-bench-e2e"
start_ns="$(date +%s%N)"

report_runtime() {
  local status=$? ms=$(( ($(date +%s%N) - start_ns) / 1000000 ))
  printf 'bench/e2e/run.sh: total runtime %d.%03d s (exit %d)\n' \
    $((ms / 1000)) $((ms % 1000)) "${status}" >&2
}
trap report_runtime EXIT

if [[ ! -f "${root}/CMakeLists.txt" || ! -d "${root}/src" ]]; then
  echo "bench/e2e/run.sh: no syrwatch sources at ${root}" >&2
  exit 1
fi

if [[ ! -f "${build}/CMakeCache.txt" ]]; then
  cmake -S "${here}" -B "${build}" >&2
fi
cmake --build "${build}" -j 4 --target bench_e2e >&2

common=(--benchmark "${root}/BENCHMARK.json")
if [[ "${1:-}" == "compare" ]]; then
  "${build}/bench_e2e" "$@" "${common[@]}"
elif [[ "${1:-}" == "--smoke" ]]; then
  shift
  "${build}/bench_e2e" smoke "${common[@]}" --work "${build}/smoke-work" "$@"
else
  sha="$(git -C "${root}" describe --always --dirty 2>/dev/null ||
         echo unknown)"
  "${build}/bench_e2e" --work "${build}/work" --git-sha "${sha}" "$@"
fi
