#!/usr/bin/env bash
# ci-bench-baseline.sh — build the Release tree and record the benchmark
# baselines the storage and analysis layers are held to:
#
#   bench_colfmt_scan        -> BENCH_colfmt.json
#   bench_analyzer_matrix    -> BENCH_analysis.json
#   bench_stream_sketch      -> BENCH_stream.json
#
# Each JSON file is google-benchmark's machine-readable output; the colfmt
# baseline carries the CSV-vs-SYRCOL1 scan timings behind the size and
# speedup budgets in EXPERIMENTS.md, and the analysis baseline the
# analyzer-matrix (backend x threads) timings behind the scan layer's
# table. The human-readable reproduction
# tables (size ratio, byte-identity cross-check) print to stdout and the
# run fails if any bench binary fails.
#
# Usage:
#   tools/ci-bench-baseline.sh [output-dir]
#
# Output defaults to the repository root. A regular build/ directory is
# left untouched; benches build in build-bench/.

set -euo pipefail

repo_root="$(cd "$(dirname "$0")/.." && pwd)"
out_dir="${1:-${repo_root}}"
build_dir="${repo_root}/build-bench"
jobs="$(nproc 2>/dev/null || echo 4)"

mkdir -p "${out_dir}"

echo "==> [bench] configure (Release)"
cmake -B "${build_dir}" -S "${repo_root}" \
      -DCMAKE_BUILD_TYPE=Release >/dev/null
echo "==> [bench] build"
cmake --build "${build_dir}" -j "${jobs}" \
      --target bench_colfmt_scan bench_analyzer_matrix bench_stream_sketch

run_bench() {
  local name="$1" json="$2"
  echo "==> [bench] ${name} -> ${json}"
  "${build_dir}/bench/${name}" \
      --benchmark_out="${out_dir}/${json}" \
      --benchmark_out_format=json \
      --benchmark_repetitions=1
}

run_bench bench_colfmt_scan BENCH_colfmt.json
run_bench bench_analyzer_matrix BENCH_analysis.json
run_bench bench_stream_sketch BENCH_stream.json

echo "==> benchmark baselines written to ${out_dir}"
