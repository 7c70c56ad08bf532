#!/usr/bin/env bash
# ci-sanitize.sh — build and test syrwatch under both sanitizer
# configurations the project supports:
#
#   1. SYRWATCH_SANITIZE=thread             (TSan: parallel pipeline races)
#   2. SYRWATCH_SANITIZE=address,undefined  (ASan+UBSan: memory / UB bugs,
#                                            incl. the fault-injection and
#                                            corrupted-log parsing paths)
#
# Usage:
#   tools/ci-sanitize.sh [ctest -R filter]
#
# With no argument the full ctest suite runs in each configuration. Pass a
# regex to narrow it, e.g. the fault-injection, log-parsing, and columnar
# container tests only (colfmt exercises mmap reads, checksum failure
# paths, and the parallel block scanners under both sanitizers):
#
#   tools/ci-sanitize.sh 'fault|log_io|colfmt|parallel'
#
# The observability layer is concurrency-sensitive by construction (relaxed
# atomics on every hot path) — the TSan pass over 'obs|parallel|scenario'
# is the race check for it:
#
#   tools/ci-sanitize.sh 'obs|cli|parallel|scenario'
#
# The JSON module and the command table: test_json (the pinned document
# bytes, the reader's limits, a manifest damaged at every byte) and the
# cli_golden ctest (every syrwatchctl command against
# tests/golden/cli.txt, run with the sanitized syrwatchctl):
#
#   tools/ci-sanitize.sh 'json|cli|durable|obs|stream|fault'
#
# Build trees live in build-tsan/ and build-asan/ next to the source tree,
# so a regular build/ directory is left untouched.

set -euo pipefail

repo_root="$(cd "$(dirname "$0")/.." && pwd)"
filter="${1:-}"
jobs="$(nproc 2>/dev/null || echo 4)"

run_config() {
  local name="$1" sanitize="$2"
  local build_dir="${repo_root}/build-${name}"
  echo "==> [${name}] configure (SYRWATCH_SANITIZE=${sanitize})"
  cmake -B "${build_dir}" -S "${repo_root}" \
        -DSYRWATCH_SANITIZE="${sanitize}" >/dev/null
  echo "==> [${name}] build"
  cmake --build "${build_dir}" -j "${jobs}"
  echo "==> [${name}] ctest"
  if [[ -n "${filter}" ]]; then
    (cd "${build_dir}" && ctest --output-on-failure -j "${jobs}" -R "${filter}")
  else
    (cd "${build_dir}" && ctest --output-on-failure -j "${jobs}")
  fi
}

run_config tsan thread
run_config asan address,undefined

# The durability layer's crash/resume path under ASan+UBSan: forced
# mid-run abort, manifest verification, resume, byte-identity diff.
echo "==> [asan] crash/resume smoke"
"${repo_root}/tools/ci-crash-resume.sh" "${repo_root}/build-asan"

# The storage-fault schedule sweep (--storage-fault, DESIGN.md §4.13)
# under ASan+UBSan: every named schedule through generate → crash →
# verify → resume, asserting the durability contract end to end.
echo "==> [asan] storage chaos sweep"
"${repo_root}/tools/ci-storage-chaos.sh" "${repo_root}/build-asan"

# `report` on csv and col at 1 and 4 threads (byte-identical), then on a
# container with a flipped column-page byte (a typed "(malformed)"
# refusal) under ASan+UBSan: the scan adapter's unchecked id → string
# lookups are safe only because decode and the pool validate every id.
echo "==> [asan] report identity and damage handling"
"${repo_root}/tools/ci-report-identity.sh" "${repo_root}/build-asan"

echo "==> all sanitizer configurations green"
