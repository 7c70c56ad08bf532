#!/usr/bin/env bash
# ci-storage-chaos.sh — end-to-end sweep of the storage-fault schedules
# (DESIGN.md §4.13) through the real CLI: run `syrwatchctl generate`
# under every named `--storage-fault` schedule, then check the §4.8
# durability contract held:
#
#   * benign schedules (none, short-writes, eintr-storm) complete with
#     exit 0 and an output byte-identical to a fault-free run;
#   * enospc degrades gracefully — exit 0, an "interrupted" resumable
#     checkpoint with a resume hint — and a fault-free --resume finishes
#     byte-identical;
#   * fsync-fail fails loud (non-zero exit), but the checkpoint it leaves
#     verifies and resumes byte-identical;
#   * power-cut / torn-tail die with exit 9 (SimulatedPowerLoss), and the
#     surviving checkpoint describes only durable bytes: verify passes and
#     a fault-free --resume is byte-identical. No schedule may ever leave
#     a committed-but-empty or committed-but-torn manifested artifact.
#
# Then power-cut, torn-tail, enospc and fsync-fail again at --threads 4
# --format both: the checkpoint commits on its writer thread while the
# calling thread writes the SYRCOL1 container through the same faulty
# Vfs. Same exit codes (a power cut is exit 9, never the container's
# EIO), verify, and a resume byte-identical in csv and container.
#
# Usage:
#   tools/ci-storage-chaos.sh [build-dir]   # default: build/
#
# Needs a built tree (cmake --build build).

set -euo pipefail

repo_root="$(cd "$(dirname "$0")/.." && pwd)"
build_dir="${1:-${repo_root}/build}"
build_dir="$(cd "${build_dir}" && pwd)"
ctl="${build_dir}/tools/syrwatchctl"
workdir="$(mktemp -d)"
trap 'rm -rf "${workdir}"' EXIT

[[ -x "${ctl}" ]] || { echo "error: ${ctl} not built" >&2; exit 1; }

requests=60000

echo "==> clean reference run"
"${ctl}" generate --out "${workdir}/clean.csv" --requests "${requests}" \
    --threads 2 --format both >/dev/null
clean_bytes="$(wc -c < "${workdir}/clean.csv")"

# Threads and output format of the generate runs below.
mode=(--threads 2)

# generate under a schedule; $2 = expected exit status.
run_faulted() {
  local spec="$1" expected="$2" dir="$3"
  mkdir -p "${dir}"
  local status=0
  "${ctl}" generate --out "${dir}/out.csv" --requests "${requests}" \
      "${mode[@]}" --checkpoint-dir "${dir}/ckpt" --checkpoint-interval 2 \
      --storage-fault "${spec}" >"${dir}/log" 2>&1 || status=$?
  [[ "${status}" -eq "${expected}" ]] || {
    echo "error: [${spec}] generate exited ${status}, expected ${expected}" >&2
    cat "${dir}/log" >&2
    exit 1
  }
}

resume_and_diff() {
  local spec="$1" dir="$2"
  echo "==> [${spec}] verify checkpoint, resume fault-free, diff"
  "${ctl}" verify "${dir}/ckpt" >/dev/null || {
    echo "error: [${spec}] interrupted checkpoint failed verify" >&2; exit 1; }
  "${ctl}" generate --out "${dir}/out.csv" --requests "${requests}" \
      "${mode[@]}" --checkpoint-dir "${dir}/ckpt" --resume >/dev/null
  cmp "${workdir}/clean.csv" "${dir}/out.csv" || {
    echo "error: [${spec}] resumed output differs from fault-free run" >&2
    exit 1
  }
  if [[ -e "${dir}/out.col" ]]; then
    cmp "${workdir}/clean.col" "${dir}/out.col" || {
      echo "error: [${spec}] resumed container differs from fault-free run" >&2
      exit 1
    }
  fi
}

echo "==> benign schedules complete byte-identical"
for spec in none short-writes:4096 eintr-storm:3; do
  dir="${workdir}/benign-${spec%%:*}"
  run_faulted "${spec}" 0 "${dir}"
  cmp "${workdir}/clean.csv" "${dir}/out.csv" || {
    echo "error: [${spec}] output differs from fault-free run" >&2; exit 1; }
  echo "==> [${spec}] byte-identical"
done

echo "==> enospc: graceful interrupted checkpoint + resume"
# A budget of a third of the clean output guarantees the modeled disk
# fills mid-run while the early commits still land.
budget=$(( clean_bytes / 3 ))
dir="${workdir}/enospc"
run_faulted "enospc:${budget}" 0 "${dir}"
grep -q "storage degraded" "${dir}/log" || {
  echo "error: [enospc] no degradation notice in output" >&2; exit 1; }
grep -q -- "--resume" "${dir}/log" || {
  echo "error: [enospc] no resume hint in output" >&2; exit 1; }
[[ ! -e "${dir}/out.csv" ]] || {
  echo "error: [enospc] interrupted run left a torn output file" >&2; exit 1; }
resume_and_diff "enospc:${budget}" "${dir}"

echo "==> fsync-fail: loud failure, resumable checkpoint"
# Fsync #7 is the second commit's state snapshot — at least one commit is
# durable when it fires.
dir="${workdir}/fsync-fail"
run_faulted "fsync-fail:7" 1 "${dir}"
resume_and_diff "fsync-fail:7" "${dir}"

for spec in power-cut:4 torn-tail:4; do
  echo "==> ${spec}: simulated power loss (exit 9), durable prefix resumes"
  dir="${workdir}/${spec%%:*}"
  run_faulted "${spec}" 9 "${dir}"
  [[ ! -e "${dir}/out.csv" ]] || {
    echo "error: [${spec}] power cut left a promoted output file" >&2
    exit 1
  }
  resume_and_diff "${spec}" "${dir}"
done

echo "==> --threads 4 --format both: the writer thread beside the container"
mode=(--threads 4 --format both)
for run in "power-cut:4 9" "torn-tail:4 9" "enospc:${budget} 0" \
           "fsync-fail:7 1"; do
  read -r spec expected <<<"${run}"
  dir="${workdir}/both-${spec%%:*}"
  run_faulted "${spec}" "${expected}" "${dir}"
  if [[ "${spec}" == enospc:* ]]; then
    grep -q "storage degraded" "${dir}/log" || {
      echo "error: [${spec}, both] no degradation notice in output" >&2
      exit 1
    }
  fi
  for artifact in out.csv out.col; do
    [[ ! -e "${dir}/${artifact}" ]] || {
      echo "error: [${spec}, both] stopped run left ${artifact}" >&2
      exit 1
    }
  done
  resume_and_diff "${spec}, threads 4, both" "${dir}"
  [[ -e "${dir}/out.col" ]] || {
    echo "error: [${spec}, both] resume wrote no container" >&2; exit 1; }
done

echo "==> storage chaos sweep green"
