#!/usr/bin/env bash
# ci-crash-resume.sh — end-to-end check of the durability layer: force a
# mid-run abort of `syrwatchctl generate` (via the --abort-after-batches
# test hook, which _Exit(3)s right after a durable checkpoint commit),
# verify the checkpoint's manifest + CRCs, resume at a different thread
# count, and diff the resumed log byte-for-byte against an uninterrupted
# run. Also checks that `syrwatchctl verify` catches a single flipped
# byte in a manifest-listed artifact, that cancellation (SIGTERM)
# exits 0 with a resumable checkpoint, and that re-running a finished
# checkpoint restores its farm: the re-run prints the first run's
# `failovers:` line.
#
# The sharded legs exercise the multi-process farm (--workers): real
# SIGKILLed workers (--worker-chaos) must restart and merge byte-identical
# to the single-process run; an exhausted restart budget must complete
# degraded (exit 0, explicit [DEGRADED DATA]); SIGTERM must stop the
# whole farm gracefully into a resumable set of per-shard checkpoints; and
# a coordinator killed with SIGKILL must take no worker with it for long:
# each loses its input, commits and exits, and the farm resumes
# byte-identical.
#
# Usage:
#   tools/ci-crash-resume.sh [build-dir]   # default: build/
#
# Needs a built tree (cmake --build build).

set -euo pipefail

repo_root="$(cd "$(dirname "$0")/.." && pwd)"
build_dir="${1:-${repo_root}/build}"
build_dir="$(cd "${build_dir}" && pwd)"  # the verify-from-cwd leg cd's away
ctl="${build_dir}/tools/syrwatchctl"
workdir="$(mktemp -d)"
trap 'rm -rf "${workdir}"' EXIT

[[ -x "${ctl}" ]] || { echo "error: ${ctl} not built" >&2; exit 1; }

requests=60000

crash_resume_case() {
  local profile="$1"
  local tag="${profile:-none}"
  local dir="${workdir}/${tag}"
  mkdir -p "${dir}"
  local profile_args=()
  [[ -n "${profile}" ]] && profile_args=(--fault-profile "${profile}")

  echo "==> [${tag}] clean reference run (1 thread)"
  "${ctl}" generate --out "${dir}/clean.csv" --requests "${requests}" \
      --threads 1 "${profile_args[@]+"${profile_args[@]}"}" >/dev/null

  echo "==> [${tag}] crash after 2 committed batches (4 threads)"
  local status=0
  "${ctl}" generate --out "${dir}/resumed.csv" --requests "${requests}" \
      --threads 4 --checkpoint-dir "${dir}/ckpt" --checkpoint-interval 1 \
      --abort-after-batches 2 \
      "${profile_args[@]+"${profile_args[@]}"}" >/dev/null 2>&1 || status=$?
  [[ "${status}" -eq 3 ]] || {
    echo "error: forced abort exited ${status}, expected 3" >&2; exit 1; }
  [[ ! -e "${dir}/resumed.csv" ]] || {
    echo "error: aborted run left a torn output file" >&2; exit 1; }

  echo "==> [${tag}] verify interrupted checkpoint"
  "${ctl}" verify "${dir}/ckpt" >/dev/null

  echo "==> [${tag}] resume to completion (8 threads)"
  "${ctl}" generate --out "${dir}/resumed.csv" --requests "${requests}" \
      --threads 8 --checkpoint-dir "${dir}/ckpt" --resume \
      "${profile_args[@]+"${profile_args[@]}"}" >/dev/null

  echo "==> [${tag}] verify completed checkpoint (incl. output artifact)"
  (cd "${dir}" && "${ctl}" verify ckpt >/dev/null)

  echo "==> [${tag}] diff resumed log against the clean run"
  cmp "${dir}/clean.csv" "${dir}/resumed.csv" || {
    echo "error: resumed log differs from uninterrupted run" >&2; exit 1; }
  echo "==> [${tag}] byte-identical"
}

crash_resume_case ""
crash_resume_case rolling-brownout

echo "==> re-run of a finished checkpoint reports the first run's failovers"
rerun_dir="${workdir}/rerun"
mkdir -p "${rerun_dir}"
for run in first again; do
  resume_arg=()
  [[ "${run}" == again ]] && resume_arg=(--resume)
  "${ctl}" generate --out "${rerun_dir}/out.csv" --requests "${requests}" \
      --threads 2 --fault-profile sg47-outage \
      --checkpoint-dir "${rerun_dir}/ckpt" \
      "${resume_arg[@]+"${resume_arg[@]}"}" >"${rerun_dir}/${run}.log"
done
first_failovers="$(grep '^failovers:' "${rerun_dir}/first.log")"
again_failovers="$(grep '^failovers:' "${rerun_dir}/again.log")"
[[ "${first_failovers}" != "failovers: 0 "* ]] || {
  echo "error: sg47-outage diverted no requests" >&2; exit 1; }
[[ "${again_failovers}" == "${first_failovers}" ]] || {
  echo "error: re-run printed '${again_failovers}'," \
       "first run '${first_failovers}'" >&2
  exit 1
}
echo "==> ${again_failovers}"

echo "==> tamper detection: flip one byte of the recorded output"
tamper_dir="${workdir}/none"
printf '\x58' | dd of="${tamper_dir}/resumed.csv" bs=1 seek=100 \
    conv=notrunc 2>/dev/null
if "${ctl}" verify "${tamper_dir}/ckpt" >/dev/null 2>&1; then
  echo "error: verify accepted a tampered output artifact" >&2; exit 1
fi
echo "==> tamper detected (verify exited non-zero)"

echo "==> graceful stop: SIGTERM mid-run flushes a resumable checkpoint"
stop_dir="${workdir}/sigterm"
mkdir -p "${stop_dir}"
"${ctl}" generate --out "${stop_dir}/out.csv" --requests 400000 \
    --threads 2 --checkpoint-dir "${stop_dir}/ckpt" \
    --checkpoint-interval 2 >"${stop_dir}/log" &
pid=$!
# Signal only once the run has demonstrably committed — a farm-state
# blob appears at the first durable commit (commits alternate between the
# two state slots, so check both). A blind sleep races against both fast
# and heavily loaded machines.
while kill -0 "${pid}" 2>/dev/null &&
      [[ ! -e "${stop_dir}/ckpt/farm_state.bin" &&
         ! -e "${stop_dir}/ckpt/farm_state.alt.bin" ]]; do
  sleep 0.05
done
kill -TERM "${pid}" 2>/dev/null || true
status=0
wait "${pid}" || status=$?
[[ "${status}" -eq 0 ]] || {
  echo "error: interrupted generate exited ${status}, expected 0" >&2
  exit 1
}
grep -q -- "--resume" "${stop_dir}/log" || {
  echo "error: interrupted run printed no resume hint" >&2; exit 1; }
"${ctl}" verify "${stop_dir}/ckpt" >/dev/null
"${ctl}" generate --out "${stop_dir}/out.csv" --requests 400000 \
    --threads 2 --checkpoint-dir "${stop_dir}/ckpt" --resume >/dev/null
[[ -s "${stop_dir}/out.csv" ]] || {
  echo "error: resumed run produced no output" >&2; exit 1; }

echo "==> sharded farm: worker-chaos kills workers, merge stays identical"
shard_dir="${workdir}/sharded"
mkdir -p "${shard_dir}"
"${ctl}" generate --out "${shard_dir}/single.csv" --requests "${requests}" \
    --threads 1 >/dev/null
"${ctl}" generate --out "${shard_dir}/merged.csv" --requests "${requests}" \
    --workers 4 --checkpoint-dir "${shard_dir}/ckpt" \
    --worker-chaos worker-chaos --restart-budget 3 --backoff-ms 20 \
    >"${shard_dir}/log"
grep -qE " [1-9][0-9]* restarts" "${shard_dir}/log" || {
  echo "error: worker-chaos run reported no restarts" >&2; exit 1; }
cmp "${shard_dir}/single.csv" "${shard_dir}/merged.csv" || {
  echo "error: sharded merge differs from single-process run" >&2; exit 1; }
echo "==> sharded verify: one invocation covers every per-worker checkpoint"
"${ctl}" verify "${shard_dir}/ckpt" | grep -q "sharded run: 4 workers" || {
  echo "error: verify did not recurse into the sharded run" >&2; exit 1; }

echo "==> degraded farm: exhausted restart budget still completes (exit 0)"
deg_dir="${workdir}/degraded"
mkdir -p "${deg_dir}"
"${ctl}" generate --out "${deg_dir}/merged.csv" --requests "${requests}" \
    --workers 4 --checkpoint-dir "${deg_dir}/ckpt" \
    --worker-chaos worker-chaos --restart-budget 0 --backoff-ms 20 \
    --checkpoint-interval 1 >"${deg_dir}/log"
grep -q "DEGRADED DATA" "${deg_dir}/log" || {
  echo "error: degraded run printed no [DEGRADED DATA] annotation" >&2
  exit 1
}
"${ctl}" verify "${deg_dir}/ckpt" | grep -q "degraded shard:" || {
  echo "error: verify did not surface the degraded shard" >&2; exit 1; }

echo "==> sharded graceful stop: SIGTERM fans out, farm resumes identically"
sstop_dir="${workdir}/sharded_sigterm"
mkdir -p "${sstop_dir}"
"${ctl}" generate --out "${sstop_dir}/merged.csv" --requests 400000 \
    --workers 2 --checkpoint-dir "${sstop_dir}/ckpt" \
    >"${sstop_dir}/log" &
pid=$!
while kill -0 "${pid}" 2>/dev/null &&
      [[ ! -e "${sstop_dir}/ckpt/shard-00/farm_state.bin" &&
         ! -e "${sstop_dir}/ckpt/shard-00/farm_state.alt.bin" ]]; do
  sleep 0.05
done
kill -TERM "${pid}" 2>/dev/null || true
status=0
wait "${pid}" || status=$?
[[ "${status}" -eq 0 ]] || {
  echo "error: interrupted sharded generate exited ${status}, expected 0" >&2
  exit 1
}
if grep -q -- "--resume" "${sstop_dir}/log"; then
  "${ctl}" generate --out "${sstop_dir}/merged.csv" --requests 400000 \
      --workers 2 --checkpoint-dir "${sstop_dir}/ckpt" --resume >/dev/null
fi
cmp "${stop_dir}/out.csv" "${sstop_dir}/merged.csv" || {
  echo "error: resumed sharded run differs from single-process run" >&2
  exit 1
}

echo "==> orphaned workers: kill -9 the coordinator, every worker stops"
orphan_dir="${workdir}/orphaned"
mkdir -p "${orphan_dir}"
"${ctl}" generate --out "${orphan_dir}/merged.csv" --requests 400000 \
    --workers 4 --checkpoint-dir "${orphan_dir}/ckpt" \
    >"${orphan_dir}/log" 2>&1 &
pid=$!
# Kill only once a shard has demonstrably committed (as in the legs above).
while kill -0 "${pid}" 2>/dev/null &&
      ! compgen -G "${orphan_dir}/ckpt/shard-*/farm_state*.bin" >/dev/null; do
  sleep 0.05
done
workers="$(pgrep -P "${pid}" || true)"
kill -KILL "${pid}" 2>/dev/null || true
wait "${pid}" 2>/dev/null || true
[[ -n "${workers}" ]] || {
  echo "error: the coordinator had no live worker to orphan" >&2; exit 1; }
# A zombie has exited; only its reaping is left to whoever adopted it.
running() {
  [[ -r "/proc/$1/stat" ]] &&
    [[ "$(awk '{print $3}' "/proc/$1/stat" 2>/dev/null)" != "Z" ]]
}
deadline=$((SECONDS + 5))
for worker in ${workers}; do
  while running "${worker}"; do
    (( SECONDS < deadline )) || {
      echo "error: worker ${worker} outlived its coordinator by 5 s" >&2
      exit 1
    }
    sleep 0.05
  done
done
echo "==> every orphaned worker stopped; resume the farm"
"${ctl}" verify "${orphan_dir}/ckpt/shard-00" >/dev/null
"${ctl}" generate --out "${orphan_dir}/merged.csv" --requests 400000 \
    --workers 4 --checkpoint-dir "${orphan_dir}/ckpt" --resume >/dev/null
cmp "${stop_dir}/out.csv" "${orphan_dir}/merged.csv" || {
  echo "error: farm resumed after its coordinator's SIGKILL differs from" \
       "the single-process run" >&2
  exit 1
}

echo "==> crash/resume green"
