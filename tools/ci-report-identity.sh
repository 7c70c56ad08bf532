#!/usr/bin/env bash
# ci-report-identity.sh — `syrwatchctl report` through the real CLI:
#
#   1. one 200k-request log written as csv and SYRCOL1 (--format both);
#   2. report on each copy at --threads 1 and --threads 4 — all four
#      outputs must be byte-identical (both backends fill one column
#      layout and feed one adapter, DESIGN.md §4.11);
#   3. report on a copy of the container with one flipped byte in a
#      column page (block 0's time page) must exit non-zero with the
#      "(malformed)" refusal: the footer and index are intact, so this is
#      damage inside an indexed block, not a torn tail;
#   4. the csv codec (DESIGN.md §4.15) through every writer and the
#      shared line framing: `convert` col → csv, and `generate
#      --checkpoint-dir` (the spool formatter), must reproduce log.csv
#      byte for byte, and report on a CRLF copy of log.csv must equal
#      report on log.csv.
#
# Usage:
#   tools/ci-report-identity.sh [build-dir]   # default: build/
#
# tools/ci-sanitize.sh runs it on the ASan+UBSan tree: the scan adapter
# indexes id → string tables without bounds checks, which is safe only
# because the decoder and the string pool validate every id, and the csv
# parser hands out views into a reused read chunk.

set -euo pipefail

repo_root="$(cd "$(dirname "$0")/.." && pwd)"
build_dir="${1:-${repo_root}/build}"
ctl="${build_dir}/tools/syrwatchctl"
workdir="$(mktemp -d)"
trap 'rm -rf "${workdir}"' EXIT

[[ -x "${ctl}" ]] || { echo "error: ${ctl} not built" >&2; exit 1; }

echo "==> generate 200000 requests, seed 2011, csv + col"
"${ctl}" generate --out "${workdir}/log.csv" --requests 200000 --seed 2011 \
  --format both >/dev/null

for format in csv col; do
  for threads in 1 4; do
    echo "==> report ${format} --threads ${threads}"
    "${ctl}" report "${workdir}/log.${format}" --seed 2011 \
      --threads "${threads}" >"${workdir}/report.${format}.${threads}"
  done
done
for other in csv.4 col.1 col.4; do
  if ! cmp "${workdir}/report.csv.1" "${workdir}/report.${other}"; then
    echo "FAIL: report.${other} differs from report.csv.1" >&2
    exit 1
  fi
done
echo "    all four reports are byte-identical"

# Block 0 starts after the 8-byte file magic with a 16-byte header; its
# first page (dict) is framed {u32 size, u32 crc32} at offset 24, and the
# time page's header follows the dict payload.
damaged="${workdir}/damaged.col"
cp "${workdir}/log.col" "${damaged}"
dict_bytes="$(od -An -t u4 -j 24 -N 4 "${damaged}" | tr -d ' ')"
offset=$((24 + 8 + dict_bytes + 8 + 1))
byte="$(od -An -t u1 -j "${offset}" -N 1 "${damaged}" | tr -d ' ')"
printf "\\x$(printf '%02x' $((byte ^ 0x20)))" |
  dd of="${damaged}" bs=1 seek="${offset}" conv=notrunc status=none

echo "==> report on a container with a flipped time-page byte"
if "${ctl}" report "${damaged}" --seed 2011 >/dev/null \
    2>"${workdir}/damaged.err"; then
  echo "FAIL: report accepted a damaged container" >&2
  exit 1
fi
if ! grep -q "(malformed)" "${workdir}/damaged.err"; then
  echo "FAIL: expected a (malformed) refusal, got:" >&2
  cat "${workdir}/damaged.err" >&2
  exit 1
fi
echo "    refused: $(cat "${workdir}/damaged.err")"

echo "==> convert col -> csv reproduces log.csv"
"${ctl}" convert "${workdir}/log.col" "${workdir}/converted.csv" >/dev/null
cmp "${workdir}/log.csv" "${workdir}/converted.csv" ||
  { echo "FAIL: converted csv differs from log.csv" >&2; exit 1; }

echo "==> generate --checkpoint-dir reproduces log.csv"
"${ctl}" generate --out "${workdir}/spooled.csv" --requests 200000 \
  --seed 2011 --checkpoint-dir "${workdir}/ckpt" >/dev/null
cmp "${workdir}/log.csv" "${workdir}/spooled.csv" ||
  { echo "FAIL: checkpointed csv differs from log.csv" >&2; exit 1; }

echo "==> report on a CRLF copy of log.csv"
sed 's/$/\r/' "${workdir}/log.csv" >"${workdir}/crlf.csv"
"${ctl}" report "${workdir}/crlf.csv" --seed 2011 >"${workdir}/report.crlf"
cmp "${workdir}/report.csv.1" "${workdir}/report.crlf" ||
  { echo "FAIL: report on the CRLF log differs" >&2; exit 1; }
echo "==> report identity, damage handling and csv codec OK"
