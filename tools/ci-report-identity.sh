#!/usr/bin/env bash
# ci-report-identity.sh — `syrwatchctl report` through the real CLI:
#
#   1. one 200k-request log written as csv and SYRCOL1 (--format both);
#   2. report on the csv at --threads 1, 2, 3 and 4 and on the container
#      at --threads 1 and 4 — all six outputs must be byte-identical (both
#      backends fill one column layout and feed one adapter, DESIGN.md
#      §4.11, and the csv is parsed a window ahead on threads - 1
#      workers, §4.15); then the same on a second, faulted corpus (50k
#      requests, seed 7, rolling-brownout): csv at --threads 1 and 4 and
#      the container at 4, since host slots, domain ids and count ties
#      resolve differently there;
#   3. report on a copy of the container with one flipped byte in a
#      column page (block 0's time page) must exit non-zero with the
#      "(malformed)" refusal: the footer and index are intact, so this is
#      damage inside an indexed block, not a torn tail;
#   4. the csv codec (DESIGN.md §4.15) through every writer and the
#      shared line framing: `convert` col → csv, and `generate
#      --checkpoint-dir` (the spool formatter), must reproduce log.csv
#      byte for byte, and report on a CRLF copy of log.csv at --threads 4
#      must equal report on log.csv;
#   5. inspect on a damaged copy of log.csv (mutated lines and a torn
#      final line) must print the same bytes at --threads 1 and 4.
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

for leg in csv.1 csv.2 csv.3 csv.4 col.1 col.4; do
  format="${leg%.*}" threads="${leg#*.}"
  echo "==> report ${format} --threads ${threads}"
  "${ctl}" report "${workdir}/log.${format}" --seed 2011 \
    --threads "${threads}" >"${workdir}/report.${leg}"
done
for other in csv.2 csv.3 csv.4 col.1 col.4; do
  if ! cmp "${workdir}/report.csv.1" "${workdir}/report.${other}"; then
    echo "FAIL: report.${other} differs from report.csv.1" >&2
    exit 1
  fi
done
echo "    all six reports are byte-identical"

echo "==> generate 50000 requests, seed 7, rolling-brownout, csv + col"
"${ctl}" generate --out "${workdir}/brownout.csv" --requests 50000 --seed 7 \
  --fault-profile rolling-brownout --format both >/dev/null
for leg in csv.1 csv.4 col.4; do
  format="${leg%.*}" threads="${leg#*.}"
  echo "==> report brownout ${format} --threads ${threads}"
  "${ctl}" report "${workdir}/brownout.${format}" --seed 7 \
    --threads "${threads}" >"${workdir}/brownout.${leg}"
done
for other in csv.4 col.4; do
  if ! cmp "${workdir}/brownout.csv.1" "${workdir}/brownout.${other}"; then
    echo "FAIL: brownout.${other} differs from brownout.csv.1" >&2
    exit 1
  fi
done
echo "    all three brownout reports are byte-identical"

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

echo "==> report --threads 4 on a CRLF copy of log.csv"
sed 's/$/\r/' "${workdir}/log.csv" >"${workdir}/crlf.csv"
"${ctl}" report "${workdir}/crlf.csv" --seed 2011 --threads 4 \
  >"${workdir}/report.crlf"
cmp "${workdir}/report.csv.1" "${workdir}/report.crlf" ||
  { echo "FAIL: report on the CRLF log differs" >&2; exit 1; }

# Damage spread over several parse windows: a short line, a garbled
# timestamp, a stray quote, a blank line, and a torn final line.
echo "==> inspect --threads 1 and 4 on a damaged copy of log.csv"
sed -e '5s/,.*//' -e '40000s/^2011/2O11/' -e '90000s/,GET,/,"GET,/' \
  -e '120000s/.*//' "${workdir}/log.csv" | head -c -40 >"${workdir}/damaged.csv"
for threads in 1 4; do
  "${ctl}" inspect "${workdir}/damaged.csv" --threads "${threads}" \
    >"${workdir}/inspect.${threads}"
done
cmp "${workdir}/inspect.1" "${workdir}/inspect.4" ||
  { echo "FAIL: inspect differs between --threads 1 and 4" >&2; exit 1; }
grep -q "TRUNCATED" "${workdir}/inspect.1" ||
  { echo "FAIL: inspect missed the torn final line" >&2; exit 1; }
echo "==> report identity, damage handling and csv codec OK"
