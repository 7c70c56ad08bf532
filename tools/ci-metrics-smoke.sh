#!/usr/bin/env bash
# ci-metrics-smoke.sh — end-to-end check of the observability surface:
# runs syrwatchctl with --metrics and validates the emitted
# syrwatch.metrics.v1 JSON (schema tag, required keys, non-negative
# counts, pipeline counter identities, phases summing to roughly the
# total). Exercises both a full simulate→analyze run (profile) and the
# generate→stats log round trip: `generate --threads 4` must also report
# the scenario.produce_wait stage (the calling thread waiting for the
# next batch's producer) and one scenario.merge per batch. Then the
# sharded farm: `generate --workers 2` must report the generation its
# coordinator ran, request for request the single-process count, and the
# data-channel bytes.
# Then a checkpointed `generate --threads 4 --checkpoint-interval 1`
# must write the same csv, commit once per batch, and time the calling
# thread's waits on the checkpoint's writer thread as
# checkpoint.writer_wait, one sample per batch.
# Last, `report --threads 4` on the csv must report the parse-ahead load:
# csv.records equal to the log's record count, csv.lines one more (the
# header), and the csv.parse_window and csv.append_wait stages.
#
# Usage:
#   tools/ci-metrics-smoke.sh [build-dir]   # default: build/
#
# Needs a built tree (cmake --build build) and python3 for the JSON
# validation.

set -euo pipefail

repo_root="$(cd "$(dirname "$0")/.." && pwd)"
build_dir="${1:-${repo_root}/build}"
ctl="${build_dir}/tools/syrwatchctl"
workdir="$(mktemp -d)"
trap 'rm -rf "${workdir}"' EXIT

[[ -x "${ctl}" ]] || { echo "error: ${ctl} not built" >&2; exit 1; }
command -v python3 >/dev/null || { echo "error: python3 required" >&2; exit 1; }

validate() {
  local file="$1" command="$2" mode="$3" reference="${4:-}"
  python3 - "$file" "$command" "$mode" "$reference" <<'PY'
import json, sys

path, command, mode, reference = sys.argv[1:5]
with open(path) as handle:
    doc = json.load(handle)

def die(message):
    sys.exit(f"{path}: {message}")

for key in ("schema", "command", "counters", "gauges", "stages", "phases",
            "total_seconds"):
    if key not in doc:
        die(f"missing key {key!r}")
if doc["schema"] != "syrwatch.metrics.v1":
    die(f"unexpected schema {doc['schema']!r}")
if doc["command"] != command:
    die(f"command is {doc['command']!r}, expected {command!r}")

counters = doc["counters"]
for name, value in counters.items():
    if not isinstance(value, int) or value < 0:
        die(f"counter {name!r} is not a non-negative integer: {value!r}")
for name, stage in doc["stages"].items():
    if stage["count"] <= 0:
        die(f"stage {name!r} recorded no calls")
    if not (0 <= stage["min_seconds"] <= stage["max_seconds"]):
        die(f"stage {name!r} has inverted extrema")
    if stage["total_seconds"] < stage["max_seconds"]:
        die(f"stage {name!r} total below max")

total = doc["total_seconds"]
phase_sum = sum(p["seconds"] for p in doc["phases"])
if total <= 0:
    die("total_seconds not positive")
if not doc["phases"]:
    die("no phases recorded")
if phase_sum > total * 1.001:
    die(f"phases sum {phase_sum:.3f}s exceeds total {total:.3f}s")
# Phases cover the bulk of the run; the remainder is I/O + process setup.
if phase_sum < total * 0.25:
    die(f"phases sum {phase_sum:.3f}s is <25% of total {total:.3f}s")

if mode == "pipeline":
    c = lambda name: counters.get(name, 0)
    requests = c("proxy.requests")
    if requests <= 0:
        die("pipeline run saw no proxy requests")
    if c("farm.route.calls") != requests:
        die("farm.route.calls != proxy.requests")
    if c("proxy.cache.hit") + c("proxy.cache.miss") != requests:
        die("cache hit+miss != requests")
    if c("proxy.cache.miss") != (c("proxy.policy.denied") +
                                 c("proxy.policy.redirect") +
                                 c("proxy.error.dest_unreachable") +
                                 c("proxy.error.draws")):
        die("cache misses do not decompose into outcomes")
    if c("proxy.error.draws") != c("proxy.error.failures") + c("proxy.served"):
        die("error draws != failures + served")
    rule_hits = sum(v for k, v in counters.items()
                    if k.startswith("policy.rule_hit."))
    if rule_hits != c("proxy.policy.denied") + c("proxy.policy.redirect"):
        die("per-kind rule hits do not sum to policy verdicts")
elif mode == "sharded":
    # The coordinator generates and routes once; its workers' proxy
    # counters die with them, so only generation and shard.* are here.
    with open(reference) as handle:
        single = json.load(handle)["counters"]["scenario.generated"]
    if counters.get("scenario.generated") != single:
        die(f"scenario.generated {counters.get('scenario.generated')} != "
            f"single-process {single}")
    if "scenario.generate_shard" not in doc["stages"]:
        die("no scenario.generate_shard stage")
    if counters.get("farm.route.calls") != single:
        die("farm.route.calls != scenario.generated")
    if counters.get("shard.data_bytes", 0) <= 0:
        die("shard.data_bytes is not positive")
    if counters.get("shard.restarts", 0) != 0:
        die("an undisturbed sharded run restarted a worker")
elif mode == "csv":
    records = int(reference)
    if counters.get("csv.records") != records:
        die(f"csv.records {counters.get('csv.records')} != {records} records")
    if counters.get("csv.lines") != records + 1:
        die(f"csv.lines {counters.get('csv.lines')} != records + 1")
    if counters.get("csv.skipped", -1) != 0:
        die("a clean log reported skipped lines")
    for stage in ("csv.parse_window", "csv.append_wait"):
        if stage not in doc["stages"]:
            die(f"no {stage} stage")
elif mode == "reader":
    if c := counters.get("cli.rows_loaded", 0):
        pass
    else:
        die("reader run loaded no rows")

print(f"ok: {path} ({command}, {len(counters)} counters, "
      f"{len(doc['stages'])} stages, {phase_sum:.2f}/{total:.2f}s in phases)")
PY
}

echo "==> profile --metrics (full simulate -> analyze pipeline)"
"${ctl}" profile --requests 60000 --metrics "${workdir}/profile.json" \
    >/dev/null
validate "${workdir}/profile.json" profile pipeline

echo "==> generate --threads 4 --metrics (simulate -> log)"
"${ctl}" generate --out "${workdir}/leak.csv" --requests 60000 \
    --threads 4 --metrics "${workdir}/generate.json" >/dev/null
validate "${workdir}/generate.json" generate pipeline

echo "==> generate --workers 2 --metrics (sharded farm)"
"${ctl}" generate --out "${workdir}/sharded.csv" --requests 60000 \
    --workers 2 --checkpoint-dir "${workdir}/shards" \
    --metrics "${workdir}/sharded.json" >/dev/null
cmp "${workdir}/leak.csv" "${workdir}/sharded.csv"
validate "${workdir}/sharded.json" generate sharded "${workdir}/generate.json"

echo "==> generate's batch stages (one merge per batch, producer waits)"
python3 - "${workdir}/generate.json" "${workdir}/shards/manifest.json" <<'PY'
import json, sys

with open(sys.argv[1]) as handle:
    stages = json.load(handle)["stages"]
with open(sys.argv[2]) as handle:
    batches = json.load(handle)["total_batches"]
if "scenario.produce_wait" not in stages:
    sys.exit(f"{sys.argv[1]}: no scenario.produce_wait stage")
merges = stages.get("scenario.merge", {}).get("count")
if merges != batches:
    sys.exit(f"{sys.argv[1]}: scenario.merge ran {merges} times, "
             f"the run has {batches} batches")
print(f"ok: {batches} merges, produce_wait "
      f"{stages['scenario.produce_wait']['total_seconds']:.3f}s")
PY

echo "==> generate --checkpoint-interval 1 --metrics (the checkpoint's writer)"
"${ctl}" generate --out "${workdir}/durable.csv" --requests 60000 \
    --threads 4 --checkpoint-dir "${workdir}/durable" \
    --checkpoint-interval 1 --metrics "${workdir}/durable.json" >/dev/null
cmp "${workdir}/leak.csv" "${workdir}/durable.csv"
validate "${workdir}/durable.json" generate pipeline
python3 - "${workdir}/durable.json" "${workdir}/durable/manifest.json" <<'PY'
import json, sys

with open(sys.argv[1]) as handle:
    doc = json.load(handle)
with open(sys.argv[2]) as handle:
    batches = json.load(handle)["total_batches"]
commits = doc["counters"].get("checkpoint.commits")
if commits != batches:
    sys.exit(f"{sys.argv[1]}: checkpoint.commits is {commits}, "
             f"the run has {batches} batches")
stages = doc["stages"]
for name in ("checkpoint.write_state", "checkpoint.append_spool"):
    if stages.get(name, {}).get("count") != batches:
        sys.exit(f"{sys.argv[1]}: {name} does not have one sample per batch")
waits = stages.get("checkpoint.writer_wait", {}).get("count")
if waits != batches:
    sys.exit(f"{sys.argv[1]}: checkpoint.writer_wait has {waits} samples, "
             f"the run has {batches} batches")
print(f"ok: {commits} commits, writer_wait "
      f"{stages['checkpoint.writer_wait']['total_seconds']:.3f}s beside "
      f"write_state {stages['checkpoint.write_state']['total_seconds']:.3f}s")
PY

echo "==> stats --metrics (log reader path)"
"${ctl}" stats "${workdir}/leak.csv" --metrics "${workdir}/stats.json" \
    >/dev/null
validate "${workdir}/stats.json" stats reader

echo "==> report --threads 4 --metrics (parse-ahead csv load)"
"${ctl}" report "${workdir}/leak.csv" --threads 4 \
    --metrics "${workdir}/report.json" >/dev/null
validate "${workdir}/report.json" report csv \
    "$(($(wc -l <"${workdir}/leak.csv") - 1))"

echo "==> metrics smoke green"
