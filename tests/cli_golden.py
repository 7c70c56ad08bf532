#!/usr/bin/env python3
"""End-to-end check of every syrwatchctl command against tests/golden/cli.txt.

Generates the 20k-request seed-2011 corpus in a scratch directory, then runs
each command on it and records one line per invocation: the exit code, the
length and CRC32 of its stdout, the CRC32 of every file it writes, and, for
runs given --metrics, the document's command and phase names (its timings
vary from run to run, so its bytes are not compared). Usage errors and
refused flags are recorded the same way; their stderr is free text and is
not compared.

    python3 tests/cli_golden.py SYRWATCHCTL tests/golden/cli.txt
    python3 tests/cli_golden.py SYRWATCHCTL tests/golden/cli.txt --bless

--bless rewrites the golden from the current build; review the diff before
committing it. ctest runs the first form (test name `cli_golden`).
"""

import json
import os
import subprocess
import sys
import tempfile
import zlib

HEADER = """\
# syrwatchctl golden: one line per invocation, written by tests/cli_golden.py.
# name | exit code | stdout bytes:crc32 | file=crc32 ... | metrics=command:phases
# Re-bless after a deliberate output change (and review the diff):
#   python3 tests/cli_golden.py build/tools/syrwatchctl tests/golden/cli.txt --bless
"""

GEN = ["--requests", "20000", "--seed", "2011", "--threads", "2"]

# (name, argv after the program, files the run writes, --metrics file or None)
CASES = [
    ("generate-both", ["generate", "--out", "log.csv", *GEN, "--format", "both"],
     ["log.csv", "log.col"], "generate.json"),
    ("generate-checkpoint", ["generate", "--out", "ck.csv", *GEN,
                             "--checkpoint-dir", "ck"],
     ["ck.csv", "ck/manifest.json"], None),
    ("convert-col-csv", ["convert", "log.col", "back.csv"], ["back.csv"],
     "convert.json"),
    ("convert-csv-col", ["convert", "log.csv", "conv.col"], ["conv.col"], None),
    ("verify-container", ["verify", "log.col"], [], "verify.json"),
    ("verify-checkpoint", ["verify", "ck"], [], None),
    ("inspect-csv", ["inspect", "log.csv"], [], "inspect.json"),
    ("inspect-col", ["inspect", "log.col", "--bin-hours", "2"], [], None),
    ("report-csv", ["report", "log.csv", "--seed", "2011"], [], "report.json"),
    ("report-col", ["report", "log.col", "--seed", "2011", "--threads", "2"],
     [], None),
    ("report-overview", ["report", "log.col", "--overview", "--seed", "2011",
                         "--format", "col"], [], None),
    ("stats", ["stats", "log.csv"], [], "stats.json"),
    ("top-censored", ["top", "log.col"], [], None),
    ("top-allowed", ["top", "log.csv", "--class", "allowed", "--k", "5"], [],
     None),
    ("discover", ["discover", "log.col", "--min-count", "5"], [],
     "discover.json"),
    ("users", ["users", "log.csv"], [], None),
    ("redirects", ["redirects", "log.col"], [], None),
    ("weather", ["weather", "log.csv", "--keyword", "proxy", "--bin-hours",
                 "6"], [], "weather.json"),
    ("watch-once", ["watch", "log.csv", "--once", "--json", "watch.json"],
     ["watch.json"], "watch-metrics.json"),
    ("profile", ["profile", "--requests", "20000", "--threads", "2"], None,
     "profile.json"),
    # Usage errors exit 2 and write nothing to stdout.
    ("no-command", [], [], None),
    ("unknown-command", ["frobnicate", "log.csv"], [], None),
    ("unknown-flag", ["stats", "log.csv", "--typo"], [], None),
    ("missing-input", ["stats"], [], None),
    ("missing-out", ["generate", "--requests", "10"], [], None),
    ("bad-format", ["generate", "--out", "x.csv", "--format", "parquet"], [],
     None),
    ("bad-class", ["top", "log.csv", "--class", "blocked"], [], None),
    ("missing-keyword", ["weather", "log.csv"], [], None),
    ("convert-one-arg", ["convert", "log.csv"], [], None),
    ("profile-stray-arg", ["profile", "stray"], [], None),
    # Each command refuses a flag it does not take.
    ("refuse-generate-keyword", ["generate", "--out", "x.csv", "--keyword",
                                 "a"], [], None),
    ("refuse-verify-threads", ["verify", "ck", "--threads", "2"], [], None),
    ("refuse-convert-threads", ["convert", "log.csv", "x.col", "--threads",
                                "2"], [], None),
    ("refuse-inspect-seed", ["inspect", "log.csv", "--seed", "1"], [], None),
    ("refuse-report-k", ["report", "log.csv", "--k", "3"], [], None),
    ("refuse-stats-class", ["stats", "log.csv", "--class", "allowed"], [],
     None),
    ("refuse-top-keyword", ["top", "log.csv", "--keyword", "a"], [], None),
    ("refuse-discover-k", ["discover", "log.csv", "--k", "3"], [], None),
    ("refuse-users-seed", ["users", "log.csv", "--seed", "1"], [], None),
    ("refuse-redirects-overview", ["redirects", "log.csv", "--overview"], [],
     None),
    ("refuse-weather-class", ["weather", "log.csv", "--keyword", "a",
                              "--class", "allowed"], [], None),
    ("refuse-watch-format", ["watch", "log.csv", "--once", "--format", "csv"],
     [], None),
    ("refuse-watch-threads", ["watch", "log.csv", "--once", "--threads", "2"],
     [], None),
    ("refuse-profile-format", ["profile", "--format", "csv"], [], None),
    # Bad values: each is refused with a message instead of a crash.
    ("inspect-bin-zero", ["inspect", "log.csv", "--bin-hours", "0"], [], None),
    ("inspect-bin-negative", ["inspect", "log.col", "--bin-hours", "-1"], [],
     None),
    ("inspect-bin-overflow", ["inspect", "log.csv", "--bin-hours",
                              "2562047788015216"], [], None),
    ("watch-bin-zero", ["watch", "log.csv", "--once", "--bin", "0"], [], None),
    ("watch-window-bins-zero", ["watch", "log.csv", "--once",
                                "--window-bins", "0"], [], None),
    ("generate-deadline-abc", ["generate", "--out", "x.csv", "--requests",
                               "100", "--deadline", "abc"], ["x.csv"], None),
    ("watch-deadline-abc", ["watch", "log.csv", "--once", "--deadline",
                            "abc"], [], None),
    ("generate-stray-arg", ["generate", "stray-arg", "--out", "x.csv",
                            "--requests", "100"], ["x.csv"], None),
    # A finished checkpoint's spool was promoted to ck.csv; watch reads it
    # there, so this matches watch-once.
    ("watch-finished-checkpoint", ["watch", "ck", "--once", "--json",
                                   "ck-watch.json"], ["ck-watch.json"], None),
    # A failed run still writes its --metrics document.
    ("convert-missing-input", ["convert", "missing.csv", "out.col"],
     ["out.col"], "convert-missing.json"),
    # Manifests made only of '[' (see make_deep_manifests) get a typed
    # error, not a stack overflow.
    ("verify-deep-manifest", ["verify", "deep30k"], [], None),
    ("verify-1mib-manifest", ["verify", "deep1m/manifest.json"], [], None),
    ("resume-deep-manifest", ["generate", "--out", "r.csv", "--requests",
                              "1000", "--checkpoint-dir", "deep30k",
                              "--resume"], ["r.csv"], None),
    ("watch-deep-manifest", ["watch", "deep30k", "--interval", "1",
                             "--deadline", "0.3"], None, None),
]


def make_deep_manifests(workdir):
    for name, size in (("deep30k", 30000), ("deep1m", 1 << 20)):
        os.makedirs(os.path.join(workdir, name))
        with open(os.path.join(workdir, name, "manifest.json"), "w") as out:
            out.write("[" * size)


def crc(data):
    return "%08x" % (zlib.crc32(data) & 0xFFFFFFFF)


def metrics_summary(path):
    if not os.path.exists(path):
        return "metrics=absent"
    with open(path) as handle:
        doc = json.load(handle)
    if doc.get("schema") != "syrwatch.metrics.v1":
        return "metrics=bad-schema"
    phases = ",".join(phase["name"] for phase in doc["phases"])
    return "metrics=%s:%s" % (doc["command"], phases)


def run_case(ctl, workdir, name, args, files, metrics):
    argv = [ctl, *args]
    if metrics is not None:
        argv += ["--metrics", metrics]
    result = subprocess.run(argv, cwd=workdir, stdout=subprocess.PIPE,
                            stderr=subprocess.PIPE, timeout=600)
    fields = [name, "exit=%d" % result.returncode]
    if files is None:
        # Timings: only the exit code is stable.
        fields.append("stdout=timings")
    else:
        fields.append("stdout=%d:%s" % (len(result.stdout), crc(result.stdout)))
        for path in files:
            full = os.path.join(workdir, path)
            if os.path.exists(full):
                with open(full, "rb") as handle:
                    fields.append("%s=%s" % (path, crc(handle.read())))
            else:
                fields.append("%s=absent" % path)
    if metrics is not None:
        fields.append(metrics_summary(os.path.join(workdir, metrics)))
    return " ".join(fields), result.stderr.decode(errors="replace")


def main():
    if len(sys.argv) not in (3, 4) or (len(sys.argv) == 4 and
                                       sys.argv[3] != "--bless"):
        sys.exit("usage: cli_golden.py SYRWATCHCTL GOLDEN [--bless]")
    ctl, golden = os.path.abspath(sys.argv[1]), sys.argv[2]
    bless = len(sys.argv) == 4

    lines = []
    with tempfile.TemporaryDirectory(prefix="syrwatch-cli-") as workdir:
        make_deep_manifests(workdir)
        for name, args, files, metrics in CASES:
            line, stderr = run_case(ctl, workdir, name, args, files, metrics)
            lines.append(line)
            print(line)
            if stderr:
                print("  stderr: " + stderr.strip().splitlines()[0][:200])

    if bless:
        with open(golden, "w") as handle:
            handle.write(HEADER + "\n".join(lines) + "\n")
        print("blessed %s (%d invocations)" % (golden, len(lines)))
        return

    with open(golden) as handle:
        expected = [line.rstrip("\n") for line in handle
                    if line.strip() and not line.startswith("#")]
    mismatches = 0
    expected_by_name = {line.split(" ", 1)[0]: line for line in expected}
    for line in lines:
        want = expected_by_name.pop(line.split(" ", 1)[0], None)
        if want != line:
            mismatches += 1
            print("MISMATCH\n  expected: %s\n  actual:   %s" % (want, line))
    for name in expected_by_name:
        mismatches += 1
        print("MISSING from this run: %s" % name)
    if mismatches:
        sys.exit("%d invocation(s) differ from %s" % (mismatches, golden))
    print("all %d invocations match %s" % (len(lines), golden))


if __name__ == "__main__":
    main()
