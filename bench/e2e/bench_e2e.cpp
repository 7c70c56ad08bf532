// bench_e2e — end-to-end and per-layer benchmark of syrwatch.
//
//   bench_e2e [--workload W[,W...]] [--seed S] [--seconds T] [--reps R]
//             [--trace 0|1] [--out FILE] [--trace-file FILE]
//             [--git-sha SHA] --work DIR
//       Set-up: generate the seed's corpus (csv + SYRCOL1, kRequests
//       requests) three times and check the copies are identical. Then, per
//       workload, a closed loop (one client, one op at a time) runs the
//       real syrwatchctl until at least T seconds and R ops have passed,
//       checks every op's output against the corpus, and reports medians.
//       Times are host-adjusted: each op's is scaled by kReferenceProbeMs
//       over the mean of the host probes run just before and just after
//       it (the measured values are printed as raw_*). --trace 0 reports
//       the end-to-end metrics only, --trace 1 only the per-layer metrics
//       of the traced in-process run; without --trace it reports both.
//       The last line of stdout is one JSON object: correct, attempted,
//       failed, metrics.
//       Exits 1 when any op or check failed.
//
//   bench_e2e compare PARENT.json CHANGE.json --benchmark BENCHMARK.json
//       Per (end-to-end metric, workload): both medians and quartiles, a
//       regression when CHANGE is worse than PARENT by more than the
//       metric's bound, `unresolved` when PARENT's own quartile spread is
//       wider than the bound. A workload or metric PARENT has and CHANGE
//       lacks, a larger failed share of a workload's ops, or a CHANGE that
//       is not `correct` is a regression too. Exits 1 on any regression.
//
//   bench_e2e smoke --benchmark BENCHMARK.json --work DIR
//       50k requests, one op per workload, traced run included: asserts
//       every metric BENCHMARK.json names is emitted, then runs report-col
//       on a container with one flipped byte, through the same loop and
//       counting as a real run, and asserts that run counts a failed op
//       and would exit non-zero.

#include <sys/utsname.h>

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <set>
#include <sstream>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

#include "json.h"
#include "layers.h"
#include "process.h"
#include "util/atomic_io.h"
#include "util/cli.h"
#include "util/strings.h"
#include "workloads.h"

namespace bench_e2e {
namespace {

namespace fs = std::filesystem;

/// End-to-end metrics, as BENCHMARK.json lists them.
inline constexpr std::array<MetricSpec, 6> kEndToEnd{{
    {"wall_s", "s"},
    {"records_per_s", "records/s"},
    {"cpu_s", "s"},
    {"peak_rss_mb", "MB"},
    {"disk_bytes_per_record", "B"},
    {"setup_s", "s"},
}};

/// Set-ups per run; setup_s is their median. Three keep a 15 s
/// `--workload` run near 21 s in all.
inline constexpr std::size_t kSetups = 3;

/// Requests the corpus is generated from: 142-143k records, so that a 15 s
/// run holds 5-21 ops. Results, bounds and the checked-in sets assume it.
inline constexpr std::uint64_t kRequests = 200'000;

struct Options {
  std::vector<std::string> workloads;
  std::uint64_t seed = 2011;
  double seconds = 15.0;
  std::size_t reps = 5;
  bool end_to_end = true;
  bool layers = true;
  /// kRequests; only the smoke check runs smaller.
  std::uint64_t requests = kRequests;
  /// When set, report-* ops read this file instead of the corpus: the
  /// smoke check's corrupted container.
  std::string report_input;
  std::string out;
  std::string trace_file;
  std::string work;
  std::string git_sha = "unknown";
};

struct Summary {
  double median = 0.0;
  double q1 = 0.0;
  double q3 = 0.0;
};

/// Median and quartiles; the quartiles follow Python's
/// statistics.quantiles(values, n=4) (its default "exclusive" method).
Summary summarize(std::vector<double> values) {
  std::sort(values.begin(), values.end());
  const std::size_t n = values.size();
  if (n == 0) return {};
  if (n == 1) return {values[0], values[0], values[0]};
  Summary s;
  s.median = n % 2 == 1 ? values[n / 2]
                        : (values[n / 2 - 1] + values[n / 2]) / 2.0;
  const std::size_t m = n + 1;
  double q[3];
  for (std::size_t i = 1; i <= 3; ++i) {
    const std::size_t j = std::clamp<std::size_t>(i * m / 4, 1, n - 1);
    const double delta = static_cast<double>(i * m - j * 4);
    q[i - 1] = (values[j - 1] * (4.0 - delta) + values[j] * delta) / 4.0;
  }
  s.q1 = q[0];
  s.q3 = q[2];
  return s;
}

struct WorkloadResult {
  std::size_t attempted = 0;
  std::size_t failed = 0;
  std::map<std::string, std::vector<double>> samples;
  /// Reported beside the metrics: the raw (unadjusted) times, the host
  /// probe, and durable-stream's write_s / read_s halves.
  std::map<std::string, std::vector<double>> extra;
};

std::string_view extra_unit(std::string_view key) {
  return key.size() > 3 && key.substr(key.size() - 3) == "_ms" ? "ms" : "s";
}

struct RunResult {
  bool correct = false;
  std::size_t attempted = 0;
  std::size_t failed = 0;
  Settings settings;
  Corpus corpus;
  /// Every metric name reported, with workload prefixes stripped.
  std::set<std::string> emitted;
};

std::string cpu_model() {
  std::ifstream in{"/proc/cpuinfo"};
  std::string line;
  while (std::getline(in, line))
    if (line.rfind("model name", 0) == 0) {
      const auto colon = line.find(':');
      if (colon != std::string::npos) return line.substr(colon + 2);
    }
  return "unknown";
}

std::string context_json(const Options& options, const Settings& settings,
                         const Corpus& corpus) {
  utsname host{};
  ::uname(&host);
  std::ostringstream out;
  out << "{\"cmake_build_type\":" << quote(BENCH_E2E_BUILD_TYPE)
      << ",\"compiler\":" << quote(BENCH_E2E_COMPILER)
      << ",\"git_sha\":" << quote(options.git_sha)
      << ",\"nproc\":" << std::thread::hardware_concurrency()
      << ",\"cpu\":" << quote(cpu_model())
      << ",\"kernel\":" << quote(std::string(host.sysname) + " " + host.release)
      << ",\"seed\":" << options.seed
      << ",\"scenario_seed\":" << settings.seed
      << ",\"requests\":" << options.requests
      << ",\"records\":" << corpus.records
      << ",\"csv_bytes\":" << corpus.csv_digest.bytes
      << ",\"col_bytes\":" << corpus.col_digest.bytes
      << ",\"seconds\":" << number(options.seconds)
      << ",\"reps\":" << options.reps << ",\"setups\":" << kSetups
      << ",\"threads\":" << std::thread::hardware_concurrency() << "}";
  return out.str();
}

std::string summary_json(std::string_view unit,
                         const std::vector<double>& samples) {
  const Summary s = summarize(samples);
  std::string out = "{\"unit\":" + quote(unit) + ",\"median\":" +
                    number(s.median) + ",\"q1\":" + number(s.q1) +
                    ",\"q3\":" + number(s.q3) + ",\"samples\":[";
  for (std::size_t i = 0; i < samples.size(); ++i)
    out += (i > 0 ? "," : "") + number(samples[i]);
  return out + "]}";
}

void print_metric(std::string_view name, double value, std::string_view unit,
                  const Summary* spread = nullptr) {
  std::printf("  %-34s %14.6g %-10s", std::string(name).c_str(), value,
              std::string(unit).c_str());
  if (spread != nullptr)
    std::printf(" [q1 %.6g, q3 %.6g]", spread->q1, spread->q3);
  std::printf("\n");
}

/// One workload's closed loop: ops back to back until at least `seconds`
/// have passed and `reps` ops have run.
WorkloadResult measure(WorkloadRunner& runner, const Settings& settings,
                       const Corpus& corpus, std::string_view workload,
                       const Options& options,
                       std::map<std::string, OpResult>& last_ok) {
  WorkloadResult result;
  runner.prepare(workload);
  const auto start = std::chrono::steady_clock::now();
  const auto elapsed = [&] {
    return std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                         start)
        .count();
  };
  const double records = static_cast<double>(corpus.records);
  // The probe before every op, failed ones included, and one after the
  // last: op i ran between probes i and i + 1.
  std::vector<double> probes;
  std::vector<std::size_t> sampled;  ///< op index of each sample
  while (result.attempted < options.reps || elapsed() < options.seconds) {
    OpResult op = runner.run_op(workload, options.report_input);
    probes.push_back(op.probe_ms);
    ++result.attempted;
    if (!op.ok) {
      ++result.failed;
      std::fprintf(stderr, "[%s] op %zu FAILED: %s\n",
                   std::string(workload).c_str(), result.attempted,
                   op.failure.c_str());
      continue;
    }
    sampled.push_back(probes.size() - 1);
    result.samples["peak_rss_mb"].push_back(op.peak_rss_mb);
    result.samples["disk_bytes_per_record"].push_back(op.disk_bytes /
                                                      records);
    result.extra["raw_wall_s"].push_back(op.wall_s);
    result.extra["raw_cpu_s"].push_back(op.cpu_s);
    for (const char* key : {"write_s", "read_s"})
      if (const auto it = op.extra.find(key); it != op.extra.end())
        result.extra[std::string("raw_") + key].push_back(it->second);
    last_ok[std::string(workload)] = std::move(op);
  }
  probes.push_back(probe_host_ms(settings.threads));
  // Each op is scaled by the host speed around it: the host drifts within
  // a run too, and two probes average out much of one probe's jitter.
  for (std::size_t k = 0; k < sampled.size(); ++k) {
    const std::size_t op = sampled[k];
    const double probe_ms = (probes[op] + probes[op + 1]) / 2.0;
    result.extra["probe_ms"].push_back(probe_ms);
    const double wall_s = host_adjusted(result.extra["raw_wall_s"][k], probe_ms);
    result.samples["wall_s"].push_back(wall_s);
    result.samples["records_per_s"].push_back(records / wall_s);
    result.samples["cpu_s"].push_back(
        host_adjusted(result.extra["raw_cpu_s"][k], probe_ms));
    for (const char* key : {"write_s", "read_s"})
      if (const auto raw = result.extra.find(std::string("raw_") + key);
          raw != result.extra.end())
        result.extra[key].push_back(host_adjusted(raw->second[k], probe_ms));
  }
  return result;
}

/// A metric as the last stdout line reports it.
struct Reported {
  std::string key;  ///< "name", or "workload/name" when several ran
  std::string_view unit;
  double value = 0.0;
};

std::string results_json(const Options& options, const Settings& settings,
                         const RunResult& run,
                         const std::map<std::string, WorkloadResult>& results,
                         const std::map<std::string, double>& layers,
                         const std::map<std::string, double>& overhead) {
  const auto object = [](const auto& items, const auto& render) {
    std::string out = "{";
    bool first = true;
    for (const auto& [key, value] : items) {
      out += std::string(first ? "\n" : ",\n") + quote(key) + ":" +
             render(key, value);
      first = false;
    }
    return out + "}";
  };
  std::string json = "{\"schema\":\"syrwatch.bench_e2e.v1\",\"context\":" +
                     context_json(options, settings, run.corpus);
  json += ",\"workloads\":" +
          object(results, [](const std::string&, const WorkloadResult& result) {
            std::string out = "{\"attempted\":" +
                              std::to_string(result.attempted) +
                              ",\"failed\":" + std::to_string(result.failed) +
                              ",\"metrics\":{";
            // A metric without samples (every op failed) is left out.
            bool first = true;
            const auto add = [&](std::string_view key, std::string_view unit,
                                 const std::vector<double>& samples) {
              if (samples.empty()) return;
              out += (first ? "" : ",") + quote(key) + ":" +
                     summary_json(unit, samples);
              first = false;
            };
            for (const MetricSpec& spec : kEndToEnd)
              if (const auto it = result.samples.find(std::string(spec.name));
                  it != result.samples.end())
                add(spec.name, spec.unit, it->second);
            for (const auto& [key, samples] : result.extra)
              add(key, extra_unit(key), samples);
            return out + "}}";
          });
  json += ",\"layers\":" +
          object(layers, [](const std::string& name, double value) {
            std::string_view unit;
            for (const MetricSpec& spec : kLayerMetrics)
              if (spec.name == name) unit = spec.unit;
            return "{\"unit\":" + quote(unit) + ",\"value\":" +
                   number(value) + "}";
          });
  json += ",\"trace_overhead_s\":" +
          object(overhead, [](const std::string&, double value) {
            return number(value);
          });
  return json + ",\"correct\":" + (run.correct ? "true" : "false") +
         ",\"attempted\":" + std::to_string(run.attempted) +
         ",\"failed\":" + std::to_string(run.failed) + "}\n";
}

RunResult run_benchmark(const Options& options) {
  RunResult run;
  Settings& settings = run.settings;
  settings.ctl = BENCH_E2E_SYRWATCHCTL;
  settings.work = options.work;
  settings.seed = scenario_seed(options.seed, settings.threads);
  settings.requests = options.requests;
  fs::create_directories(settings.work);

  std::vector<SetupTiming> setups;
  run.corpus = make_corpus(settings, kSetups, setups);
  const Corpus& corpus = run.corpus;
  std::vector<double> raw_setup_seconds;
  std::vector<double> setup_seconds;
  for (const SetupTiming& timing : setups) {
    raw_setup_seconds.push_back(timing.wall_s);
    setup_seconds.push_back(host_adjusted(timing.wall_s, timing.probe_ms));
  }
  const Summary setup = summarize(setup_seconds);
  std::printf("corpus: --seed %llu -> scenario seed %llu, %s requests -> "
              "%s records; csv %s B, col %s B; syrwatchctl threads/workers "
              "%zu\n",
              static_cast<unsigned long long>(options.seed),
              static_cast<unsigned long long>(settings.seed),
              syrwatch::util::with_commas(settings.requests).c_str(),
              syrwatch::util::with_commas(corpus.records).c_str(),
              syrwatch::util::with_commas(corpus.csv_digest.bytes).c_str(),
              syrwatch::util::with_commas(corpus.col_digest.bytes).c_str(),
              settings.threads);
  std::printf("set-up: %zu x generate --format both, identical output; "
              "times below are host-adjusted to a %.0f ms CPU probe (raw_* "
              "are as measured)\n",
              setups.size(), kReferenceProbeMs);
  print_metric("setup_s", setup.median, "s", &setup);
  const Summary raw_setup = summarize(raw_setup_seconds);
  print_metric("raw_setup_s", raw_setup.median, "s", &raw_setup);

  std::vector<Reported> reported;
  const auto emit = [&](const std::string& workload, const MetricSpec& spec,
                        double value) {
    reported.push_back({options.workloads.size() > 1 && !workload.empty()
                            ? workload + "/" + std::string(spec.name)
                            : std::string(spec.name),
                        spec.unit, value});
    run.emitted.insert(std::string(spec.name));
  };

  WorkloadRunner runner{settings, corpus};
  std::map<std::string, WorkloadResult> results;
  std::map<std::string, OpResult> last_ok;
  if (options.end_to_end) {
    for (const std::string& workload : options.workloads) {
      WorkloadResult& result = results[workload];
      result = measure(runner, settings, corpus, workload, options, last_ok);
      result.samples["setup_s"] = setup_seconds;
      result.extra["raw_setup_s"] = raw_setup_seconds;
      run.attempted += result.attempted;
      run.failed += result.failed;
      std::printf("== %s: %zu ops, %zu failed (closed loop, 1 client)\n",
                  workload.c_str(), result.attempted, result.failed);
      for (const MetricSpec& spec : kEndToEnd) {
        const auto samples = result.samples.find(std::string(spec.name));
        if (samples == result.samples.end() || samples->second.empty())
          continue;  // every op failed: nothing was measured
        const Summary s = summarize(samples->second);
        print_metric(spec.name, s.median, spec.unit, &s);
        emit(workload, spec, s.median);
      }
      for (const auto& [key, samples] : result.extra) {
        const Summary s = summarize(samples);
        print_metric(key, s.median, extra_unit(key), &s);
      }
    }
  }

  std::map<std::string, double> layer_values;
  std::map<std::string, double> overhead;
  if (options.layers) {
    // The registry-backed layer metrics read one checked untraced op of
    // every workload; reuse the measured ones where they exist.
    for (const std::string_view name : kWorkloads) {
      const std::string workload{name};
      if (last_ok.count(workload) != 0) continue;
      runner.prepare(workload);
      OpResult op = runner.run_op(workload);
      ++run.attempted;
      if (!op.ok) {
        ++run.failed;
        std::fprintf(stderr, "[%s] untraced op FAILED: %s\n", workload.c_str(),
                     op.failure.c_str());
        continue;
      }
      last_ok[workload] = std::move(op);
    }
    runner.prepare("report-col");
    const std::string trace_path = options.trace_file.empty()
                                       ? settings.work + "/trace.json"
                                       : options.trace_file;
    const LayerReport layers = run_layers(settings, corpus, last_ok,
                                          runner.report_digest(), trace_path);
    run.attempted += layers.attempted;
    run.failed += layers.failures.size();
    for (const std::string& failure : layers.failures)
      std::fprintf(stderr, "traced run FAILED: %s\n", failure.c_str());
    std::fputs(layers.self_time_table.c_str(), stdout);
    std::printf("== per-layer metrics (traced run; Chrome trace: %s)\n",
                trace_path.c_str());
    // One more traced check: every layer metric was measured and reads
    // above zero. A stage or counter renamed in the program shows here.
    std::vector<std::string> unmeasured;
    for (const MetricSpec& spec : kLayerMetrics) {
      const std::string name{spec.name};
      const auto it = layers.metrics.find(name);
      if (it == layers.metrics.end()) {
        unmeasured.push_back(name + " was not measured");
        continue;
      }
      if (!(std::isfinite(it->second) && it->second > 0.0))
        unmeasured.push_back(name + " reads " + std::to_string(it->second));
      print_metric(spec.name, it->second, spec.unit);
      emit("", spec, it->second);
      layer_values[name] = it->second;
    }
    ++run.attempted;
    if (!unmeasured.empty()) ++run.failed;
    for (const std::string& why : unmeasured)
      std::fprintf(stderr, "layer metric FAILED: %s\n", why.c_str());
    for (const std::string& workload : options.workloads) {
      const auto traced = layers.workload_seconds.find(workload);
      const auto untraced = last_ok.find(workload);
      if (traced == layers.workload_seconds.end() || untraced == last_ok.end())
        continue;
      overhead[workload] = traced->second - untraced->second.wall_s;
      std::printf("  %s: traced steps %.4f s, untraced wall_s %.4f s\n",
                  workload.c_str(), traced->second, untraced->second.wall_s);
      print_metric(kTraceOverhead.name, overhead[workload],
                   kTraceOverhead.unit);
      emit(workload, kTraceOverhead, overhead[workload]);
    }
  }

  run.correct = run.failed == 0;
  if (!options.out.empty()) {
    syrwatch::util::atomic_write_file(
        options.out,
        results_json(options, settings, run, results, layer_values, overhead));
    std::printf("results written to %s\n", options.out.c_str());
  }

  std::string line = std::string("{\"correct\":") +
                     (run.correct ? "true" : "false") +
                     ",\"attempted\":" + std::to_string(run.attempted) +
                     ",\"failed\":" + std::to_string(run.failed) +
                     ",\"metrics\":{";
  for (const Reported& metric : reported)
    line += (&metric == &reported.front() ? "" : ",") + quote(metric.key) +
            ":{\"value\":" + number(metric.value) +
            ",\"unit\":" + quote(metric.unit) + "}";
  std::fflush(stderr);
  std::printf("%s}}\n", line.c_str());
  std::fflush(stdout);
  return run;
}

/// The exit code of a measuring run: 1 when any op or check failed.
int exit_code(const RunResult& run) { return run.correct ? 0 : 1; }

// ---- compare -------------------------------------------------------------

struct Bound {
  std::string name;
  bool lower_is_better = true;
  double bound = 0.0;
};

std::vector<Bound> end_to_end_bounds(const Json& benchmark) {
  std::vector<Bound> bounds;
  const Json* list = benchmark.find("end_to_end");
  if (list == nullptr || list->kind != Json::Kind::kArray)
    throw std::runtime_error("BENCHMARK.json: no end_to_end list");
  for (const Json& metric : list->array) {
    const Json* name = metric.find("name");
    const Json* better = metric.find("better");
    if (name == nullptr || better == nullptr)
      throw std::runtime_error("BENCHMARK.json: end_to_end entry without "
                               "name/better");
    bounds.push_back(
        {name->string, better->string == "lower", metric.number_at("bound")});
  }
  return bounds;
}

int compare(const std::string& parent_path, const std::string& change_path,
            const std::string& benchmark_path) {
  const Json parent = load_json(parent_path);
  const Json change = load_json(change_path);
  const std::vector<Bound> bounds =
      end_to_end_bounds(load_json(benchmark_path));
  const Json* parent_workloads = parent.find("workloads");
  const Json* change_workloads = change.find("workloads");
  if (parent_workloads == nullptr || change_workloads == nullptr)
    throw std::runtime_error("compare: both files need a \"workloads\" map");

  std::size_t regressions = 0;
  std::size_t unresolved = 0;
  // Failures first: a change may not fail more of its ops than its
  // parent, and every workload the parent measured must be measured.
  const Json* correct = change.find("correct");
  if (correct == nullptr || correct->kind != Json::Kind::kBool ||
      !correct->boolean) {
    std::printf("REGRESSION: CHANGE is not correct (failed %g of %g ops)\n",
                change.number_at("failed"), change.number_at("attempted"));
    ++regressions;
  }
  std::printf("%-22s %-15s %-34s %-34s %8s %6s  %s\n", "failed ops",
              "workload", "parent failed/attempted", "change failed/attempted",
              "", "", "verdict");
  for (const auto& [workload, p] : parent_workloads->object) {
    const Json* c = change_workloads->find(workload);
    const auto failed_share = [](const Json& w) {
      const double attempted = w.number_at("attempted");
      return attempted > 0.0 ? w.number_at("failed") / attempted : 1.0;
    };
    const char* verdict = "ok";
    if (c == nullptr || failed_share(*c) > failed_share(p)) {
      verdict = c == nullptr ? "REGRESSION (missing)" : "REGRESSION";
      ++regressions;
    }
    const auto ops = [](const Json* w) {
      return w == nullptr ? std::string("-")
                          : number(w->number_at("failed")) + "/" +
                                number(w->number_at("attempted"));
    };
    std::printf("%-22s %-15s %-34s %-34s %8s %6s  %s\n", "failed ops",
                workload.c_str(), ops(&p).c_str(), ops(c).c_str(), "", "",
                verdict);
  }

  std::printf("%-22s %-15s %-34s %-34s %8s %6s  %s\n", "metric", "workload",
              "parent median [q1, q3]", "change median [q1, q3]", "worse",
              "bound", "verdict");
  const auto cell = [](const Json* m) {
    if (m == nullptr) return std::string("-");
    char text[64];
    std::snprintf(text, sizeof text, "%.6g [%.6g, %.6g]",
                  m->number_at("median"), m->number_at("q1"),
                  m->number_at("q3"));
    return std::string(text);
  };
  for (const Bound& bound : bounds) {
    for (const auto& [workload, p] : parent_workloads->object) {
      const Json* c = change_workloads->find(workload);
      const Json* pm = p.find("metrics");
      const Json* cm = c == nullptr ? nullptr : c->find("metrics");
      pm = pm == nullptr ? nullptr : pm->find(bound.name);
      cm = cm == nullptr ? nullptr : cm->find(bound.name);
      char worse_cell[32] = "-";
      const char* verdict = "ok";
      if (pm == nullptr) {
        verdict = "unresolved (no parent value)";
        ++unresolved;
      } else if (cm == nullptr) {
        verdict = "REGRESSION (missing)";
        ++regressions;
      } else {
        const double pmed = pm->number_at("median");
        const double cmed = cm->number_at("median");
        const double worse =
            pmed == 0.0 ? 0.0
                        : (bound.lower_is_better ? cmed - pmed : pmed - cmed) /
                              pmed;
        std::snprintf(worse_cell, sizeof worse_cell, "%+.2f%%", worse * 100.0);
        const double spread =
            pmed == 0.0 ? 0.0
                        : (pm->number_at("q3") - pm->number_at("q1")) / pmed;
        if (spread > bound.bound) {
          verdict = "unresolved";
          ++unresolved;
        } else if (worse > bound.bound) {
          verdict = "REGRESSION";
          ++regressions;
        }
      }
      std::printf("%-22s %-15s %-34s %-34s %8s %5.1f%%  %s\n",
                  bound.name.c_str(), workload.c_str(), cell(pm).c_str(),
                  cell(cm).c_str(), worse_cell, bound.bound * 100.0, verdict);
    }
  }
  std::printf("%zu regression(s), %zu unresolved\n", regressions, unresolved);
  return regressions > 0 ? 1 : 0;
}

// ---- smoke ---------------------------------------------------------------

std::vector<std::string> benchmark_names(const Json& benchmark,
                                         std::string_view list) {
  std::vector<std::string> names;
  if (const Json* entries = benchmark.find(list))
    for (const Json& entry : entries->array)
      if (const Json* name = entry.find("name")) names.push_back(name->string);
  return names;
}

int smoke(Options options, const std::string& benchmark_path) {
  const Json benchmark = load_json(benchmark_path);
  options.requests = 50'000;
  options.reps = 1;
  options.seconds = 0.0;
  options.end_to_end = true;
  options.layers = true;
  options.workloads.assign(kWorkloads.begin(), kWorkloads.end());
  const RunResult run = run_benchmark(options);

  bool ok = run.correct;
  if (!run.correct) std::printf("smoke: FAIL — the full run had failures\n");
  if (benchmark_names(benchmark, "workloads") !=
      std::vector<std::string>(kWorkloads.begin(), kWorkloads.end())) {
    std::printf("smoke: FAIL — BENCHMARK.json workloads differ from the "
                "harness's\n");
    ok = false;
  }
  std::set<std::string> listed;
  for (const char* list : {"end_to_end", "per_layer"})
    for (const std::string& name : benchmark_names(benchmark, list)) {
      listed.insert(name);
      if (run.emitted.count(name) == 0) {
        std::printf("smoke: FAIL — BENCHMARK.json metric %s not emitted\n",
                    name.c_str());
        ok = false;
      }
    }
  for (const std::string& name : run.emitted)
    if (listed.count(name) == 0) {
      std::printf("smoke: FAIL — emitted metric %s missing from "
                  "BENCHMARK.json\n",
                  name.c_str());
      ok = false;
    }

  // Failure accounting: a report-col run whose ops read a copy of the
  // container with one flipped byte must count them as failed and exit
  // non-zero, through the same loop and counting as a real run.
  const std::string corrupt = run.settings.work + "/corrupt.col";
  fs::copy_file(run.corpus.col, corrupt, fs::copy_options::overwrite_existing);
  {
    std::fstream file{corrupt,
                      std::ios::in | std::ios::out | std::ios::binary};
    const std::streamoff middle =
        static_cast<std::streamoff>(run.corpus.col_digest.bytes / 2);
    file.seekg(middle);
    const char byte = static_cast<char>(file.get() ^ 0x20);
    file.seekp(middle);
    file.put(byte);
  }
  Options corrupted = options;
  corrupted.workloads = {"report-col"};
  corrupted.layers = false;
  corrupted.report_input = corrupt;
  corrupted.out.clear();
  std::printf("smoke: report-col on a container with one flipped byte\n");
  const RunResult bad = run_benchmark(corrupted);
  fs::remove(corrupt);
  const double failed_share =
      static_cast<double>(bad.failed) / static_cast<double>(bad.attempted);
  std::printf("smoke: corrupted container -> %zu of %zu ops failed "
              "(failed_share %.2f), exit code %d\n",
              bad.failed, bad.attempted, failed_share, exit_code(bad));
  if (!(failed_share > 0.0) || bad.correct || exit_code(bad) == 0) {
    std::printf("smoke: FAIL — a corrupted input was not counted as a "
                "failed op\n");
    ok = false;
  }
  std::printf("smoke: %s\n", ok ? "PASS" : "FAIL");
  return ok ? 0 : 1;
}

std::vector<std::string> split_list(std::string_view text) {
  std::vector<std::string> items;
  std::size_t start = 0;
  while (start <= text.size()) {
    const std::size_t comma = text.find(',', start);
    const std::size_t end =
        comma == std::string_view::npos ? text.size() : comma;
    if (end > start) items.emplace_back(text.substr(start, end - start));
    start = end + 1;
  }
  return items;
}

int usage(const std::string& error) {
  std::fprintf(stderr,
               "bench_e2e: %s\n"
               "usage: bench_e2e [--workload W[,W...]] [--seed S] "
               "[--seconds T] [--reps R] [--trace 0|1] "
               "[--out FILE] [--trace-file FILE] "
               "[--git-sha SHA] --work DIR\n"
               "       bench_e2e compare PARENT.json CHANGE.json "
               "--benchmark BENCHMARK.json\n"
               "       bench_e2e smoke --benchmark BENCHMARK.json "
               "--work DIR\n",
               error.c_str());
  return 2;
}

int main_impl(int argc, char** argv) {
  syrwatch::util::CliFlags flags;
  for (const char* flag :
       {"--workload", "--seed", "--seconds", "--reps", "--trace", "--out",
        "--trace-file", "--work", "--benchmark", "--git-sha"})
    flags.value_flag(flag);
  if (!flags.parse(argc, argv, 1)) return usage(flags.error());

  Options options;
  options.seed = flags.get_u64("--seed", options.seed);
  options.seconds = static_cast<double>(flags.get_u64(
      "--seconds", static_cast<std::uint64_t>(options.seconds)));
  options.reps = static_cast<std::size_t>(flags.get_u64("--reps", options.reps));
  options.out = std::string(flags.get("--out").value_or(""));
  options.trace_file = std::string(flags.get("--trace-file").value_or(""));
  options.work = std::string(flags.get("--work").value_or(""));
  options.git_sha = std::string(flags.get("--git-sha").value_or("unknown"));
  if (const auto trace = flags.get("--trace")) {
    if (*trace != "0" && *trace != "1")
      return usage("--trace takes 0 or 1");
    options.end_to_end = *trace == "0";
    options.layers = *trace == "1";
  }
  const std::string workloads{flags.get("--workload").value_or("")};
  options.workloads = workloads.empty()
                          ? std::vector<std::string>(kWorkloads.begin(),
                                                     kWorkloads.end())
                          : split_list(workloads);
  for (const std::string& workload : options.workloads)
    if (!is_workload(workload)) return usage("unknown workload " + workload);

  const auto& positional = flags.positional();
  const std::string benchmark{flags.get("--benchmark").value_or("")};
  if (!positional.empty() && positional[0] == "compare") {
    if (positional.size() != 3 || benchmark.empty())
      return usage("compare needs PARENT.json CHANGE.json --benchmark FILE");
    return compare(positional[1], positional[2], benchmark);
  }
  if (options.work.empty()) return usage("--work DIR is required");
  options.work = fs::absolute(options.work).string();
  supervise_children();
  if (!positional.empty() && positional[0] == "smoke") {
    if (positional.size() != 1 || benchmark.empty())
      return usage("smoke needs --benchmark FILE");
    return smoke(options, benchmark);
  }
  if (!positional.empty()) return usage("unexpected argument " + positional[0]);
  return exit_code(run_benchmark(options));
}

}  // namespace
}  // namespace bench_e2e

int main(int argc, char** argv) {
  try {
    return bench_e2e::main_impl(argc, argv);
  } catch (const std::exception& error) {
    std::fprintf(stderr, "bench_e2e: %s\n", error.what());
    return 1;
  }
}
