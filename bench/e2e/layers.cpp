#include "layers.h"

#include <sys/resource.h>
#include <unistd.h>

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <filesystem>
#include <memory>
#include <numeric>
#include <optional>
#include <stdexcept>

#include "analysis/scan.h"
#include "analysis/stream.h"
#include "analysis/stream_report.h"
#include "colfmt/container.h"
#include "core/report.h"
#include "durable/checkpoint.h"
#include "durable/manifest.h"
#include "obs/context.h"
#include "obs/metrics.h"
#include "policy/syria.h"
#include "proxy/log_io.h"
#include "shard/coordinator.h"
#include "shard/merge.h"
#include "shard/plan.h"
#include "util/atomic_io.h"
#include "util/parallel.h"
#include "util/rng.h"
#include "util/simtime.h"
#include "util/table.h"
#include "workload/scenario.h"

namespace bench_e2e {

namespace {

namespace fs = std::filesystem;
using namespace syrwatch;

std::uint64_t now_ns() {
  return static_cast<std::uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(
          std::chrono::steady_clock::now().time_since_epoch())
          .count());
}

/// In-memory span recorder for the bench's own call sites. Spans nest by
/// scope on the calling thread; a root span is a workload (or the probe
/// group), and every span below it carries that root's name.
class Tracer {
 public:
  struct Span {
    std::string name;
    std::string root;
    int parent = -1;
    std::uint64_t start = 0;
    std::uint64_t end = 0;
    std::map<std::string, double> args;

    double seconds() const { return static_cast<double>(end - start) * 1e-9; }
  };

  /// One span, open from construction to stop() (or destruction).
  class Scope {
   public:
    Scope(Tracer& tracer, std::string name)
        : tracer_(tracer), index_(tracer.open(std::move(name))) {}
    Scope(const Scope&) = delete;
    Scope& operator=(const Scope&) = delete;
    ~Scope() { stop(); }

    /// Closes the span; returns its duration in seconds.
    double stop() {
      if (open_) {
        tracer_.close(index_);
        open_ = false;
      }
      return tracer_.spans_[index_].seconds();
    }
    void arg(const std::string& key, double value) {
      tracer_.spans_[index_].args[key] = value;
    }

   private:
    Tracer& tracer_;
    std::size_t index_;
    bool open_ = true;
  };

  /// Total seconds of every span named `name`.
  double total(std::string_view name) const {
    double seconds = 0.0;
    for (const Span& span : spans_)
      if (span.name == name) seconds += span.seconds();
    return seconds;
  }

  /// Seconds of the root span `root`.
  double root_seconds(std::string_view root) const {
    for (const Span& span : spans_)
      if (span.parent < 0 && span.name == root) return span.seconds();
    return 0.0;
  }

  std::string chrome_json() const {
    const std::uint64_t origin = spans_.empty() ? 0 : spans_.front().start;
    const long pid = static_cast<long>(::getpid());
    std::string out = "{\"displayTimeUnit\":\"ms\",\"traceEvents\":[";
    for (std::size_t i = 0; i < spans_.size(); ++i) {
      const Span& s = spans_[i];
      if (i > 0) out += ",";
      out += "\n{\"name\":" + quote(s.name) + ",\"cat\":" + quote(s.root) +
             ",\"ph\":\"X\",\"pid\":" + std::to_string(pid) +
             ",\"tid\":1,\"ts\":" +
             number(static_cast<double>(s.start - origin) * 1e-3) +
             ",\"dur\":" +
             number(static_cast<double>(s.end - s.start) * 1e-3) +
             ",\"args\":{\"workload\":" + quote(s.root) +
             ",\"span_id\":" + std::to_string(i) +
             ",\"parent_id\":" + std::to_string(s.parent);
      for (const auto& [key, value] : s.args) {
        out += ',';
        out += quote(key);
        out += ':';
        out += number(value);
      }
      out += "}}";
    }
    return out + "\n]}\n";
  }

  /// Per (workload, span name): calls, total and self time — a span's
  /// duration minus the part its child spans cover.
  std::string self_time_table() const {
    std::vector<double> child(spans_.size(), 0.0);
    for (const Span& s : spans_)
      if (s.parent >= 0)
        child[static_cast<std::size_t>(s.parent)] += s.seconds();
    struct Row {
      std::size_t first = 0;
      std::size_t calls = 0;
      double total = 0.0;
      double self = 0.0;
    };
    std::map<std::pair<std::string, std::string>, Row> rows;
    for (std::size_t i = 0; i < spans_.size(); ++i) {
      const Span& s = spans_[i];
      auto [it, fresh] = rows.try_emplace({s.root, s.name});
      if (fresh) it->second.first = i;
      ++it->second.calls;
      it->second.total += s.seconds();
      it->second.self += s.seconds() - child[i];
    }
    std::vector<std::pair<std::pair<std::string, std::string>, Row>> ordered(
        rows.begin(), rows.end());
    std::sort(ordered.begin(), ordered.end(), [](const auto& a, const auto& b) {
      return a.second.first < b.second.first;
    });
    util::TextTable table{{"Workload", "Span", "Calls", "Total s", "Self s"}};
    for (const auto& [key, row] : ordered) {
      char total[32];
      char self[32];
      std::snprintf(total, sizeof total, "%.4f", row.total);
      std::snprintf(self, sizeof self, "%.4f", row.self);
      table.add_row({key.first, key.second, std::to_string(row.calls), total,
                     self});
    }
    return util::titled_block("Traced run: self time per span", table);
  }

 private:
  std::size_t open(std::string name) {
    Span span;
    span.root = stack_.empty() ? name : spans_[stack_.front()].name;
    span.name = std::move(name);
    span.parent = stack_.empty() ? -1 : static_cast<int>(stack_.back());
    span.start = now_ns();
    spans_.push_back(std::move(span));
    stack_.push_back(spans_.size() - 1);
    return spans_.size() - 1;
  }

  void close(std::size_t index) {
    spans_[index].end = now_ns();
    // Scopes close in reverse order of opening (they are block-scoped).
    if (!stack_.empty() && stack_.back() == index) stack_.pop_back();
  }

  std::vector<Span> spans_;
  std::vector<std::size_t> stack_;
};

/// User + system seconds of this process and of its reaped children.
double cpu_seconds() {
  double total = 0.0;
  for (const int who : {RUSAGE_SELF, RUSAGE_CHILDREN}) {
    rusage usage{};
    ::getrusage(who, &usage);
    const timeval& user = usage.ru_utime;
    const timeval& sys = usage.ru_stime;
    total += static_cast<double>(user.tv_sec + sys.tv_sec) +
             static_cast<double>(user.tv_usec + sys.tv_usec) * 1e-6;
  }
  return total;
}

workload::ScenarioConfig generate_config(const Settings& settings,
                                         std::size_t threads) {
  workload::ScenarioConfig config;
  config.total_requests = settings.requests;
  config.seed = settings.seed;
  config.threads = threads;
  return config;
}

util::FileDigest digest_of(const util::ArtifactInfo& info) {
  return {info.bytes, info.crc32};
}

// Readers for the untraced ops' syrwatch.metrics.v1 documents.
const Json* metrics_doc(const std::map<std::string, OpResult>& untraced,
                        const std::string& workload, const std::string& step) {
  const auto op = untraced.find(workload);
  if (op == untraced.end()) return nullptr;
  const auto doc = op->second.metrics.find(step);
  return doc == op->second.metrics.end() ? nullptr : &doc->second;
}

// Each returns nothing when the document lacks the value, so a renamed
// stage, counter or phase leaves its metric unmeasured instead of 0.
std::optional<double> as_number(const Json* value) {
  if (value == nullptr || value->kind != Json::Kind::kNumber)
    return std::nullopt;
  return value->number;
}

std::optional<double> stage_seconds(const Json* doc, std::string_view name) {
  const Json* stages = doc == nullptr ? nullptr : doc->find("stages");
  const Json* stage = stages == nullptr ? nullptr : stages->find(name);
  return as_number(stage == nullptr ? nullptr : stage->find("total_seconds"));
}

std::optional<double> counter_value(const Json* doc, std::string_view name) {
  const Json* counters = doc == nullptr ? nullptr : doc->find("counters");
  return as_number(counters == nullptr ? nullptr : counters->find(name));
}

std::optional<double> phase_seconds(const Json* doc, std::string_view name) {
  const Json* phases = doc == nullptr ? nullptr : doc->find("phases");
  if (phases == nullptr) return std::nullopt;
  for (const Json& phase : phases->array) {
    const Json* phase_name = phase.find("name");
    if (phase_name != nullptr && phase_name->string == name)
      return as_number(phase.find("seconds"));
  }
  return std::nullopt;
}

/// The traced pass itself: one method per workload group and per probe.
class LayerRun {
 public:
  LayerRun(const Settings& settings, const Corpus& corpus,
           const util::FileDigest& report_digest)
      : settings_(settings),
        corpus_(corpus),
        report_digest_(report_digest),
        dir_(settings.work + "/traced") {}

  LayerReport run(const std::map<std::string, OpResult>& untraced,
                  const std::string& trace_path) {
    fs::remove_all(dir_);
    fs::create_directories(dir_);
    guarded("generate", [&] { generate(); });
    guarded("report-col", [&] { report(corpus_.col, "col"); });
    guarded("report-csv", [&] { report(corpus_.csv, "csv"); });
    guarded("durable-stream", [&] { durable_stream(); });
    guarded("sharded", [&] { sharded(); });
    guarded("probes", [&] { probes(); });
    fs::remove_all(dir_);

    registry_metrics(untraced);
    for (const std::string_view workload : kWorkloads)
      report_.workload_seconds[std::string(workload)] =
          tracer_.root_seconds(workload);
    report_.self_time_table = tracer_.self_time_table();
    util::atomic_write_file(trace_path, tracer_.chrome_json());
    return std::move(report_);
  }

 private:
  template <typename Fn>
  void guarded(const std::string& group, Fn&& fn) {
    ++report_.attempted;
    try {
      fn();
    } catch (const std::exception& error) {
      report_.failures.push_back(group + ": " + error.what());
    }
  }

  /// A failed check aborts its group, which counts as one failed op.
  static void check(bool ok, const std::string& what) {
    if (!ok) throw std::runtime_error(what);
  }

  /// Records a metric; an absent value leaves it unmeasured.
  void set(std::string_view name, std::optional<double> value) {
    if (value) report_.metrics[std::string(name)] = *value;
  }

  /// `generate --out X --threads T`: scenario, run, csv sink, commit.
  void generate() {
    Tracer::Scope group{tracer_, "generate"};
    Tracer::Scope build{tracer_, "workload.scenario_build"};
    workload::SyriaScenario scenario{
        generate_config(settings_, settings_.threads)};
    set("workload.scenario_build_s", build.stop());

    util::AtomicFileWriter out{dir_ + "/generate.csv"};
    out.write(proxy::log_csv_header());
    out.write("\n");
    double to_csv_s = 0.0;
    Tracer::Scope run{tracer_, "workload.scenario_run"};
    scenario.run([&](const proxy::LogRecord& record) {
      const std::uint64_t start = now_ns();
      const std::string line = proxy::to_csv(record);
      to_csv_s += static_cast<double>(now_ns() - start) * 1e-9;
      out.write(line);
      out.write("\n");
    });
    run.arg("to_csv_s", to_csv_s);
    scenario_run_s_ = run.stop();
    to_csv_s_ = to_csv_s;

    Tracer::Scope commit{tracer_, "util.atomic_commit"};
    const util::ArtifactInfo info = out.commit();
    commit.stop();
    check(same(digest_of(info), corpus_.csv_digest),
          "traced csv differs from the corpus");
    set("proxy.to_csv_mb_per_s",
        static_cast<double>(info.bytes) * 1e-6 / to_csv_s);
  }

  /// `report FILE --threads T --seed S`: open, environment, derive
  /// (the CLI's time-ordered Dsample draw, then scan-layer views), render.
  void report(const std::string& path, const std::string& format) {
    Tracer::Scope group{tracer_, "report-" + format};
    const std::size_t threads = settings_.threads;
    Tracer::Scope open{tracer_, "analysis." + format + "_open"};
    const analysis::OpenedSource loaded =
        analysis::open_source(path, {.format = format, .threads = threads});
    set("analysis." + format + "_open_s", open.stop());
    const analysis::LogSource full = loaded.source();
    check(full.rows() == corpus_.records,
          "loaded row count differs from the corpus");

    Tracer::Scope environment{tracer_, "workload.scenario_build"};
    workload::ScenarioConfig config;
    config.seed = settings_.seed;
    const workload::SyriaScenario scenario{config};
    environment.stop();

    Tracer::Scope order{tracer_, "analysis.derive_sample_order"};
    auto sample_mask =
        std::make_shared<std::vector<std::uint8_t>>(full.rows(), 0);
    {
      std::vector<std::int64_t> times(sample_mask->size());
      full.prepare(threads);
      util::parallel_for(full.partitions(), threads, [&](std::size_t p) {
        full.scan_partition(p, [&](const analysis::Record& r) {
          times[static_cast<std::size_t>(r.ordinal)] = r.time;
        });
      });
      std::vector<std::uint64_t> ordinals(times.size());
      std::iota(ordinals.begin(), ordinals.end(), 0);
      std::stable_sort(ordinals.begin(), ordinals.end(),
                       [&](std::uint64_t a, std::uint64_t b) {
                         return times[a] < times[b];
                       });
      util::Rng rng{util::mix64(settings_.seed ^ 0x5A3D1E)};
      for (const std::uint64_t ordinal : ordinals)
        (*sample_mask)[ordinal] = rng.bernoulli(0.04) ? 1 : 0;
    }
    order.stop();

    Tracer::Scope derive{tracer_, "analysis.derive"};
    const analysis::LogSource sample =
        full.masked(std::move(sample_mask), threads);
    const analysis::LogSource user = full.filtered(
        [](const analysis::Record& r) {
          if (r.proxy_index != 0 || r.user_hash == 0) return false;
          const auto c = util::to_civil(r.time);
          return c.month == 7 && (c.day == 22 || c.day == 23);
        },
        threads);
    const analysis::LogSource denied = full.filtered(
        [](const analysis::Record& r) {
          return r.exception != proxy::ExceptionId::kNone;
        },
        threads);
    const double derive_s = derive.stop();

    obs::MetricsRegistry registry;
    obs::Context context{&registry};
    const core::ReportSources sources{full,
                                      sample,
                                      user,
                                      denied,
                                      &scenario.geoip(),
                                      &scenario.relays(),
                                      &scenario.torrents(),
                                      threads,
                                      &context};
    Tracer::Scope render{tracer_, "core.render_full_report"};
    const std::string text = core::render_full_report(sources);
    const double render_s = render.stop();
    check(same({text.size(), util::crc32_of(text)}, report_digest_),
          "traced report differs from the CLI's");

    if (format != "col") return;
    set("analysis.derive_s", derive_s);
    set("core.render_full_report_s", render_s);
    // The report's own per-block stage timers (blocks run one after
    // another here), recorded as the analyzers' layer times.
    for (const auto& stage : registry.snapshot().stages)
      set(stage.name + "_s", static_cast<double>(stage.total_nanos) * 1e-9);
  }

  /// `generate --checkpoint-dir D --checkpoint-interval 1 --format both`,
  /// then `verify D`, then `watch LOG --once --json J`.
  void durable_stream() {
    Tracer::Scope group{tracer_, "durable-stream"};
    const std::string ckpt = dir_ + "/ckpt";
    const std::string csv = dir_ + "/durable.csv";
    const std::string col = dir_ + "/durable.col";

    Tracer::Scope write{tracer_, "durable_stream.write"};
    Tracer::Scope build{tracer_, "workload.scenario_build"};
    workload::SyriaScenario scenario{
        generate_config(settings_, settings_.threads)};
    build.stop();
    colfmt::Writer container{col};
    durable::CheckpointOptions options;
    options.directory = ckpt;
    options.commit_interval = 1;
    Tracer::Scope run{tracer_, "durable.run_checkpointed"};
    durable::CheckpointedRun checkpointed = durable::run_checkpointed(
        scenario, options,
        [&](const proxy::LogRecord& record) { container.add(record); });
    run.stop();
    check(checkpointed.completed, "run did not complete");
    Tracer::Scope seal{tracer_, "colfmt.finish"};
    const util::ArtifactInfo col_info = container.finish();
    seal.stop();
    Tracer::Scope finalize{tracer_, "durable.finalize_output"};
    const util::ArtifactInfo csv_info =
        durable::finalize_output(ckpt, checkpointed.manifest, csv);
    checkpointed.manifest.upsert_artifact(
        {col, "output", col_info.bytes, col_info.crc32, -1});
    checkpointed.manifest.save(ckpt + "/" +
                               std::string(durable::RunManifest::kFileName));
    finalize.stop();
    set("durable_stream.write_s", write.stop());
    check(same(digest_of(csv_info), corpus_.csv_digest),
          "traced csv differs from the corpus");
    check(same(digest_of(col_info), corpus_.col_digest),
          "traced col differs from the corpus");

    Tracer::Scope read{tracer_, "durable_stream.read"};
    Tracer::Scope verify{tracer_, "durable.verify"};
    const durable::VerifyReport verified =
        durable::verify_artifacts(checkpointed.manifest, ckpt);
    set("durable.verify_s", verify.stop());
    check(verified.ok(), "traced verify failed");

    analysis::StreamSource stream{csv};
    Tracer::Scope tail{tracer_, "analysis.spool_tail"};
    const std::size_t polled = stream.poll();
    const double tail_s = tail.stop();
    analysis::StreamAnalyzer analyzer;
    Tracer::Scope ingest{tracer_, "analysis.stream_ingest"};
    analysis::scan_increment(stream.source(), 0,
                             [&](const analysis::Record& r) {
                               analyzer.ingest(r);
                             });
    const double ingest_s = ingest.stop();
    Tracer::Scope snapshot{tracer_, "analysis.stream_snapshot"};
    const analysis::RollingReport rolling = analyzer.snapshot();
    const std::string json = analysis::stream_report_json(rolling);
    set("analysis.stream_snapshot_s", snapshot.stop());
    set("durable_stream.read_s", read.stop());
    check(polled == corpus_.records && rolling.records == corpus_.records &&
              !json.empty(),
          "traced stream saw the wrong record count");
    set("analysis.spool_tail_rps", static_cast<double>(polled) / tail_s);
    set("analysis.stream_ingest_rps",
        static_cast<double>(rolling.records) / ingest_s);
  }

  /// `generate --workers T --threads 1 --checkpoint-dir D`. The workers
  /// are forked processes, so one span covers the whole farm; the CPU
  /// time of coordinator and workers comes from getrusage.
  void sharded() {
    Tracer::Scope group{tracer_, "sharded"};
    shard::CoordinatorOptions options;
    options.config = generate_config(settings_, 1);
    options.directory = dir_ + "/shards";
    options.out_path = dir_ + "/sharded.csv";
    options.workers = settings_.threads;
    options.commit_interval = 8;  // the CLI's default
    std::fflush(nullptr);         // forked workers must not inherit output
    const double cpu_before = cpu_seconds();
    Tracer::Scope run{tracer_, "shard.run_sharded"};
    const shard::ShardedRun result = shard::run_sharded(options);
    run.stop();
    sharded_cpu_s_ = cpu_seconds() - cpu_before;
    sharded_workers_ = static_cast<double>(result.spawns);
    check(result.completed && result.restarts == 0 &&
              result.degraded_shards.empty(),
          "traced farm restarted or degraded");
    check(same(digest_of(result.output), corpus_.csv_digest),
          "traced merge differs from the corpus");
  }

  /// Single-layer probes against the corpus and the sharded run's
  /// left-over shard spools.
  void probes() {
    Tracer::Scope group{tracer_, "probes"};
    const std::size_t threads = settings_.threads;

    // Generation and routing alone: no proxy owns a request.
    Tracer::Scope build{tracer_, "workload.scenario_build"};
    obs::MetricsRegistry registry;
    obs::Context context{&registry};
    workload::SyriaScenario scenario{generate_config(settings_, threads)};
    scenario.set_obs(&context);
    build.stop();
    workload::RunControl mask_zero;
    mask_zero.proxy_mask = 0;
    const double cpu_before = cpu_seconds();
    Tracer::Scope route{tracer_, "workload.generate_route"};
    scenario.run([](const proxy::LogRecord&) {}, mask_zero);
    const double route_s = route.stop();
    const double route_cpu_s = cpu_seconds() - cpu_before;
    const double generated =
        static_cast<double>(registry.counter("scenario.generated").value());
    set("workload.generate_route_rps", generated / route_s);
    set("proxy.process_s", scenario_run_s_ - to_csv_s_ - route_s);
    if (sharded_cpu_s_ > 0.0)
      set("shard.duplicate_generation_share",
          sharded_workers_ * route_cpu_s / sharded_cpu_s_);

    Tracer::Scope open{tracer_, "colfmt.open"};
    const colfmt::Reader reader = colfmt::Reader::open(corpus_.col);
    set("colfmt.open_s", open.stop());
    const double col_mb = static_cast<double>(corpus_.col_digest.bytes) * 1e-6;
    set("colfmt.bytes_per_record",
        static_cast<double>(corpus_.col_digest.bytes) /
            static_cast<double>(corpus_.records));

    Tracer::Scope decode{tracer_, "colfmt.decode"};
    std::uint64_t decoded = 0;
    for (std::size_t b = 0; b < reader.block_count(); ++b)
      decoded += reader.decode(b).rows;
    set("colfmt.decode_mb_per_s", col_mb / decode.stop());
    check(decoded == corpus_.records, "decode row count differs");

    Tracer::Scope verify{tracer_, "colfmt.verify"};
    const colfmt::VerifyReport verified = colfmt::verify_file(corpus_.col);
    set("colfmt.verify_mb_per_s", col_mb / verify.stop());
    check(verified.ok, "corpus container failed verification");

    // Records block by block: each is policy-evaluated (as its proxy
    // would) and re-encoded; the re-encoded container must be the corpus.
    const policy::SyriaPolicy& syria = scenario.policy();
    util::Rng rng{settings_.seed};
    std::uint64_t censored = 0;
    colfmt::Writer writer{dir_ + "/reencoded.col"};
    for (std::size_t b = 0; b < reader.block_count(); ++b) {
      Tracer::Scope materialize{tracer_, "colfmt.materialize"};
      const colfmt::DecodedBlock block = reader.decode(b);
      std::vector<proxy::LogRecord> records;
      records.reserve(block.rows);
      for (std::size_t r = 0; r < block.rows; ++r)
        records.push_back(reader.record(block, r));
      materialize.stop();
      {
        Tracer::Scope evaluate{tracer_, "policy.evaluate"};
        for (const proxy::LogRecord& record : records) {
          const policy::FilterRequest request{
              &record.url, record.dest_ip, record.time,
              syria.custom_categories.classify(record.url)};
          censored += syria.proxies[record.proxy_index]
                          .engine.evaluate(request, rng)
                          .censored();
        }
      }
      Tracer::Scope encode{tracer_, "colfmt.encode"};
      for (const proxy::LogRecord& record : records) writer.add(record);
    }
    util::ArtifactInfo reencoded;
    {
      Tracer::Scope encode{tracer_, "colfmt.encode"};
      reencoded = writer.finish();
    }
    check(censored > 0, "the policy censored nothing");
    check(same(digest_of(reencoded), corpus_.col_digest),
          "re-encoded container differs from the corpus");
    const double records = static_cast<double>(corpus_.records);
    set("policy.evaluate_rps", records / tracer_.total("policy.evaluate"));
    set("colfmt.encode_rps", records / tracer_.total("colfmt.encode"));

    for (const std::string format : {"col", "csv"}) {
      Tracer::Scope open_source{tracer_, "analysis." + format + "_open"};
      const analysis::OpenedSource loaded = analysis::open_source(
          format == "col" ? corpus_.col : corpus_.csv,
          {.format = format, .threads = threads});
      open_source.stop();
      Tracer::Scope scan{tracer_, "analysis.scan_" + format};
      const auto partials = analysis::scan_partials<std::uint64_t>(
          loaded.source(), threads,
          [](std::uint64_t& n, const analysis::Record&) { ++n; });
      const double scan_s = scan.stop();
      const std::uint64_t scanned =
          std::accumulate(partials.begin(), partials.end(), std::uint64_t{0});
      check(scanned == corpus_.records, format + " scan row count differs");
      set("analysis.scan_rps." + format,
          static_cast<double>(scanned) / scan_s);
    }

    // A worker that owns no proxy never starts, so it left no spool.
    std::vector<shard::ShardInput> inputs;
    for (std::size_t w = 0; w < settings_.threads; ++w) {
      const std::uint64_t mask = shard::proxy_mask_for(
          settings_.seed, w, settings_.threads, policy::kProxyCount);
      if (mask != 0)
        inputs.push_back({shard::shard_dir_name(w),
                          dir_ + "/shards/" + shard::shard_dir_name(w), mask,
                          false});
    }
    Tracer::Scope merge{tracer_, "shard.merge"};
    const shard::MergeResult merged =
        shard::merge_shards(inputs, dir_ + "/merged.csv");
    set("shard.merge_s", merge.stop());
    check(same(digest_of(merged.output), corpus_.csv_digest),
          "re-merged shards differ from the corpus");
  }

  /// Metrics read from the untraced ops' --metrics documents: the
  /// instruments an operator sees, no new timing code.
  void registry_metrics(const std::map<std::string, OpResult>& untraced) {
    const Json* generate = metrics_doc(untraced, "generate", "generate");
    set("stage.generate_shard_s",
        stage_seconds(generate, "scenario.generate_shard"));
    set("stage.process_proxy_batch_s",
        stage_seconds(generate, "scenario.process_proxy_batch"));
    set("stage.merge_s", stage_seconds(generate, "scenario.merge"));
    const auto hits = counter_value(generate, "proxy.cache.hit");
    const auto misses = counter_value(generate, "proxy.cache.miss");
    if (hits && misses && *hits + *misses > 0.0)
      set("proxy.cache_hit_ratio", *hits / (*hits + *misses));

    const Json* durable = metrics_doc(untraced, "durable-stream", "generate");
    set("durable.write_state_s",
        stage_seconds(durable, "checkpoint.write_state"));
    set("durable.append_spool_s",
        stage_seconds(durable, "checkpoint.append_spool"));
    const auto commits = counter_value(durable, "checkpoint.commits");
    set("durable.commits", commits);
    if (const auto op = untraced.find("durable-stream");
        commits && op != untraced.end()) {
      const auto& extra = op->second.extra;
      const auto log = extra.find("log_bytes");
      const auto state = extra.find("state_bytes");
      if (log != extra.end() && state != extra.end() && log->second > 0.0)
        set("durable.write_amplification",
            (log->second + *commits * state->second) / log->second);
    }

    const Json* report = metrics_doc(untraced, "report-col", "report");
    set("cli.load_s", phase_seconds(report, "load"));
    set("cli.derive_s", phase_seconds(report, "derive"));
    set("cli.analyze_s", phase_seconds(report, "analyze"));
  }

  const Settings& settings_;
  const Corpus& corpus_;
  const util::FileDigest report_digest_;
  const std::string dir_;
  Tracer tracer_;
  LayerReport report_;
  double scenario_run_s_ = 0.0;
  double to_csv_s_ = 0.0;
  double sharded_cpu_s_ = 0.0;
  double sharded_workers_ = 0.0;  ///< workers started (those owning proxies)
};

}  // namespace

LayerReport run_layers(const Settings& settings, const Corpus& corpus,
                       const std::map<std::string, OpResult>& untraced,
                       const util::FileDigest& report_digest,
                       const std::string& trace_path) {
  return LayerRun{settings, corpus, report_digest}.run(untraced, trace_path);
}

}  // namespace bench_e2e
