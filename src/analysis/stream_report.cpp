#include "analysis/stream_report.h"

#include <algorithm>
#include <cctype>
#include <cstdio>
#include <sstream>

#include "util/json.h"
#include "util/simtime.h"

namespace syrwatch::analysis {

StreamAnalyzer::StreamAnalyzer(const StreamReportOptions& options,
                               obs::Context* obs)
    : options_(options),
      top_domains_(options.top_capacity),
      keywords_(options.top_capacity),
      categories_(options.cm_width, options.cm_depth, options.cm_seed),
      sample_(options.reservoir_k, options.sample_seed),
      traffic_(options.bin.seconds, options.window_bins),
      coverage_(options.bin.seconds, options.window_bins),
      rfilter_(options.bin.seconds, options.window_bins),
      records_counter_(obs::counter(obs, "stream.records")),
      late_counter_(obs::counter(obs, "stream.window.late_drops")),
      domains_fill_(obs::gauge(obs, "stream.sketch.domains.fill")),
      keywords_fill_(obs::gauge(obs, "stream.sketch.keywords.fill")),
      cm_fill_(obs::gauge(obs, "stream.sketch.categories.fill")),
      window_fill_(obs::gauge(obs, "stream.window.fill")),
      window_evicted_(obs::gauge(obs, "stream.window.evicted_bins")),
      reservoir_seen_(obs::gauge(obs, "stream.sample.seen")) {}

bool StreamAnalyzer::rfilter_scoped(const Record& r) const {
  if (static_cast<std::size_t>(r.proxy_index) != options_.rfilter_proxy ||
      !r.host_is_ip)
    return false;
  if (options_.relays != nullptr &&
      !options_.relays->contains(net::Ipv4Addr{r.host_ip}, r.port))
    return false;
  return true;
}

void StreamAnalyzer::ingest(const Record& r) {
  if (records_ == 0 || r.time < first_time_) first_time_ = r.time;
  if (records_ == 0 || r.time > last_time_) last_time_ = r.time;
  ++records_;
  obs::add(records_counter_);
  ++class_totals_[static_cast<std::size_t>(r.cls)];

  sample_.offer(SampleItem{r.ordinal, r.cls});

  if (r.cls == proxy::TrafficClass::kCensored) {
    top_domains_.update(r.domain);
    // Keyword table: lowercased alphanumeric runs of the text the filter
    // scanned, skipping short noise tokens.
    const std::string text = r.filter_text();
    std::string token;
    for (std::size_t i = 0; i <= text.size(); ++i) {
      const char c = i < text.size() ? text[i] : '\0';
      if (std::isalnum(static_cast<unsigned char>(c)) != 0) {
        token.push_back(static_cast<char>(
            std::tolower(static_cast<unsigned char>(c))));
        continue;
      }
      if (token.size() >= options_.min_token_length) keywords_.update(token);
      token.clear();
    }
    // Per-category counts keyed by the proxies' own cs-categories label.
    const std::string label{r.categories};
    categories_.update(label);
    if (label_seen_.insert(label).second) category_labels_.push_back(label);
  }

  // Sliding windows.
  if (TrafficBin* bin = traffic_.at(r.time)) {
    ++bin->total;
    if (r.cls == proxy::TrafficClass::kCensored) ++bin->censored;
    if (r.cls == proxy::TrafficClass::kAllowed) ++bin->allowed;
  } else {
    obs::add(late_counter_);
  }
  if (CoverageBin* bin = coverage_.at(r.time)) {
    ++bin->by_proxy[r.proxy_index];
    ++bin->total;
  }
  if (rfilter_scoped(r)) {
    if (r.cls == proxy::TrafficClass::kCensored)
      censored_relay_ips_.insert(r.host_ip);
    if (RfilterBin* bin = rfilter_.at(r.time)) {
      bin->has_traffic = true;
      if (r.cls == proxy::TrafficClass::kAllowed)
        bin->allowed_ips.insert(r.host_ip);
    }
  }
}

RollingReport StreamAnalyzer::snapshot() {
  RollingReport report;
  report.records = records_;
  report.first_time = first_time_;
  report.last_time = last_time_;
  report.class_totals = class_totals_;

  auto fill_top = [](const SpaceSaving& sketch, std::size_t k,
                     std::vector<RollingReport::TopEntry>& out, bool& exact,
                     std::uint64_t& bound) {
    exact = sketch.exact();
    bound = 0;
    for (const SpaceSaving::Item& item : sketch.top(k)) {
      bound = std::max(bound, item.error);
      out.push_back({item.key, item.count, item.error});
    }
  };
  fill_top(top_domains_, options_.top_k, report.top_censored_domains,
           report.domains_exact, report.domains_error_bound);
  fill_top(keywords_, options_.top_k, report.censored_keywords,
           report.keywords_exact, report.keywords_error_bound);

  report.category_total = categories_.total();
  report.category_epsilon = categories_.epsilon();
  report.category_delta = categories_.delta();
  report.category_error = categories_.error_bound();
  for (const std::string& label : category_labels_)
    report.categories.push_back({label, categories_.estimate(label)});
  std::sort(report.categories.begin(), report.categories.end(),
            [](const RollingReport::CategoryEstimate& a,
               const RollingReport::CategoryEstimate& b) {
              if (a.estimate != b.estimate) return a.estimate > b.estimate;
              return a.label < b.label;
            });

  report.sample_seen = sample_.seen();
  report.sample_size = sample_.items().size();
  for (const SampleItem& item : sample_.items())
    report.sample_censored +=
        item.cls == proxy::TrafficClass::kCensored ? 1 : 0;
  if (report.sample_size > 0)
    report.sample_censored_share = util::wilson_confidence(
        report.sample_censored, report.sample_size, 0.05);

  report.bin_seconds = traffic_.bin_seconds();
  report.window_capacity_bins = traffic_.bins();
  report.window_evicted_bins = traffic_.evicted_bins();
  report.window_late_drops = traffic_.late_drops();
  if (!traffic_.empty()) {
    report.window_origin = traffic_.window_start();
    traffic_.for_each([&](std::int64_t, const TrafficBin& bin) {
      report.censored_series.push_back(bin.censored);
      report.allowed_series.push_back(bin.allowed);
      report.total_series.push_back(bin.total);
      report.rcv.push_back(bin.total == 0
                               ? 0.0
                               : static_cast<double>(bin.censored) /
                                     static_cast<double>(bin.total));
    });
  }

  // Windowed coverage: the gap scan of coverage_core over the retained
  // bins (gaps still open at the window's newest bin are reported open).
  if (!coverage_.empty()) {
    std::array<bool, policy::kProxyCount> in_gap{};
    std::array<CoverageGap, policy::kProxyCount> open{};
    coverage_.for_each([&](std::int64_t bin_start, const CoverageBin& bin) {
      const bool active = bin.total >= options_.min_farm_bin_requests;
      if (active) ++report.coverage_active_bins;
      for (std::size_t p = 0; p < policy::kProxyCount; ++p) {
        if (active && bin.by_proxy[p] > 0) ++report.covered_bins[p];
        const bool hole = active && bin.by_proxy[p] == 0;
        if (hole) {
          if (!in_gap[p]) {
            in_gap[p] = true;
            open[p] = {static_cast<std::uint8_t>(p), bin_start, 0, 0};
          }
          open[p].end = bin_start + coverage_.bin_seconds();
          open[p].farm_requests += bin.total;
        } else if (in_gap[p] && active) {
          in_gap[p] = false;
          report.gaps.push_back(open[p]);
        }
      }
    });
    for (std::size_t p = 0; p < policy::kProxyCount; ++p)
      if (in_gap[p]) report.gaps.push_back(open[p]);
    std::sort(report.gaps.begin(), report.gaps.end(),
              [](const CoverageGap& a, const CoverageGap& b) {
                if (a.proxy_index != b.proxy_index)
                  return a.proxy_index < b.proxy_index;
                return a.start < b.start;
              });
  }

  report.censored_relay_count = censored_relay_ips_.size();
  if (!rfilter_.empty()) {
    rfilter_.for_each([&](std::int64_t, const RfilterBin& bin) {
      report.rfilter_has_traffic.push_back(bin.has_traffic ? 1 : 0);
      if (censored_relay_ips_.empty()) {
        report.rfilter.push_back(0.0);
        return;
      }
      std::size_t overlap = 0;
      for (const std::uint32_t ip : bin.allowed_ips)
        if (censored_relay_ips_.count(ip) != 0) ++overlap;
      report.rfilter.push_back(
          1.0 - static_cast<double>(overlap) /
                    static_cast<double>(censored_relay_ips_.size()));
    });
  }

  if (domains_fill_ != nullptr) domains_fill_->set(top_domains_.fill());
  if (keywords_fill_ != nullptr) keywords_fill_->set(keywords_.fill());
  if (cm_fill_ != nullptr) cm_fill_->set(categories_.fill());
  if (window_fill_ != nullptr) window_fill_->set(traffic_.fill());
  if (window_evicted_ != nullptr)
    window_evicted_->set(static_cast<double>(traffic_.evicted_bins()));
  if (reservoir_seen_ != nullptr)
    reservoir_seen_->set(static_cast<double>(sample_.seen()));

  return report;
}

namespace {

const char* class_name(std::size_t i) {
  switch (static_cast<proxy::TrafficClass>(i)) {
    case proxy::TrafficClass::kAllowed:
      return "allowed";
    case proxy::TrafficClass::kCensored:
      return "censored";
    case proxy::TrafficClass::kError:
      return "error";
    case proxy::TrafficClass::kProxied:
      return "proxied";
  }
  return "?";
}

void render_top_table(std::ostringstream& out, const char* title,
                      const std::vector<RollingReport::TopEntry>& entries,
                      bool exact, std::uint64_t bound) {
  out << title;
  if (exact)
    out << " (exact)\n";
  else
    out << " [APPROX] (counts over-estimate by <= " << bound << ")\n";
  for (const auto& e : entries) {
    out << "  " << e.key << "  " << e.count;
    if (e.error > 0) out << " (+<=" << e.error << ")";
    out << "\n";
  }
  if (entries.empty()) out << "  (none)\n";
}

std::string fmt_double(double v) {
  char buf[32];
  std::snprintf(buf, sizeof(buf), "%.6g", v);
  return buf;
}

}  // namespace

std::string render_stream_report(const RollingReport& report) {
  std::ostringstream out;
  out << "=== rolling report @ " << util::format_datetime(report.last_time)
      << " ===\n";
  out << "records " << report.records;
  if (report.records > 0)
    out << "  span " << util::format_datetime(report.first_time) << " .. "
        << util::format_datetime(report.last_time);
  out << "\n";
  out << "classes";
  for (std::size_t i = 0; i < report.class_totals.size(); ++i)
    out << "  " << class_name(i) << " " << report.class_totals[i];
  out << "\n";
  if (report.spool_pending_bytes > 0 || report.spool_offset > 0) {
    out << "spool offset " << report.spool_offset << " pending "
        << report.spool_pending_bytes << " bytes";
    if (report.spool_skipped_lines > 0)
      out << "  skipped " << report.spool_skipped_lines << " lines";
    out << "\n";
  }
  if (report.spool_gaps > 0)
    out << "[DEGRADED DATA] spool rotated/truncated " << report.spool_gaps
        << " time(s) under the watch — records between rotations were "
           "never observed\n";

  render_top_table(out, "top censored domains", report.top_censored_domains,
                   report.domains_exact, report.domains_error_bound);
  render_top_table(out, "censored keywords", report.censored_keywords,
                   report.keywords_exact, report.keywords_error_bound);

  out << "censored categories [APPROX] (over-estimate <= "
      << fmt_double(report.category_error) << " = eps "
      << fmt_double(report.category_epsilon) << " * N "
      << report.category_total << ", P >= "
      << fmt_double(1.0 - report.category_delta) << ")\n";
  for (const auto& c : report.categories)
    out << "  " << (c.label.empty() ? "-" : c.label) << "  " << c.estimate
        << "\n";
  if (report.categories.empty()) out << "  (none)\n";

  out << "sample (reservoir) " << report.sample_size << " of "
      << report.sample_seen;
  if (report.sample_size > 0)
    out << "  censored share " << fmt_double(report.sample_censored_share.lo)
        << " .. " << fmt_double(report.sample_censored_share.hi)
        << " (95% Wilson)";
  out << "\n";

  const std::size_t bins = report.total_series.size();
  out << "window " << bins << "/" << report.window_capacity_bins << " bins x "
      << report.bin_seconds << "s";
  if (bins > 0) out << " from " << util::format_datetime(report.window_origin);
  if (report.window_evicted_bins > 0)
    out << "  [APPROX: " << report.window_evicted_bins
        << " older bins evicted]";
  if (report.window_late_drops > 0)
    out << "  (" << report.window_late_drops << " late records dropped)";
  out << "\n";
  if (bins > 0) {
    std::uint64_t censored = 0, total = 0;
    for (std::size_t i = 0; i < bins; ++i) {
      censored += report.censored_series[i];
      total += report.total_series[i];
    }
    double peak = 0.0;
    std::size_t peak_bin = 0;
    for (std::size_t i = 0; i < bins; ++i) {
      if (report.rcv[i] > peak) {
        peak = report.rcv[i];
        peak_bin = i;
      }
    }
    out << "  windowed RCV "
        << fmt_double(total == 0 ? 0.0
                                 : static_cast<double>(censored) /
                                       static_cast<double>(total))
        << "  peak " << fmt_double(peak) << " @ "
        << util::format_datetime(report.window_origin +
                                 static_cast<std::int64_t>(peak_bin) *
                                     report.bin_seconds)
        << "\n";
  }

  out << "coverage: active bins " << report.coverage_active_bins
      << ", gaps " << report.gaps.size() << "\n";
  for (const CoverageGap& gap : report.gaps)
    out << "  SG-" << 42 + static_cast<int>(gap.proxy_index) << "  "
        << util::format_datetime(gap.start) << " .. "
        << util::format_datetime(gap.end) << "\n";

  if (!report.rfilter.empty()) {
    double latest = 0.0;
    bool any = false;
    for (std::size_t i = report.rfilter.size(); i-- > 0;) {
      if (report.rfilter_has_traffic[i] != 0) {
        latest = report.rfilter[i];
        any = true;
        break;
      }
    }
    out << "Rfilter (censored set so far: " << report.censored_relay_count
        << " IPs): latest active bin "
        << (any ? fmt_double(latest) : std::string{"n/a"}) << "\n";
  }
  return out.str();
}

std::string stream_report_json(const RollingReport& report) {
  using util::json::Writer;
  Writer out{Writer::Layout::kCompact, 6};
  out.begin_object();
  out.key("schema").value("syrwatch.stream.v1");
  out.key("records").value(report.records);
  out.key("first_time").value(report.first_time);
  out.key("last_time").value(report.last_time);
  out.key("classes").begin_object();
  for (std::size_t i = 0; i < report.class_totals.size(); ++i)
    out.key(class_name(i)).value(report.class_totals[i]);
  out.end_object();

  auto top_table = [&](const char* key,
                       const std::vector<RollingReport::TopEntry>& entries,
                       bool exact, std::uint64_t bound) {
    out.key(key).begin_object();
    out.key("exact").value(exact);
    out.key("error_bound").value(bound);
    out.key("entries").begin_array();
    for (const auto& entry : entries) {
      out.begin_object();
      out.key("key").value(entry.key);
      out.key("count").value(entry.count);
      out.key("error").value(entry.error);
      out.end_object();
    }
    out.end_array();
    out.end_object();
  };
  top_table("top_censored_domains", report.top_censored_domains,
            report.domains_exact, report.domains_error_bound);
  top_table("censored_keywords", report.censored_keywords,
            report.keywords_exact, report.keywords_error_bound);

  out.key("categories").begin_object();
  out.key("approx").value(true);
  out.key("epsilon").value(report.category_epsilon);
  out.key("delta").value(report.category_delta);
  out.key("error_bound").value(report.category_error);
  out.key("total").value(report.category_total);
  out.key("entries").begin_array();
  for (const auto& category : report.categories) {
    out.begin_object();
    out.key("label").value(category.label);
    out.key("estimate").value(category.estimate);
    out.end_object();
  }
  out.end_array();
  out.end_object();

  out.key("sample").begin_object();
  out.key("seen").value(report.sample_seen);
  out.key("size").value(report.sample_size);
  out.key("censored").value(report.sample_censored);
  out.key("censored_share_lo").value(report.sample_censored_share.lo);
  out.key("censored_share_hi").value(report.sample_censored_share.hi);
  out.end_object();

  auto series = [&](const char* key, const auto& values) {
    out.key(key).begin_array();
    for (const auto value : values) out.value(value);
    out.end_array();
  };
  out.key("window").begin_object();
  out.key("origin").value(report.window_origin);
  out.key("bin_seconds").value(report.bin_seconds);
  out.key("capacity_bins").value(std::uint64_t{report.window_capacity_bins});
  out.key("evicted_bins").value(report.window_evicted_bins);
  out.key("late_drops").value(report.window_late_drops);
  series("censored", report.censored_series);
  series("allowed", report.allowed_series);
  series("total", report.total_series);
  series("rcv", report.rcv);
  out.end_object();

  out.key("coverage").begin_object();
  out.key("active_bins").value(report.coverage_active_bins);
  series("covered_bins", report.covered_bins);
  out.key("gaps").begin_array();
  for (const CoverageGap& gap : report.gaps) {
    out.begin_object();
    out.key("proxy").value(std::uint64_t{gap.proxy_index});
    out.key("start").value(gap.start);
    out.key("end").value(gap.end);
    out.end_object();
  }
  out.end_array();
  out.end_object();

  out.key("rfilter").begin_object();
  out.key("censored_ips").value(report.censored_relay_count);
  series("series", report.rfilter);
  out.key("has_traffic").begin_array();
  for (const std::uint8_t has_traffic : report.rfilter_has_traffic)
    out.value(has_traffic != 0);
  out.end_array();
  out.end_object();

  out.key("spool").begin_object();
  out.key("offset").value(report.spool_offset);
  out.key("pending_bytes").value(report.spool_pending_bytes);
  out.key("skipped_lines").value(report.spool_skipped_lines);
  out.key("gaps").value(report.spool_gaps);
  out.end_object();
  out.end_object();
  return out.finish();
}

}  // namespace syrwatch::analysis
