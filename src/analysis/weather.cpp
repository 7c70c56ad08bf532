#include "analysis/weather.h"

#include <stdexcept>

#include "util/strings.h"
#include "util/substring_matcher.h"

namespace syrwatch::analysis {

double KeywordWeather::intensity(std::size_t bin) const {
  if (bin >= matched.size() || matched[bin] == 0) return 0.0;
  return static_cast<double>(censored[bin]) /
         static_cast<double>(matched[bin]);
}

std::size_t KeywordWeather::active_bins() const {
  std::size_t count = 0;
  for (const auto m : matched) count += m != 0;
  return count;
}

std::size_t KeywordWeather::fully_enforced_bins() const {
  std::size_t count = 0;
  for (std::size_t bin = 0; bin < matched.size(); ++bin)
    count += matched[bin] != 0 && censored[bin] == matched[bin];
  return count;
}

std::vector<KeywordWeather> keyword_weather(
    const LogSource& source, std::span<const std::string> keywords,
    const WeatherOptions& options, std::size_t threads) {
  const std::int64_t start = options.range.start;
  const std::int64_t end = options.range.end;
  const std::int64_t bin_seconds = options.bin.seconds;
  if (end <= start || bin_seconds <= 0)
    throw std::invalid_argument("keyword_weather: bad window");
  const auto bins = static_cast<std::size_t>(
      (end - start + bin_seconds - 1) / bin_seconds);

  std::vector<KeywordWeather> reports;
  reports.reserve(keywords.size());
  for (const auto& keyword : keywords) {
    KeywordWeather report;
    report.keyword = util::to_lower(keyword);
    report.origin = start;
    report.bin_seconds = bin_seconds;
    report.censored.assign(bins, 0);
    report.matched.assign(bins, 0);
    reports.push_back(std::move(report));
  }

  // Dense per-keyword/per-bin counters; addition folds. A row's host,
  // path and "?query" stream through one case-folding automaton over the
  // keywords, so no lower-cased text is built; `counted` holds the last
  // row each keyword was counted for, so a keyword occurring twice in a
  // row counts once. An empty keyword, which the matcher never reports,
  // matches every row.
  const util::SubstringMatcher matcher{keywords};
  std::vector<std::uint32_t> empty_keywords;
  for (std::size_t k = 0; k < keywords.size(); ++k)
    if (keywords[k].empty())
      empty_keywords.push_back(static_cast<std::uint32_t>(k));
  struct KeywordBins {
    std::vector<std::uint64_t> censored, matched;
  };
  struct Partial {
    std::vector<KeywordBins> bins;
    std::vector<std::uint64_t> counted;
    std::uint64_t rows = 0;
  };
  const auto partials = scan_partials<Partial>(
      source, threads, [&](Partial& p, const Record& r) {
        if (p.bins.empty()) {
          p.bins.resize(reports.size());
          for (auto& kb : p.bins) {
            kb.censored.assign(bins, 0);
            kb.matched.assign(bins, 0);
          }
          p.counted.assign(reports.size(), 0);
        }
        if (r.time < start || r.time >= end) return;
        if (r.cls != proxy::TrafficClass::kCensored &&
            r.cls != proxy::TrafficClass::kAllowed)
          return;
        const auto bin =
            static_cast<std::size_t>((r.time - start) / bin_seconds);
        const bool censored = r.cls == proxy::TrafficClass::kCensored;
        const std::uint64_t row = ++p.rows;
        const auto count = [&](std::uint32_t k) {
          if (p.counted[k] == row) return;
          p.counted[k] = row;
          ++p.bins[k].matched[bin];
          if (censored) ++p.bins[k].censored[bin];
        };
        std::uint32_t state =
            matcher.feed(util::SubstringMatcher::kStart, r.host, count);
        state = matcher.feed(state, r.path, count);
        if (!r.query.empty())
          matcher.feed(matcher.feed(state, "?", count), r.query, count);
        for (const std::uint32_t k : empty_keywords) count(k);
      });

  for (const Partial& p : partials) {
    if (p.bins.empty()) continue;
    for (std::size_t k = 0; k < reports.size(); ++k) {
      for (std::size_t bin = 0; bin < bins; ++bin) {
        reports[k].censored[bin] += p.bins[k].censored[bin];
        reports[k].matched[bin] += p.bins[k].matched[bin];
      }
    }
  }
  return reports;
}

}  // namespace syrwatch::analysis
