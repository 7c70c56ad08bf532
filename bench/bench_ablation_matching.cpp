// Ablation: substring vs whole-token keyword matching (DESIGN.md
// decision 2).
//
// The paper's collateral-damage findings (Google toolbar /tbproxy/, the
// xd_proxy channel of Facebook plugins) only arise under *substring*
// matching. This bench re-screens every generated URL under both
// semantics and shows how much censorship evaporates with token matching.

#include "analysis/traffic_stats.h"
#include "bench_common.h"
#include "util/strings.h"

namespace {

using namespace syrwatch;
using namespace syrbench;

bool token_match(std::string_view text, std::string_view keyword) {
  // Whole-token semantics: the keyword must be delimited by non-alnum.
  std::size_t pos = 0;
  auto is_word = [](char c) {
    return (c >= 'a' && c <= 'z') || (c >= '0' && c <= '9');
  };
  while ((pos = text.find(keyword, pos)) != std::string_view::npos) {
    const bool left_ok = pos == 0 || !is_word(text[pos - 1]);
    const std::size_t end = pos + keyword.size();
    const bool right_ok = end >= text.size() || !is_word(text[end]);
    if (left_ok && right_ok) return true;
    ++pos;
  }
  return false;
}

void print_reproduction() {
  print_banner("Ablation — keyword matching semantics",
               "Substring matching produces the paper's collateral damage "
               "(google.com/tbproxy = 4.85% of censored requests); token "
               "matching would spare it");

  const auto& full = default_study().datasets().full;
  std::uint64_t substring_hits = 0, token_hits = 0, tbproxy = 0;
  std::array<std::uint64_t, 5> per_keyword_substring{};
  std::array<std::uint64_t, 5> per_keyword_token{};
  const auto& keywords = policy::censored_keywords();

  analysis::scan_increment(full, 0, [&](const analysis::Record& r) {
    const std::string text = util::to_lower(r.filter_text());
    bool any_substring = false, any_token = false;
    for (std::size_t k = 0; k < keywords.size(); ++k) {
      if (text.find(keywords[k]) != std::string::npos) {
        ++per_keyword_substring[k];
        any_substring = true;
        if (token_match(text, keywords[k])) {
          ++per_keyword_token[k];
          any_token = true;
        }
      }
    }
    substring_hits += any_substring;
    token_hits += any_token;
    if (text.find("/tbproxy/") != std::string::npos) ++tbproxy;
  });

  TextTable table{{"Keyword", "Substring matches", "Token matches",
                   "Collateral spared by token matching"}};
  for (std::size_t k = 0; k < keywords.size(); ++k) {
    table.add_row({keywords[k], with_commas(per_keyword_substring[k]),
                   with_commas(per_keyword_token[k]),
                   with_commas(per_keyword_substring[k] -
                               per_keyword_token[k])});
  }
  print_block("Matching semantics over every generated URL", table);

  const auto stats = analysis::traffic_stats(full);
  TextTable summary{{"Metric", "Value"}};
  summary.add_row({"URLs keyword-censorable (substring)",
                   with_commas(substring_hits)});
  summary.add_row({"URLs keyword-censorable (token)",
                   with_commas(token_hits)});
  summary.add_row({"Google toolbar /tbproxy/ requests", with_commas(tbproxy)});
  summary.add_row(
      {"tbproxy share of censored traffic (paper: 4.85%)",
       percent(double(tbproxy) / double(stats.censored()))});
  print_block("Collateral damage accounting", summary);
}

void BM_SubstringScreen(benchmark::State& state) {
  const auto& full = default_study().datasets().full;
  const auto& keywords = policy::censored_keywords();
  for (auto _ : state) {
    std::uint64_t hits = 0;
    analysis::scan_increment(full, 0, [&](const analysis::Record& r) {
      const std::string text = r.filter_text();
      for (const auto& keyword : keywords) {
        if (util::icontains(text, keyword)) {
          ++hits;
          break;
        }
      }
    });
    benchmark::DoNotOptimize(hits);
  }
  state.SetItemsProcessed(state.iterations() *
                          static_cast<std::int64_t>(full.rows()));
}
BENCHMARK(BM_SubstringScreen)->Unit(benchmark::kMillisecond);

void BM_TokenScreen(benchmark::State& state) {
  const auto& full = default_study().datasets().full;
  const auto& keywords = policy::censored_keywords();
  for (auto _ : state) {
    std::uint64_t hits = 0;
    analysis::scan_increment(full, 0, [&](const analysis::Record& r) {
      const std::string text = util::to_lower(r.filter_text());
      for (const auto& keyword : keywords) {
        if (token_match(text, keyword)) {
          ++hits;
          break;
        }
      }
    });
    benchmark::DoNotOptimize(hits);
  }
  state.SetItemsProcessed(state.iterations() *
                          static_cast<std::int64_t>(full.rows()));
}
BENCHMARK(BM_TokenScreen)->Unit(benchmark::kMillisecond);

}  // namespace

SYRBENCH_MAIN(print_reproduction)
