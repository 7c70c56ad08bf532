// Table 13: censorship across 28 social networks — mostly open, a few
// fully blocked, keyword collateral on the rest.

#include "analysis/osn.h"
#include "bench_common.h"

namespace {

using namespace syrwatch;
using namespace syrbench;

void print_reproduction() {
  print_banner("Table 13 — top censored social networks",
               "facebook.com 1.62M censored yet 17.7M allowed; badoo/netlog "
               "never allowed; twitter 163 censored of 2.83M; most OSNs "
               "never censored");

  const auto osns = analysis::osn_censorship(default_study().datasets().full);
  static const std::map<std::string, const char*> kPaper = {
      {"facebook.com", "1,616,174 c / 17.70M a"},
      {"badoo.com", "14,502 c / 0 a"},
      {"netlog.com", "9,252 c / 0 a"},
      {"linkedin.com", "7,194 c / 186,047 a"},
      {"skyrock.com", "3,307 c / 7,564 a"},
      {"hi5.com", "2,995 c / 210,411 a"},
      {"twitter.com", "163 c / 2.83M a"},
      {"ning.com", "6 c / 41,993 a"},
      {"meetup.com", "3 c / 108 a"},
      {"flickr.com", "2 c / 383,212 a"},
  };

  TextTable table{{"OSN", "Censored", "Allowed", "Proxied", "Paper"}};
  for (const auto& osn : osns) {
    const auto paper = kPaper.find(osn.domain);
    table.add_row({osn.domain, with_commas(osn.censored),
                   with_commas(osn.allowed), with_commas(osn.proxied),
                   paper == kPaper.end() ? "never censored" : paper->second});
  }
  print_block("Social networks (Table 13)", table);
}

void BM_OsnCensorship(benchmark::State& state) {
  const auto& full = default_study().datasets().full;
  for (auto _ : state) {
    benchmark::DoNotOptimize(analysis::osn_censorship(full));
  }
  state.SetItemsProcessed(state.iterations() *
                          static_cast<std::int64_t>(full.rows()));
}
BENCHMARK(BM_OsnCensorship)->Unit(benchmark::kMillisecond);

}  // namespace

SYRBENCH_MAIN(print_reproduction)
