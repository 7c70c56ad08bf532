// Table 4: top-10 allowed and censored domains in Dfull.

#include "analysis/top_domains.h"
#include "bench_common.h"

namespace {

using namespace syrwatch;
using namespace syrbench;

constexpr const char* kPaperAllowed[][2] = {
    {"google.com", "7.19%"},         {"xvideos.com", "3.34%"},
    {"gstatic.com", "3.30%"},        {"facebook.com", "2.54%"},
    {"microsoft.com", "2.38%"},      {"fbcdn.net", "2.35%"},
    {"windowsupdate.com", "2.20%"},  {"google-analytics.com", "1.77%"},
    {"doubleclick.net", "1.60%"},    {"msn.com", "1.57%"},
};
constexpr const char* kPaperCensored[][2] = {
    {"facebook.com", "21.91%"}, {"metacafe.com", "17.33%"},
    {"skype.com", "6.83%"},     {"live.com", "5.98%"},
    {"google.com", "5.71%"},    {"zynga.com", "5.14%"},
    {"yahoo.com", "5.02%"},     {"wikimedia.org", "4.16%"},
    {"fbcdn.net", "3.59%"},     {"ceipmsn.com", "1.83%"},
};

void print_side(const char* name, proxy::TrafficClass cls,
                const char* const (*paper)[2]) {
  const auto top = analysis::top_domains(default_study().datasets().full,
                                         analysis::TopDomainsOptions{cls});
  TextTable table{{"#", "Measured domain", "Measured %", "Paper domain",
                   "Paper %"}};
  for (std::size_t i = 0; i < 10; ++i) {
    table.add_row({std::to_string(i + 1),
                   i < top.size() ? top[i].domain : "-",
                   i < top.size() ? percent(top[i].share) : "-",
                   paper[i][0], paper[i][1]});
  }
  print_block(std::string("Top-10 ") + name + " domains (Table 4)", table);
}

void print_reproduction() {
  print_banner("Table 4 — top-10 allowed and censored domains",
               "google.com leads allowed traffic; facebook.com and "
               "metacafe.com lead the censored side; facebook/google appear "
               "on both sides");
  print_side("allowed", proxy::TrafficClass::kAllowed, kPaperAllowed);
  print_side("censored", proxy::TrafficClass::kCensored, kPaperCensored);
}

void BM_TopDomains(benchmark::State& state) {
  const auto& full = default_study().datasets().full;
  for (auto _ : state) {
    benchmark::DoNotOptimize(analysis::top_domains(
        full, analysis::TopDomainsOptions{proxy::TrafficClass::kAllowed}));
  }
  state.SetItemsProcessed(state.iterations() *
                          static_cast<std::int64_t>(full.rows()));
}
BENCHMARK(BM_TopDomains)->Unit(benchmark::kMillisecond);

}  // namespace

SYRBENCH_MAIN(print_reproduction)
