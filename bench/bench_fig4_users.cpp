// Fig. 4: user-based analysis over Duser — censored requests per user and
// the activity gap between censored and clean users.

#include "analysis/user_stats.h"
#include "bench_common.h"

namespace {

using namespace syrwatch;
using namespace syrbench;

void print_reproduction() {
  print_banner("Fig. 4 — user-based analysis (Duser)",
               "147,802 users, 1.57% censored at least once; ~50% of "
               "censored users sent >100 requests vs ~5% of the rest");

  const auto stats = analysis::user_stats(default_study().datasets().user);

  TextTable summary{{"Metric", "Measured", "Paper"}};
  summary.add_row({"Total users", with_commas(stats.total_users), "147,802"});
  summary.add_row({"Censored users", with_commas(stats.censored_users),
                   "2,319"});
  summary.add_row(
      {"Censored-user share",
       percent(stats.total_users == 0
                   ? 0.0
                   : double(stats.censored_users) / double(stats.total_users)),
       "1.57%"});
  summary.add_row({"Censored users with >100 requests",
                   percent(stats.active_share_censored(100.0)), "~50%"});
  summary.add_row({"Clean users with >100 requests",
                   percent(stats.active_share_clean(100.0)), "~5%"});
  print_block("User statistics", summary);

  // Fig. 4a: censored requests per user.
  TextTable fig4a{{"# censored requests", "% of censored users"}};
  for (const auto& [count, users] : stats.users_by_censored_count) {
    if (count > 16) break;
    fig4a.add_row({std::to_string(count),
                   percent(double(users) / double(stats.censored_users))});
  }
  print_block("Fig. 4a — censored requests per censored user "
              "(paper: mass concentrated at 1-3)",
              fig4a);

  // Fig. 4b: activity CDF comparison at round thresholds.
  TextTable fig4b{{"Requests >", "Censored users above", "Clean users above"}};
  for (const double threshold : {10.0, 50.0, 100.0, 200.0, 400.0}) {
    fig4b.add_row({std::to_string(static_cast<int>(threshold)),
                   percent(stats.active_share_censored(threshold)),
                   percent(stats.active_share_clean(threshold))});
  }
  print_block("Fig. 4b — overall activity, censored vs clean users", fig4b);
}

void BM_UserStats(benchmark::State& state) {
  const auto& user = default_study().datasets().user;
  for (auto _ : state) {
    benchmark::DoNotOptimize(analysis::user_stats(user));
  }
  state.SetItemsProcessed(state.iterations() *
                          static_cast<std::int64_t>(user.rows()));
}
BENCHMARK(BM_UserStats)->Unit(benchmark::kMillisecond);

}  // namespace

SYRBENCH_MAIN(print_reproduction)
