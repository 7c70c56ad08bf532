#include "proxy/farm.h"

#include <stdexcept>

#include "util/strings.h"

namespace syrwatch::proxy {

namespace {

// FNV-1a: a fixed, libstdc++-independent string hash, so routing (like
// every other stochastic choice) is reproducible across toolchains.
std::uint64_t fnv1a(std::string_view text) noexcept {
  std::uint64_t hash = 0xCBF29CE484222325ULL;
  for (const char c : text) {
    hash ^= static_cast<unsigned char>(c);
    hash *= 0x100000001B3ULL;
  }
  return hash;
}

}  // namespace

std::size_t ProxyFarm::TransparentStringHash::operator()(
    std::string_view text) const noexcept {
  return static_cast<std::size_t>(fnv1a(text));
}

ProxyFarm::ProxyFarm(const policy::SyriaPolicy* policy,
                     const SgProxyConfig& config, std::uint64_t seed)
    : route_salt_(util::mix64(seed ^ 0xFA53)),
      failovers_to_(policy::kProxyCount) {
  if (policy == nullptr) throw std::invalid_argument("ProxyFarm: null policy");
  proxies_.reserve(policy::kProxyCount);
  for (std::size_t i = 0; i < policy::kProxyCount; ++i) {
    proxies_.emplace_back(static_cast<std::uint8_t>(i), &policy->proxies[i],
                          &policy->custom_categories, config,
                          util::Rng{util::mix64(seed + i)});
  }
}

void ProxyFarm::add_affinity(std::string domain, std::size_t proxy_index,
                             double fraction) {
  if (proxy_index >= proxies_.size())
    throw std::out_of_range("ProxyFarm::add_affinity: bad proxy index");
  if (fraction < 0.0 || fraction > 1.0)
    throw std::invalid_argument("ProxyFarm::add_affinity: bad fraction");
  affinities_[util::to_lower(domain)].push_back({proxy_index, fraction});
}

void ProxyFarm::set_obs(obs::Context* ctx) {
  obs_route_calls_ = obs::counter(ctx, "farm.route.calls");
  obs_affinity_routed_ = obs::counter(ctx, "farm.route.affinity");
  obs_failovers_ = obs::counter(ctx, "farm.route.failover");
  for (SgProxy& appliance : proxies_) appliance.set_obs(ctx);
}

void ProxyFarm::set_fault_schedule(const fault::FaultSchedule* faults) {
  // An empty schedule is stored as "no fault layer" so route()'s hot path
  // pays nothing and stays bit-identical under the `none` profile.
  faults_ = (faults != nullptr && !faults->empty()) ? faults : nullptr;
  for (SgProxy& appliance : proxies_) appliance.set_fault_schedule(faults_);
}

std::size_t ProxyFarm::failover_target(const Request& request,
                                       std::size_t home) const noexcept {
  // Rendezvous (highest-random-weight) hash keyed on (salt, user, proxy):
  // every up proxy scores the user and the top score wins. Taking a proxy
  // down only remaps the users it was serving; everyone else keeps their
  // assignment, and a user's diverted traffic all lands on one survivor.
  std::size_t best = home;
  std::uint64_t best_score = 0;
  bool found = false;
  for (std::size_t p = 0; p < proxies_.size(); ++p) {
    if (faults_->is_down(p, request.time)) continue;
    const std::uint64_t score =
        util::mix64(route_salt_ ^ 0x9E3779B97F4A7C15ULL ^
                    util::mix64(request.user_id) ^ util::mix64(0xF417 + p));
    if (!found || score > best_score) {
      found = true;
      best_score = score;
      best = p;
    }
  }
  return best;
}

std::size_t ProxyFarm::route(const Request& request,
                             bool* diverted) const noexcept {
  if (diverted != nullptr) *diverted = false;
  obs::add(obs_route_calls_);
  std::size_t target = proxies_.size();
  // Walk the host's domain suffixes looking for an affinity entry.
  std::string_view probe{request.url.host};
  while (!probe.empty()) {
    const auto it = affinities_.find(probe);
    if (it != affinities_.end()) {
      // Per-request uniform draw in [0, 1): stateless, keyed by the farm
      // seed and the request identity, so the decision does not depend on
      // the order requests reach the farm — the property the parallel
      // pipeline's thread-count invariance rests on.
      double u = static_cast<double>(
                     util::mix64(route_salt_ ^ util::mix64(request.user_id) ^
                                 util::mix64(static_cast<std::uint64_t>(
                                     request.time)) ^
                                 fnv1a(request.url.host)) >>
                     11) *
                 0x1.0p-53;
      for (const AffinityTarget& affinity : it->second) {
        if (u < affinity.fraction) {
          target = affinity.proxy_index;
          break;
        }
        u -= affinity.fraction;
      }
      break;  // leftover share falls through to home routing
    }
    const auto dot = probe.find('.');
    if (dot == std::string_view::npos) break;
    probe.remove_prefix(dot + 1);
  }
  if (target == proxies_.size()) {
    target = static_cast<std::size_t>(util::mix64(request.user_id) %
                                      proxies_.size());
  } else {
    obs::add(obs_affinity_routed_);
  }

  if (faults_ != nullptr && faults_->is_down(target, request.time)) {
    const std::size_t survivor = failover_target(request, target);
    if (survivor != target) {
      if (diverted != nullptr) *diverted = true;
      obs::add(obs_failovers_);
    }
    return survivor;
  }
  return target;
}

LogRecord ProxyFarm::process(const Request& request) {
  bool diverted = false;
  const std::size_t target = route(request, &diverted);
  if (diverted) add_failovers(target, 1);
  return proxies_[target].process(request);
}

namespace {
constexpr std::string_view kFarmStateMagic = "SYRFARM1";
}

void ProxyFarm::save_state(std::string& out) const {
  out.assign(kFarmStateMagic);
  util::put_u64(out, proxies_.size());
  for (const SgProxy& proxy : proxies_) proxy.append_state(out);
  util::put_u64(out, failover_total_);
  for (const std::uint64_t count : failovers_to_) util::put_u64(out, count);
}

void ProxyFarm::restore_state(std::string_view bytes) {
  if (bytes.substr(0, kFarmStateMagic.size()) != kFarmStateMagic)
    throw std::runtime_error("ProxyFarm::restore_state: bad magic (not a "
                             "farm state blob)");
  util::ByteReader reader{bytes.substr(kFarmStateMagic.size()),
                          "ProxyFarm::restore_state"};
  const std::uint64_t count = reader.get_u64();
  if (count != proxies_.size())
    throw std::runtime_error(
        "ProxyFarm::restore_state: proxy count mismatch (blob has " +
        std::to_string(count) + ", farm has " +
        std::to_string(proxies_.size()) + ")");
  for (SgProxy& proxy : proxies_) proxy.restore_state(reader);
  failover_total_ = reader.get_u64();
  for (std::uint64_t& count : failovers_to_) count = reader.get_u64();
  reader.expect_end();
}

}  // namespace syrwatch::proxy
