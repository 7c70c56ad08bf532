#include "proxy/sg_proxy.h"

#include <stdexcept>

namespace syrwatch::proxy {

SgProxy::SgProxy(std::uint8_t index, const policy::ProxyPolicy* policy,
                 const policy::CustomCategoryList* custom_categories,
                 const SgProxyConfig& config, util::Rng rng)
    : index_(index),
      policy_(policy),
      custom_categories_(custom_categories),
      config_(config),
      cache_(config.cache_capacity, config.cache_ttl_seconds),
      errors_(config.error_rates),
      rng_(rng) {
  if (policy == nullptr || custom_categories == nullptr)
    throw std::invalid_argument("SgProxy: null policy configuration");
}

void SgProxy::set_obs(obs::Context* ctx) {
  obs_ = Instruments{};
  if (ctx == nullptr) return;
  obs_.requests = obs::counter(ctx, "proxy.requests");
  obs_.cache_hits = obs::counter(ctx, "proxy.cache.hit");
  obs_.cache_misses = obs::counter(ctx, "proxy.cache.miss");
  obs_.policy_denied = obs::counter(ctx, "proxy.policy.denied");
  obs_.policy_redirect = obs::counter(ctx, "proxy.policy.redirect");
  obs_.error_draws = obs::counter(ctx, "proxy.error.draws");
  obs_.error_failures = obs::counter(ctx, "proxy.error.failures");
  obs_.dest_unreachable = obs::counter(ctx, "proxy.error.dest_unreachable");
  obs_.served = obs::counter(ctx, "proxy.served");
  for (std::size_t kind = 0; kind < policy::kRuleKindCount; ++kind) {
    obs_.rule_hits[kind] = obs::counter(
        ctx,
        "policy.rule_hit." + std::string(policy::kRuleKindNames[kind]));
  }
}

void SgProxy::append_state(std::string& out) const {
  for (const std::uint64_t word : rng_.save_state()) util::put_u64(out, word);
  util::put_u64(out, processed_);
  util::put_u64(out, cache_.hits());
  util::put_u64(out, cache_.misses());
  util::put_u64(out, cache_.size());
  cache_.for_each_recent(
      [&out](std::string_view key, const ResponseCache::Entry& entry) {
        util::put_bytes(out, key);
        util::put_u64(out, static_cast<std::uint64_t>(entry.exception));
        util::put_u64(out, entry.status);
        util::put_i64(out, entry.expires_at);
      });
}

void SgProxy::restore_state(util::ByteReader& reader) {
  std::array<std::uint64_t, 4> words;
  for (std::uint64_t& word : words) word = reader.get_u64();
  try {
    rng_.restore_state(words);
  } catch (const std::invalid_argument& error) {
    throw std::runtime_error(std::string("SgProxy::restore_state: ") +
                             error.what());
  }
  processed_ = reader.get_u64();
  const std::uint64_t hits = reader.get_u64();
  const std::uint64_t misses = reader.get_u64();
  const std::uint64_t entry_count = reader.get_u64();
  std::vector<ResponseCache::SnapshotEntry> entries;
  entries.reserve(entry_count);
  for (std::uint64_t i = 0; i < entry_count; ++i) {
    ResponseCache::SnapshotEntry entry;
    entry.key = std::string(reader.get_bytes());
    const std::uint64_t exception = reader.get_u64();
    if (exception >= kExceptionCount)
      throw std::runtime_error("SgProxy::restore_state: bad exception id");
    entry.entry.exception = static_cast<ExceptionId>(exception);
    const std::uint64_t status = reader.get_u64();
    if (status > 999)
      throw std::runtime_error("SgProxy::restore_state: bad status");
    entry.entry.status = static_cast<std::uint16_t>(status);
    entry.entry.expires_at = reader.get_i64();
    entries.push_back(std::move(entry));
  }
  try {
    cache_.restore(entries, hits, misses);
  } catch (const std::invalid_argument& error) {
    throw std::runtime_error(std::string("SgProxy::restore_state: ") +
                             error.what());
  }
}

LogRecord SgProxy::process(Request request) {
  ++processed_;
  obs::add(obs_.requests);

  // The request's strings move into the record; only its scalars are read
  // below.
  LogRecord record;
  record.time = request.time;
  record.proxy_index = index_;
  record.user_hash = util::mix64(request.user_id);
  record.user_agent = std::move(request.user_agent);
  record.method = std::move(request.method);
  record.url = std::move(request.url);
  record.dest_ip = request.dest_ip;

  // TLS interception: the tunnelled request becomes visible. Without it,
  // HTTPS records carry only host/IP and port, exactly as in the leak.
  if (config_.intercept_https && record.url.scheme == net::Scheme::kHttps) {
    record.url.path = std::move(request.inner_path);
    record.url.query = std::move(request.inner_query);
  }

  const std::string_view custom =
      custom_categories_->classify(record.url);
  record.categories = custom.empty() ? policy_->default_category_label
                                     : policy_->blocked_category_label;

  // 1. Cache: a hit short-circuits filtering and replays the stored
  //    outcome, logged as PROXIED.
  url_key_.clear();
  record.url.append_to(url_key_);
  const std::string_view url_key = url_key_;
  if (const ResponseCache::Entry* hit = cache_.find(url_key, request.time)) {
    obs::add(obs_.cache_hits);
    record.filter_result = FilterResult::kProxied;
    record.exception = hit->exception;
    record.status = hit->status;
    return record;
  }
  obs::add(obs_.cache_misses);

  // 2. Policy — evaluated against the effective (possibly intercepted) URL.
  const policy::FilterRequest filter_request{
      &record.url, request.dest_ip, request.time, custom};
  const policy::PolicyDecision decision =
      policy_->engine.evaluate(filter_request, rng_);
  if (decision.action != policy::PolicyAction::kAllow) {
    obs::add(decision.action == policy::PolicyAction::kRedirect
                 ? obs_.policy_redirect
                 : obs_.policy_denied);
    if (decision.rule_index != policy::PolicyDecision::kNoRule) {
      obs::add(obs_.rule_hits[policy_->engine.rule(decision.rule_index)
                                  .matcher.index()]);
    }
    record.filter_result = FilterResult::kDenied;
    record.exception = decision.action == policy::PolicyAction::kRedirect
                           ? ExceptionId::kPolicyRedirect
                           : ExceptionId::kPolicyDenied;
    record.status = ErrorModel::status_for(record.exception);
    if (rng_.bernoulli(config_.policy_admit_prob))
      cache_.admit(url_key, {record.exception, record.status, 0},
                   request.time);
    return record;
  }

  // 3. Fetch attempt. Destination-specific unreachability (e.g. churned
  //    Tor relays) surfaces as tcp_error ahead of the base error model.
  if (request.dest_unreachable_prob > 0.0 &&
      rng_.bernoulli(request.dest_unreachable_prob)) {
    obs::add(obs_.dest_unreachable);
    record.filter_result = FilterResult::kDenied;
    record.exception = ExceptionId::kTcpError;
    record.status = ErrorModel::status_for(ExceptionId::kTcpError);
    return record;
  }
  const double fault_multiplier =
      faults_ == nullptr ? 1.0
                         : faults_->error_multiplier(index_, request.time);
  obs::add(obs_.error_draws);
  const ExceptionId failure = errors_.sample(rng_, fault_multiplier);
  if (failure != ExceptionId::kNone) {
    obs::add(obs_.error_failures);
    record.filter_result = FilterResult::kDenied;
    record.exception = failure;
    record.status = ErrorModel::status_for(failure);
    return record;
  }

  // 4. Served.
  obs::add(obs_.served);
  record.filter_result = FilterResult::kObserved;
  record.exception = ExceptionId::kNone;
  record.status =
      request.cacheable && rng_.bernoulli(config_.not_modified_prob) ? 304
                                                                     : 200;
  if (request.cacheable && rng_.bernoulli(config_.observed_admit_prob))
    cache_.admit(url_key, {ExceptionId::kNone, 200, 0}, request.time);
  return record;
}

}  // namespace syrwatch::proxy
