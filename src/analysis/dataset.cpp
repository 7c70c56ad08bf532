#include "analysis/dataset.h"

#include "net/domain.h"
#include "net/ipv4.h"

namespace syrwatch::analysis {

Dataset::Dataset() : pool_(std::make_unique<util::StringPool>()) {}

void Dataset::add(const proxy::LogRecord& record) {
  Row row;
  row.time = record.time;
  row.user_hash = record.user_hash;
  row.host = pool_->intern(record.url.host);
  resolve_host(row.host);
  row.path = pool_->intern(record.url.path);
  row.query = pool_->intern(record.url.query);
  row.agent = pool_->intern(record.user_agent);
  row.categories = pool_->intern(record.categories);
  row.method = pool_->intern(record.method);
  if (record.dest_ip) {
    row.dest_ip = record.dest_ip->value();
    row.has_dest_ip = true;
  }
  row.port = record.url.port;
  row.status = record.status;
  row.proxy_index = record.proxy_index;
  row.scheme = record.url.scheme;
  row.result = record.filter_result;
  row.exception = record.exception;
  if (rows_.empty() || row.time < first_time_) first_time_ = row.time;
  if (rows_.empty() || row.time > last_time_) last_time_ = row.time;
  rows_.push_back(row);
}

void Dataset::resolve_host(util::StringPool::Id host) {
  if (host < hosts_.size() &&
      hosts_[host].domain != util::StringPool::kNotFound)
    return;  // seen before
  const std::string_view text = pool_->view(host);
  HostInfo info;
  info.domain = pool_->intern(net::registrable_domain(text));
  if (const auto ip = net::Ipv4Addr::parse(text)) {
    info.ip = ip->value();
    info.is_ip = true;
  }
  if (hosts_.size() < pool_->size()) hosts_.resize(pool_->size());
  hosts_[host] = info;
}

}  // namespace syrwatch::analysis
