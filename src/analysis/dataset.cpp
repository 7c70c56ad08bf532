#include "analysis/dataset.h"

#include <tuple>

#include "net/domain.h"
#include "net/ipv4.h"

namespace syrwatch::analysis {

void ColumnStore::resolve_host(std::uint32_t id) {
  if (id < host_slot_.size() && host_slot_[id] != kNoHost) return;
  HostInfo info;
  info.name = (*strings_)[id];
  if (const auto ip = net::Ipv4Addr::parse(info.name)) {
    info.ip = ip->value();
    info.is_ip = true;
  }
  info.domain_id = domains_.intern(
      net::registrable_domain_view(info.name, info.is_ip, scratch_));
  info.domain = domains_.view(info.domain_id);
  if (id >= host_slot_.size()) host_slot_.resize(id + 1, kNoHost);
  host_slot_[id] = static_cast<std::uint32_t>(hosts_.size());
  hosts_.push_back(info);
}

Dataset::Dataset() : pool_(std::make_unique<util::StringPool>()) {
  strings_ = &pool_->views();
}

void Dataset::add(const proxy::LogRecordView& record) {
  if (chunks_.empty() || chunks_.back().rows == kChunkRows) {
    colfmt::DecodedBlock& c = chunks_.emplace_back();
    c.row_base = rows_;
    // Whole chunks up front: growth never copies a column or frees one.
    std::apply([](auto&... column) { (column.reserve(kChunkRows), ...); },
               std::tie(c.time, c.user_hash, c.method, c.host, c.path, c.query,
                        c.agent, c.categories, c.port, c.status,
                        c.proxy_index, c.scheme, c.filter_result,
                        c.exception, c.dest_ip, c.has_dest));
  }
  colfmt::DecodedBlock& c = chunks_.back();
  c.time.push_back(record.time);
  c.user_hash.push_back(record.user_hash);
  c.host.push_back(pool_->intern(record.host));
  resolve_host(c.host.back());
  c.path.push_back(pool_->intern(record.path));
  c.query.push_back(pool_->intern(record.query));
  c.agent.push_back(pool_->intern(record.user_agent));
  c.categories.push_back(pool_->intern(record.categories));
  c.method.push_back(pool_->intern(record.method));
  c.port.push_back(record.port);
  c.status.push_back(record.status);
  c.proxy_index.push_back(record.proxy_index);
  c.scheme.push_back(static_cast<std::uint8_t>(record.scheme));
  c.filter_result.push_back(static_cast<std::uint8_t>(record.filter_result));
  c.exception.push_back(static_cast<std::uint8_t>(record.exception));
  c.dest_ip.push_back(record.dest_ip ? record.dest_ip->value() : 0);
  c.has_dest.push_back(record.dest_ip ? 1 : 0);
  note_time(record.time);
  ++c.rows;
  ++rows_;
}

}  // namespace syrwatch::analysis
