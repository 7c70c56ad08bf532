#include "analysis/columnar.h"

#include <utility>

#include "net/domain.h"
#include "net/ipv4.h"
#include "util/parallel.h"

namespace syrwatch::analysis {

ColumnarLog::ColumnarLog(colfmt::Reader reader, std::size_t threads)
    : reader_(std::move(reader)) {
  const auto ids = static_cast<std::size_t>(reader_.dict_size());
  domain_by_id_.resize(ids);
  ip_by_id_.assign(ids, 0);
  is_ip_.assign(ids, 0);
  // Id 0 ("") is implicit in the format and belongs to no block's delta.
  if (ids > 0) domain_by_id_[0] = net::registrable_domain("");
  // One grain per block's dictionary delta (colfmt::Reader::dict_entries):
  // each worker resolves exactly the strings born in its block, so the
  // precompute parallelizes along the same block axis the scans use.
  util::parallel_for(reader_.block_count(), threads, [&](std::size_t b) {
    const colfmt::DictDelta delta = reader_.dict_entries(b);
    for (std::uint32_t i = 0; i < delta.count; ++i) {
      const auto id = static_cast<std::size_t>(delta.base + i);
      const std::string_view text = delta.entries[i];
      domain_by_id_[id] = net::registrable_domain(text);
      if (const auto ip = net::Ipv4Addr::parse(text)) {
        ip_by_id_[id] = ip->value();
        is_ip_[id] = 1;
      }
    }
  });
}

}  // namespace syrwatch::analysis
