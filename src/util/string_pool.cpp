#include "util/string_pool.h"

#include <algorithm>
#include <memory>
#include <stdexcept>

namespace syrwatch::util {

StringPool::StringPool() {
  views_.emplace_back();  // id 0: empty string
  index_.emplace(views_.front(), kEmpty);
}

std::string_view StringPool::store(std::string_view s) {
  if (s.size() > left_) {
    const std::size_t bytes = std::max(kBlockBytes, s.size());
    free_ = blocks_.emplace_back(std::make_unique_for_overwrite<char[]>(bytes))
                .get();
    left_ = bytes;
  }
  const std::string_view copy{free_, s.size()};
  std::copy(s.begin(), s.end(), free_);
  free_ += s.size();
  left_ -= s.size();
  return copy;
}

StringPool::Id StringPool::intern(std::string_view s) {
  const auto it = index_.find(s);
  if (it != index_.end()) return it->second;
  const Id id = static_cast<Id>(views_.size());
  views_.push_back(store(s));
  index_.emplace(views_.back(), id);
  return id;
}

StringPool::Id StringPool::lookup(std::string_view s) const noexcept {
  const auto it = index_.find(s);
  return it == index_.end() ? kNotFound : it->second;
}

std::string_view StringPool::view(Id id) const {
  if (id >= views_.size()) throw std::out_of_range("StringPool::view");
  return views_[id];
}

}  // namespace syrwatch::util
