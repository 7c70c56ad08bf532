#include "analysis/columnar.h"

#include <stdexcept>
#include <string>
#include <utility>
#include <vector>

#include "util/parallel.h"

namespace syrwatch::analysis {

ColumnarLog::ColumnarLog(colfmt::Reader reader, std::size_t threads)
    : reader_(std::move(reader)) {
  strings_ = &reader_.dictionary();
  chunks_.resize(reader_.block_count());
  // Every block's failure is kept so the one reported — the first block's
  // — does not depend on which worker lost the race.
  std::vector<std::string> errors(chunks_.size());
  util::parallel_for(chunks_.size(), threads, [&](std::size_t b) {
    try {
      chunks_[b] = reader_.decode(b);
      reader_.release_columns(b);  // the columns now live in chunks_[b]
    } catch (const std::runtime_error& error) {
      errors[b] = error.what();
    }
  });
  for (const std::string& error : errors)
    if (!error.empty()) throw std::runtime_error(error);
  for (const colfmt::DecodedBlock& chunk : chunks_) {
    for (std::size_t i = 0; i < chunk.rows; ++i) {
      resolve_host(chunk.host[i]);
      note_time(chunk.time[i]);
      ++rows_;
    }
  }
}

}  // namespace syrwatch::analysis
