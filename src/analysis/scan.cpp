#include "analysis/scan.h"

#include <algorithm>
#include <fstream>
#include <limits>
#include <numeric>
#include <optional>
#include <utility>

#include "util/rng.h"
#include "util/simtime.h"

namespace syrwatch::analysis {

namespace {

/// Row count and time bounds of a view, tallied over its records in any
/// order (min, max and sum), so a fold of per-partition tallies is the
/// same for any thread count.
struct ViewTally {
  std::uint64_t rows = 0;
  LogSource::TimeBounds bounds;

  void add(std::int64_t time) noexcept {
    if (rows++ == 0) {
      bounds = {time, time};
      return;
    }
    bounds.first = std::min(bounds.first, time);
    bounds.last = std::max(bounds.last, time);
  }
  void add(const ViewTally& other) noexcept {
    if (other.rows == 0) return;
    if (rows == 0) {
      *this = other;
      return;
    }
    rows += other.rows;
    bounds.first = std::min(bounds.first, other.bounds.first);
    bounds.last = std::max(bounds.last, other.bounds.last);
  }
};

}  // namespace

LogSource LogSource::masked(
    std::shared_ptr<const std::vector<std::uint8_t>> mask,
    std::size_t threads) const {
  if (!mask || mask->size() != base_rows())
    throw std::invalid_argument(
        "LogSource::masked: mask must hold one entry per base row");
  LogSource out = *this;
  if (mask_) {
    // Compose with the existing selection: a view of a view keeps the
    // base's ordinal space, so the masks simply AND together.
    auto combined = std::make_shared<std::vector<std::uint8_t>>(*mask_);
    for (std::size_t i = 0; i < combined->size(); ++i)
      (*combined)[i] = static_cast<std::uint8_t>((*combined)[i] != 0 &&
                                                 (*mask)[i] != 0);
    out.mask_ = std::move(combined);
  } else {
    out.mask_ = std::move(mask);
  }

  std::vector<ViewTally> partials(out.partitions());
  util::parallel_for(out.partitions(), threads, [&](std::size_t p) {
    out.scan_partition(p, [&](const Record& r) { partials[p].add(r.time); });
  });
  ViewTally tally;
  for (const ViewTally& p : partials) tally.add(p);
  out.rows_ = tally.rows;
  out.first_time_ = tally.bounds.first;
  out.last_time_ = tally.bounds.last;
  return out;
}

LogSource LogSource::filtered(const std::function<bool(const Record&)>& keep,
                              std::size_t threads) const {
  auto mask = std::make_shared<std::vector<std::uint8_t>>(
      static_cast<std::size_t>(base_rows()), std::uint8_t{0});
  // Each worker sets bits only at its own partition's ordinals, so the
  // writes never alias and the resulting mask is thread-count invariant.
  util::parallel_for(partitions(), threads, [&](std::size_t p) {
    scan_partition(p, [&](const Record& r) {
      if (keep(r))
        (*mask)[static_cast<std::size_t>(r.ordinal)] = 1;
    });
  });
  return masked(std::move(mask), threads);
}

std::vector<std::uint32_t> stable_time_order(
    std::span<const std::int64_t> times, std::size_t threads) {
  std::vector<std::uint32_t> order(times.size());
  std::iota(order.begin(), order.end(), std::uint32_t{0});
  if (times.empty()) return order;
  const auto [lo, hi] = std::minmax_element(times.begin(), times.end());
  const auto min = static_cast<std::uint64_t>(*lo);
  const std::uint64_t span = static_cast<std::uint64_t>(*hi) - min;

  // Each pass splits its input into `chunks` contiguous runs, counted and
  // scattered in parallel. Bucket d of chunk c starts after every smaller
  // digit and after bucket d of chunks before c, so a pass is a stable
  // counting sort whatever the chunk count.
  constexpr std::size_t kDigits = std::size_t{1} << 16;
  const std::size_t chunks = std::clamp<std::size_t>(
      threads, 1, (times.size() + kDigits - 1) / kDigits);
  const std::size_t chunk_size = (times.size() + chunks - 1) / chunks;
  std::vector<std::uint32_t> next(times.size());
  std::vector<std::uint32_t> start(chunks * kDigits);
  for (unsigned shift = 0; shift < 64 && (span >> shift) != 0; shift += 16) {
    const auto digit = [&](std::uint32_t index) {
      return static_cast<std::size_t>(
          ((static_cast<std::uint64_t>(times[index]) - min) >> shift) &
          (kDigits - 1));
    };
    const auto for_chunk = [&](std::size_t c, const auto& fn) {
      const std::size_t end = std::min(times.size(), (c + 1) * chunk_size);
      std::uint32_t* const bucket = start.data() + c * kDigits;
      for (std::size_t i = c * chunk_size; i < end; ++i) fn(bucket, order[i]);
    };
    util::parallel_for(chunks, threads, [&](std::size_t c) {
      std::fill_n(start.begin() + static_cast<std::ptrdiff_t>(c * kDigits),
                  kDigits, 0);
      for_chunk(c, [&](std::uint32_t* bucket, std::uint32_t index) {
        ++bucket[digit(index)];
      });
    });
    std::uint32_t sum = 0;
    for (std::size_t d = 0; d < kDigits; ++d)
      for (std::size_t c = 0; c < chunks; ++c)
        sum += std::exchange(start[c * kDigits + d], sum);
    util::parallel_for(chunks, threads, [&](std::size_t c) {
      for_chunk(c, [&](std::uint32_t* bucket, std::uint32_t index) {
        next[bucket[digit(index)]++] = index;
      });
    });
    order.swap(next);
  }
  return order;
}

DerivedSources derive_sources(const LogSource& full, std::uint64_t seed,
                              std::size_t threads) {
  if (full.rows() != full.base_rows())
    throw std::invalid_argument("derive_sources: full must be unmasked");
  if (full.rows() > std::numeric_limits<std::uint32_t>::max())
    throw std::length_error("derive_sources: more than 2^32 - 1 rows");
  const auto rows = static_cast<std::size_t>(full.rows());

  // One scan gathers every time, and Duser's and Ddenied's masks with
  // their tallies (folded in partition order; min, max and sum make the
  // fold layout-independent anyway).
  std::vector<std::int64_t> times(rows);
  auto user = std::make_shared<std::vector<std::uint8_t>>(rows, 0);
  auto denied = std::make_shared<std::vector<std::uint8_t>>(rows, 0);
  struct Tallies {
    ViewTally user, denied;
  };
  const auto partials = scan_partials<Tallies>(
      full, threads, [&](Tallies& tallies, const Record& r) {
        const auto i = static_cast<std::size_t>(r.ordinal);
        times[i] = r.time;
        if (r.proxy_index == 0 && r.user_hash != 0) {
          const auto c = util::to_civil(r.time);
          if (c.month == 7 && (c.day == 22 || c.day == 23)) {
            (*user)[i] = 1;
            tallies.user.add(r.time);
          }
        }
        if (r.exception != proxy::ExceptionId::kNone) {
          (*denied)[i] = 1;
          tallies.denied.add(r.time);
        }
      });
  Tallies tallies;
  for (const Tallies& p : partials) {
    tallies.user.add(p.user);
    tallies.denied.add(p.denied);
  }

  // The draw walks the ordinals in time order, so the first and last
  // records drawn bound the sample.
  auto sample = std::make_shared<std::vector<std::uint8_t>>(rows, 0);
  ViewTally sampled;
  util::Rng rng{util::mix64(seed ^ 0x5A3D1E)};
  for (const std::uint32_t ordinal : stable_time_order(times, threads)) {
    if (!rng.bernoulli(0.04)) continue;
    (*sample)[ordinal] = 1;
    sampled.add(times[ordinal]);
  }

  return DerivedSources{
      full, full.with_mask(std::move(sample), sampled.rows, sampled.bounds),
      full.with_mask(std::move(user), tallies.user.rows, tallies.user.bounds),
      full.with_mask(std::move(denied), tallies.denied.rows,
                     tallies.denied.bounds)};
}

std::string_view to_string(SourceOpenErrorCode code) noexcept {
  switch (code) {
    case SourceOpenErrorCode::kNotFound:
      return "not found";
    case SourceOpenErrorCode::kBadMagic:
      return "bad magic";
    case SourceOpenErrorCode::kUnsupportedVersion:
      return "unsupported version";
    case SourceOpenErrorCode::kTornTail:
      return "torn tail";
    case SourceOpenErrorCode::kMalformed:
      return "malformed";
  }
  return "unknown";
}

namespace {

[[noreturn]] void refuse(SourceOpenErrorCode code, const std::string& path,
                         const std::string& detail) {
  throw SourceOpenError(code, path + ": " + detail + " (" +
                                   std::string{to_string(code)} + ")");
}

/// Last byte of the file, or nullopt for an empty/unreadable one.
std::optional<char> last_byte(const std::string& path) {
  std::ifstream in{path, std::ios::binary | std::ios::ate};
  if (!in) return std::nullopt;
  const std::streamoff size = in.tellg();
  if (size <= 0) return std::nullopt;
  in.seekg(size - 1);
  char c = 0;
  if (!in.get(c)) return std::nullopt;
  return c;
}

void open_columnar(const std::string& path, const SourceOptions& options,
                   std::unique_ptr<ColumnarLog>& columnar,
                   colfmt::RecoveryStats& recovery) {
  // Classify the version before the strict open so an operator-facing
  // "from a newer writer" refusal never reads as generic corruption. The
  // version lives in the footer; a file too short for one (or with a
  // damaged footer) falls through to the torn-tail/recovery logic below.
  {
    std::ifstream in{path, std::ios::binary | std::ios::ate};
    const std::streamoff size = in ? static_cast<std::streamoff>(in.tellg())
                                   : std::streamoff{0};
    const auto footer_span =
        static_cast<std::streamoff>(colfmt::kFooterBytes);
    if (in && size >= footer_span + 8) {
      char footer[colfmt::kFooterBytes];
      in.seekg(size - footer_span);
      if (in.read(footer, footer_span) &&
          std::string_view(footer + 52, 8) == colfmt::kMagic) {
        std::uint64_t version = 0;
        for (int i = 7; i >= 0; --i)
          version = (version << 8) |
                    static_cast<unsigned char>(footer[40 + i]);
        if (version != colfmt::kVersion)
          refuse(SourceOpenErrorCode::kUnsupportedVersion, path,
                 "container version " + std::to_string(version) +
                     " (this build reads version " +
                     std::to_string(colfmt::kVersion) + ")");
      }
    }
  }
  std::optional<colfmt::Reader> reader;
  if (options.lenient) {
    reader.emplace(colfmt::Reader::open_lenient(path, &recovery));
  } else {
    try {
      reader.emplace(colfmt::Reader::open(path));
    } catch (const std::exception& error) {
      // An intact footer and index put the damage inside an indexed block;
      // otherwise the file's end was lost (a torn tail), and a lenient
      // open recovers the intact leading blocks.
      bool torn = false;
      try {
        torn = !colfmt::verify_file(path).footer_ok;
      } catch (const std::exception&) {
      }
      refuse(torn ? SourceOpenErrorCode::kTornTail
                  : SourceOpenErrorCode::kMalformed,
             path, error.what());
    }
  }
  // Decoding every block checks every column page and value, on the
  // strict and the lenient path alike.
  try {
    columnar = std::make_unique<ColumnarLog>(std::move(*reader),
                                             options.threads);
  } catch (const std::runtime_error& error) {
    refuse(SourceOpenErrorCode::kMalformed, path, error.what());
  }
}

void open_csv(const std::string& path, const SourceOptions& options,
              std::unique_ptr<Dataset>& dataset,
              proxy::LogReadStats& read_stats) {
  std::ifstream in{path, std::ios::binary};
  if (!in) refuse(SourceOpenErrorCode::kNotFound, path, "cannot open");
  if (!options.lenient) {
    // Strict: typed refusals. Writers in this codebase always end logs
    // with a newline, so a missing one is the signature of a
    // crash-truncated artifact — refuse it as a torn tail *before*
    // parsing, pointing the operator at --lenient.
    const auto tail = last_byte(path);
    if (!tail.has_value())
      refuse(SourceOpenErrorCode::kBadMagic, path, "empty file, no header");
    if (*tail != '\n')
      refuse(SourceOpenErrorCode::kTornTail, path,
             "final line lacks a newline (truncated write?)");
  }
  dataset = std::make_unique<Dataset>();
  // Workers parse ahead; rows are added here, on one thread in line
  // order, so every id and row is the one a serial load produces.
  proxy::LogLineReader reader;
  const proxy::LogReadStats stats = proxy::read_log_ahead(
      in, options.threads, reader,
      [&](proxy::LineKind kind, const proxy::ParsedLine& line) {
        if (!options.lenient) {
          if (!reader.stats().header_present)
            refuse(SourceOpenErrorCode::kBadMagic, path,
                   "first line is not the log CSV header");
          if (kind == proxy::LineKind::kSkipped)
            refuse(SourceOpenErrorCode::kMalformed, path,
                   "line " + std::to_string(reader.stats().lines) + ": " +
                       std::string{proxy::to_string(line.diagnosis.error)});
        }
        if (kind == proxy::LineKind::kRecord) dataset->add(line.record);
      },
      options.obs);
  if (options.lenient) read_stats = stats;
}

}  // namespace

OpenedSource open_source(const std::string& path,
                         const SourceOptions& options) {
  if (options.format != "auto" && options.format != "csv" &&
      options.format != "col")
    throw std::invalid_argument(
        "open_source: format must be auto, csv, or col (got \"" +
        options.format + "\")");
  OpenedSource out;
  const bool exists = static_cast<bool>(std::ifstream{path});
  if (!exists) refuse(SourceOpenErrorCode::kNotFound, path, "cannot open");
  const bool is_col =
      options.format == "col" ||
      (options.format == "auto" && colfmt::file_looks_like_container(path));
  if (is_col) {
    if (options.format == "col" && !colfmt::file_looks_like_container(path))
      refuse(SourceOpenErrorCode::kBadMagic, path,
             "not a SYRCOL1 container");
    open_columnar(path, options, out.columnar_, out.recovery_);
    return out;
  }
  open_csv(path, options, out.dataset_, out.read_stats_);
  return out;
}

}  // namespace syrwatch::analysis
