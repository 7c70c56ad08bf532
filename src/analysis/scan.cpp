#include "analysis/scan.h"

#include <algorithm>
#include <fstream>
#include <numeric>
#include <optional>
#include <utility>

#include "util/rng.h"
#include "util/simtime.h"

namespace syrwatch::analysis {

namespace {

/// Row count and time bounds of a freshly masked view, resolved with one
/// parallel scan (per-partition partials folded in order, like any other
/// analyzer — identical for any thread count).
struct ViewStats {
  std::uint64_t count = 0;
  std::int64_t first = 0;
  std::int64_t last = 0;
  bool any = false;
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

  std::vector<ViewStats> partials(out.partitions());
  util::parallel_for(out.partitions(), threads, [&](std::size_t p) {
    out.scan_partition(p, [&](const Record& r) {
      ViewStats& s = partials[p];
      ++s.count;
      if (!s.any) {
        s.first = s.last = r.time;
        s.any = true;
        return;
      }
      s.first = std::min(s.first, r.time);
      s.last = std::max(s.last, r.time);
    });
  });
  out.rows_ = 0;
  out.first_time_ = 0;
  out.last_time_ = 0;
  bool seen = false;
  for (const ViewStats& s : partials) {
    if (!s.any) continue;
    out.rows_ += s.count;
    if (!seen) {
      out.first_time_ = s.first;
      out.last_time_ = s.last;
      seen = true;
      continue;
    }
    out.first_time_ = std::min(out.first_time_, s.first);
    out.last_time_ = std::max(out.last_time_, s.last);
  }
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

DerivedSources derive_sources(const LogSource& full, std::uint64_t seed,
                              std::size_t threads) {
  if (full.rows() != full.base_rows())
    throw std::invalid_argument("derive_sources: full must be unmasked");
  std::vector<std::int64_t> times(static_cast<std::size_t>(full.rows()));
  util::parallel_for(full.partitions(), threads, [&](std::size_t p) {
    full.scan_partition(p, [&](const Record& r) {
      times[static_cast<std::size_t>(r.ordinal)] = r.time;
    });
  });
  std::vector<std::uint64_t> order(times.size());
  std::iota(order.begin(), order.end(), 0);
  std::stable_sort(order.begin(), order.end(),
                   [&](std::uint64_t a, std::uint64_t b) {
                     return times[a] < times[b];
                   });
  auto sample = std::make_shared<std::vector<std::uint8_t>>(times.size(), 0);
  util::Rng rng{util::mix64(seed ^ 0x5A3D1E)};
  for (const std::uint64_t ordinal : order)
    (*sample)[ordinal] = rng.bernoulli(0.04) ? 1 : 0;

  return DerivedSources{
      full, full.masked(std::move(sample), threads),
      full.filtered(
          [](const Record& r) {
            if (r.proxy_index != 0 || r.user_hash == 0) return false;
            const auto c = util::to_civil(r.time);
            return c.month == 7 && (c.day == 22 || c.day == 23);
          },
          threads),
      full.filtered(
          [](const Record& r) {
            return r.exception != proxy::ExceptionId::kNone;
          },
          threads)};
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
