#pragma once

#include <algorithm>
#include <cstdint>
#include <functional>
#include <memory>
#include <stdexcept>
#include <string>
#include <string_view>
#include <vector>

#include "analysis/columnar.h"
#include "analysis/dataset.h"
#include "proxy/log_io.h"
#include "util/parallel.h"

namespace syrwatch::analysis {

/// The unified scan layer (DESIGN.md §4.11). Every analyzer is written
/// once against LogSource — a record cursor with two backends, the
/// in-memory row Dataset (CSV loads, Study runs and spool tails alike) and
/// the mmap'd SYRCOL1 container (ColumnarLog) — and runs as a partitioned
/// parallel scan: each worker fills a private Partial from one partition's
/// records in row order, and the analyzer's fold merges the partials in
/// partition order. Because folds are required to be partition-layout
/// independent (columnar partitions are container blocks, dataset
/// partitions are fixed row ranges) and to reproduce the sequential row
/// scan's observable state, every analyzer's output is byte-identical
/// across backends and thread counts.

/// One log record as the scan layer presents it: scalar columns plus
/// zero-copy views into the backend's string storage (the Dataset's pool
/// or the container's mapping — both outlive any scan). `host_id` and
/// `agent_id` are backend-local interned ids: equal ids ⇔ equal strings
/// within one source, so analyzers may group by them but must never let
/// the id *values* reach their output.
struct Record {
  std::uint64_t ordinal = 0;  ///< global row index in the base source
  std::int64_t time = 0;
  std::uint64_t user_hash = 0;
  std::string_view method, host, path, query, agent, categories;
  std::string_view domain;  ///< registrable domain of host (eTLD+1)
  std::uint32_t host_id = 0;
  std::uint32_t agent_id = 0;
  std::uint32_t dest_ip = 0;
  std::uint32_t host_ip = 0;  ///< dotted-quad parse, valid when host_is_ip
  std::uint16_t port = 0;
  std::uint16_t status = 0;
  std::uint8_t proxy_index = 0;
  net::Scheme scheme = net::Scheme::kHttp;
  proxy::FilterResult result = proxy::FilterResult::kObserved;
  proxy::ExceptionId exception = proxy::ExceptionId::kNone;
  proxy::TrafficClass cls = proxy::TrafficClass::kAllowed;
  bool has_dest_ip = false;
  bool host_is_ip = false;

  /// host + path + "?query" — the text the keyword filter scanned.
  std::string filter_text() const {
    std::string text{host};
    text += path;
    if (!query.empty()) {
      text += '?';
      text += query;
    }
    return text;
  }
};

/// A source of records: a cheap, copyable view over one backend, plus an
/// optional row mask for derived datasets (Dsample/Duser/Ddenied carved
/// out of a file-backed Dfull without materializing rows). Constructed
/// implicitly from either backend, so one analyzer signature
/// `f(const LogSource&, …, threads)` serves both call styles.
class LogSource {
 public:
  /// Rows per dataset partition. Fixed — never derived from the thread
  /// count — so the partial sequence an analyzer folds is the same for
  /// every `threads` value. (Columnar partitions are container blocks,
  /// whose size the writer fixed; folds must not assume the two layouts
  /// align.)
  static constexpr std::size_t kRowsPerPartition = 64 * 1024;

  LogSource(const Dataset& dataset)  // NOLINT(google-explicit-constructor)
      : dataset_(&dataset), rows_(dataset.size()) {}
  LogSource(const ColumnarLog& log)  // NOLINT(google-explicit-constructor)
      : columnar_(&log), rows_(log.rows()) {}

  /// Records this source yields (after any mask).
  std::uint64_t rows() const noexcept { return rows_; }

  /// Records of the *underlying backend*, before any mask — the ordinal
  /// space Record::ordinal and masks index, and scan_increment's
  /// high-water domain. For the Dataset backend this is live (a spool
  /// tail may have grown it since this view was constructed).
  std::uint64_t base_rows() const noexcept {
    return columnar_ != nullptr ? columnar_->rows() : dataset_->size();
  }

  /// Scan partitions. Contiguous, in row order; a masked source keeps its
  /// base's partition layout and simply yields fewer records.
  std::size_t partitions() const noexcept {
    if (columnar_ != nullptr) return columnar_->block_count();
    return (dataset_->size() + kRowsPerPartition - 1) / kRowsPerPartition;
  }

  /// One past the last base ordinal partition `p` covers — the bound
  /// scan_increment uses to skip fully-consumed partitions.
  std::uint64_t partition_base_end(std::size_t p) const noexcept {
    if (columnar_ != nullptr) {
      const colfmt::BlockInfo& b = columnar_->reader().blocks()[p];
      return b.row_base + b.rows;
    }
    const std::uint64_t end = (p + 1) * kRowsPerPartition;
    return std::min<std::uint64_t>(end, base_rows());
  }

  /// True min/max record timestamps. Precondition: rows() > 0. Both
  /// backends keep emission order, which is only approximately
  /// time-sorted: the Dataset tracks its bounds at add(), the columnar
  /// backend computes them with one parallel scan (identical result for
  /// any `threads`), and masked views resolved theirs at construction.
  struct TimeBounds {
    std::int64_t first = 0;
    std::int64_t last = 0;
  };
  TimeBounds time_bounds(std::size_t threads = 1) const;

  /// Derived source yielding only the records `keep` accepts. The mask is
  /// resolved eagerly (deterministically, for any `threads`), so
  /// scanning the view afterwards is pure reads.
  LogSource filtered(const std::function<bool(const Record&)>& keep,
                     std::size_t threads = 1) const;

  /// Derived source selecting records by base ordinal (mask[ordinal] != 0)
  /// — the hook for selections that are not per-record predicates, e.g.
  /// Dsample's sequential Bernoulli draw. The mask must hold exactly
  /// base_rows() entries (std::invalid_argument otherwise). `threads`
  /// parallelizes the view's row-count/time-bounds resolution (identical
  /// for any value).
  LogSource masked(std::shared_ptr<const std::vector<std::uint8_t>> mask,
                   std::size_t threads = 1) const;

  /// No-op: both backends resolve their per-host tables eagerly, so every
  /// scan is safe at any thread count. Kept for callers written against
  /// the old lazy-cache contract.
  void prepare(std::size_t /*threads*/) const {}

  /// Invokes `fn(const Record&)` for every record of partition `p`, in row
  /// order. Thread-safe: scans only read.
  template <typename Fn>
  void scan_partition(std::size_t p, Fn&& fn) const {
    if (columnar_ != nullptr) {
      const colfmt::DecodedBlock block = columnar_->reader().decode(p);
      const std::uint64_t base = columnar_->reader().blocks()[p].row_base;
      for (std::size_t r = 0; r < block.rows; ++r) {
        const std::uint64_t ordinal = base + r;
        if (mask_ && (*mask_)[static_cast<std::size_t>(ordinal)] == 0)
          continue;
        fn(from_block(block, r, ordinal));
      }
      return;
    }
    const auto& rows = dataset_->rows();
    const std::size_t begin = p * kRowsPerPartition;
    const std::size_t end = std::min(rows.size(), begin + kRowsPerPartition);
    for (std::size_t i = begin; i < end; ++i) {
      if (mask_ && (*mask_)[i] == 0) continue;
      fn(from_row(rows[i], i));
    }
  }

 private:
  Record from_row(const Row& row, std::uint64_t ordinal) const {
    const Dataset& d = *dataset_;
    Record r;
    r.ordinal = ordinal;
    r.time = row.time;
    r.user_hash = row.user_hash;
    r.method = d.view(row.method);
    r.host = d.view(row.host);
    r.path = d.view(row.path);
    r.query = d.view(row.query);
    r.agent = d.view(row.agent);
    r.categories = d.view(row.categories);
    r.domain = d.domain(row);
    r.host_id = row.host;
    r.agent_id = row.agent;
    r.dest_ip = row.dest_ip;
    r.host_is_ip = d.host_is_ip(row);
    r.host_ip = r.host_is_ip ? d.host_ip(row) : 0;
    r.port = row.port;
    r.status = row.status;
    r.proxy_index = row.proxy_index;
    r.scheme = row.scheme;
    r.result = row.result;
    r.exception = row.exception;
    r.cls = d.cls(row);
    r.has_dest_ip = row.has_dest_ip;
    return r;
  }

  Record from_block(const colfmt::DecodedBlock& b, std::size_t i,
                    std::uint64_t ordinal) const {
    const ColumnarLog& log = *columnar_;
    const colfmt::Reader& reader = log.reader();
    Record r;
    r.ordinal = ordinal;
    r.time = b.time[i];
    r.user_hash = b.user_hash[i];
    r.method = reader.view(b.method[i]);
    r.host = reader.view(b.host[i]);
    r.path = reader.view(b.path[i]);
    r.query = reader.view(b.query[i]);
    r.agent = reader.view(b.agent[i]);
    r.categories = reader.view(b.categories[i]);
    r.domain = log.domain(b.host[i]);
    r.host_id = b.host[i];
    r.agent_id = b.agent[i];
    r.dest_ip = b.has_dest[i] != 0 ? b.dest_ip[i] : 0;
    r.host_is_ip = log.host_is_ip(b.host[i]);
    r.host_ip = r.host_is_ip ? log.host_ip(b.host[i]) : 0;
    r.port = b.port[i];
    r.status = b.status[i];
    r.proxy_index = b.proxy_index[i];
    r.scheme = static_cast<net::Scheme>(b.scheme[i]);
    r.result = static_cast<proxy::FilterResult>(b.filter_result[i]);
    r.exception = static_cast<proxy::ExceptionId>(b.exception[i]);
    r.cls = ColumnarLog::cls(b.filter_result[i], b.exception[i]);
    r.has_dest_ip = b.has_dest[i] != 0;
    return r;
  }

  const Dataset* dataset_ = nullptr;
  const ColumnarLog* columnar_ = nullptr;
  /// Base-ordinal keep mask of a derived view; null = all records.
  std::shared_ptr<const std::vector<std::uint8_t>> mask_;
  std::uint64_t rows_ = 0;
  /// Cached time bounds of a masked view (the base backends answer from
  /// their own storage).
  std::int64_t first_time_ = 0;
  std::int64_t last_time_ = 0;
};

/// The scan driver: fills one default-constructed Partial per partition —
/// each from its partition's records, in row order, on whichever worker
/// claims it — and returns the partials in partition order for the
/// analyzer's fold. `scan(Partial&, const Record&)` must touch nothing
/// shared. threads <= 1 runs inline and is the reference execution.
template <typename Partial, typename Scan>
std::vector<Partial> scan_partials(const LogSource& source,
                                   std::size_t threads, const Scan& scan) {
  std::vector<Partial> partials(source.partitions());
  util::parallel_for(source.partitions(), threads, [&](std::size_t p) {
    source.scan_partition(p,
                          [&](const Record& r) { scan(partials[p], r); });
  });
  return partials;
}

/// scan_partials + fold in one call: `fold(std::vector<Partial>&&)`
/// produces the analyzer's result. The fold runs sequentially over the
/// partials in partition order; to be backend- and thread-count-invariant
/// it must depend only on the concatenated record sequence (see DESIGN.md
/// §4.11 for the determinism rules).
template <typename Partial, typename Scan, typename Fold>
auto parallel_scan(const LogSource& source, std::size_t threads,
                   const Scan& scan, Fold&& fold) {
  return fold(scan_partials<Partial>(source, threads, scan));
}

/// The incremental-emission API beside scan_partials (DESIGN.md §4.12):
/// invokes `fn(const Record&)` for every record whose *base ordinal* is
/// in [from, base_rows()), in row order, and returns the new high-water
/// mark. Feeding a growing source (a spool tail's Dataset between polls,
/// or any backend being replayed into a streaming analyzer) is then
///
///   hw = scan_increment(source, hw, [&](const Record& r) { ... });
///
/// Emission is sequential by design — streaming consumers are
/// order-dependent (reservoirs, saturated sketches) — and visits masked
/// sources' surviving records only, though the returned mark always
/// advances over the full base ordinal space.
template <typename Fn>
std::uint64_t scan_increment(const LogSource& source, std::uint64_t from,
                             Fn&& fn) {
  const std::uint64_t end = source.base_rows();
  if (from >= end) return end;
  const std::size_t parts = source.partitions();
  for (std::size_t p = 0; p < parts; ++p) {
    if (source.partition_base_end(p) <= from) continue;
    source.scan_partition(p, [&](const Record& r) {
      if (r.ordinal >= from) fn(r);
    });
  }
  return end;
}

/// The paper's four datasets (Table 1) as views over one log.
struct DerivedSources {
  LogSource full;    ///< Dfull: everything the leak contains
  LogSource sample;  ///< Dsample: 4% uniform sample of Dfull
  LogSource user;    ///< Duser: SG-42, July 22-23, hashed client ids
  LogSource denied;  ///< Ddenied: x-exception-id != '-'
};

/// Carves Dsample/Duser/Ddenied out of an unmasked `full` as masked views
/// — the one derivation Study and `syrwatchctl report` share. Dsample
/// draws one Bernoulli(0.04) per record from `seed`, in stable time order
/// of base ordinals: that order does not depend on the backend, so a
/// log's CSV and SYRCOL1 copies select the same records. Identical for
/// any `threads`.
DerivedSources derive_sources(const LogSource& full, std::uint64_t seed,
                              std::size_t threads = 1);

/// Why open_source refused an input.
enum class SourceOpenErrorCode : std::uint8_t {
  kNotFound,            ///< path missing or unreadable
  kBadMagic,            ///< neither a SYRCOL1 container nor a CSV log
  kUnsupportedVersion,  ///< container magic with an unknown version
  kTornTail,            ///< file ends mid-record (strict mode refuses)
  kMalformed,           ///< a record failed validation (strict mode)
};

std::string_view to_string(SourceOpenErrorCode code) noexcept;

/// Typed failure from open_source: what() carries the path and detail,
/// code() the machine-readable reason (the CLI maps kTornTail to "re-run
/// with --lenient", tests assert on it).
class SourceOpenError : public std::runtime_error {
 public:
  SourceOpenError(SourceOpenErrorCode code, const std::string& message)
      : std::runtime_error(message), code_(code) {}
  SourceOpenErrorCode code() const noexcept { return code_; }

 private:
  SourceOpenErrorCode code_;
};

struct SourceOptions {
  /// "auto" (sniff the first bytes), "csv", or "col".
  std::string format = "auto";
  /// Recover damaged inputs (torn tails truncated, malformed rows
  /// skipped and tallied) instead of throwing.
  bool lenient = false;
  /// Parallelizes the columnar dictionary precomputation (identical
  /// result for any value).
  std::size_t threads = 1;
};

/// An on-disk log opened for analysis: whichever backend the bytes
/// called for (row Dataset for CSV, mmap'd ColumnarLog for SYRCOL1),
/// plus the recovery stats a lenient open produced. LogSource views
/// handed to analyzers stay valid as long as this object lives.
class OpenedSource {
 public:
  LogSource source() const {
    return columnar_ ? LogSource{*columnar_} : LogSource{*dataset_};
  }
  std::uint64_t rows() const { return source().rows(); }
  bool is_columnar() const noexcept { return columnar_ != nullptr; }
  /// The container backend; only valid when is_columnar().
  const ColumnarLog& columnar() const { return *columnar_; }
  /// CSV lenient-parse stats (zeroed for containers / strict opens).
  const proxy::LogReadStats& read_stats() const noexcept {
    return read_stats_;
  }
  /// Container lenient-recovery stats (zeroed for CSV / strict opens).
  const colfmt::RecoveryStats& recovery() const noexcept {
    return recovery_;
  }

 private:
  friend OpenedSource open_source(const std::string&, const SourceOptions&);
  std::unique_ptr<Dataset> dataset_;
  std::unique_ptr<ColumnarLog> columnar_;
  proxy::LogReadStats read_stats_;
  colfmt::RecoveryStats recovery_{};
};

/// The one format-sniffing open path every consumer shares — promoted
/// from syrwatchctl's tool-local loader. Throws SourceOpenError with a
/// typed code on refusal (std::invalid_argument for a bad
/// SourceOptions::format value).
OpenedSource open_source(const std::string& path,
                         const SourceOptions& options = {});

}  // namespace syrwatch::analysis
