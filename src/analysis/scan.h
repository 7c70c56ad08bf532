#pragma once

#include <algorithm>
#include <cstdint>
#include <functional>
#include <memory>
#include <span>
#include <stdexcept>
#include <string>
#include <string_view>
#include <vector>

#include "analysis/columnar.h"
#include "analysis/dataset.h"
#include "obs/context.h"
#include "proxy/log_io.h"
#include "util/parallel.h"

namespace syrwatch::analysis {

/// The unified scan layer (DESIGN.md §4.11). Every analyzer is written
/// once against LogSource — a record cursor over a ColumnStore, the one
/// in-memory column layout that both the row Dataset (CSV loads, Study
/// runs and spool tails alike) and the decoded SYRCOL1 container
/// (ColumnarLog) fill — and runs as a partitioned parallel scan: each
/// worker fills a private Partial from one partition's records in row
/// order, and the analyzer's fold merges the partials in partition order.
/// Because folds are required to be partition-layout independent
/// (partitions are slices of at most 16Ki rows of the store's chunks:
/// container blocks, or the dataset's 64Ki-row chunks) and to reproduce
/// the sequential row scan's observable state,
/// every analyzer's output is byte-identical across backends and thread
/// counts.

/// One log record as the scan layer presents it: scalar columns plus
/// zero-copy views into the store's string storage (the Dataset's pool
/// or the container's mapping — both outlive any scan). `host_id`,
/// `agent_id`, `host_slot` and `domain_id` are backend-local interned ids:
/// equal ids ⇔ equal strings within one source, so analyzers may group by
/// them but must never let the id *values* reach their output.
struct Record {
  std::uint64_t ordinal = 0;  ///< global row index in the base source
  std::int64_t time = 0;
  std::uint64_t user_hash = 0;
  std::string_view method, host, path, query, agent, categories;
  std::string_view domain;  ///< registrable domain of host (eTLD+1)
  std::uint32_t host_id = 0;
  std::uint32_t agent_id = 0;
  std::uint32_t host_slot = 0;  ///< dense host index (ColumnStore::host_at)
  std::uint32_t domain_id = 0;  ///< dense domain index (ColumnStore::domain)
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

struct DerivedSources;

/// A source of records: a cheap, copyable view over one ColumnStore, plus
/// an optional row mask for derived datasets (Dsample/Duser/Ddenied carved
/// out of Dfull without materializing rows). Constructed implicitly from
/// either store, so one analyzer signature `f(const LogSource&, …,
/// threads)` serves both call styles.
class LogSource {
 public:
  LogSource(const ColumnStore& store)  // NOLINT(google-explicit-constructor)
      : store_(&store), rows_(store.rows()) {}

  /// Records this source yields (after any mask).
  std::uint64_t rows() const noexcept { return rows_; }

  /// The store behind the view: its per-host and per-domain tables.
  const ColumnStore& store() const noexcept { return *store_; }

  /// Records of the underlying store, before any mask — the ordinal space
  /// Record::ordinal and masks index, and scan_increment's high-water
  /// domain. Live: a spool tail's Dataset may have grown since this view
  /// was constructed.
  std::uint64_t base_rows() const noexcept { return store_->rows(); }

  /// Rows per scan partition, at most: a fixed constant, so that a
  /// 64Ki-row chunk or block spreads over four workers.
  static constexpr std::size_t kSliceRows = 16 * 1024;

  /// Scan partitions: slices of at most kSliceRows rows, each inside one
  /// of the store's chunks, contiguous and in row order. A masked source
  /// keeps its base's partitions and simply yields fewer records. The
  /// layout never depends on the thread count, so the partial sequence an
  /// analyzer folds is the same for every `threads`.
  std::size_t partitions() const noexcept {
    std::size_t count = 0;
    for (const colfmt::DecodedBlock& chunk : store_->chunks())
      count += slices_of(chunk);
    return count;
  }

  /// One past the last base ordinal partition `p` covers — the bound
  /// scan_increment uses to skip fully-consumed partitions.
  std::uint64_t partition_base_end(std::size_t p) const noexcept {
    const Slice slice = locate(p);
    return slice.chunk->row_base + slice.end;
  }

  /// True min/max record timestamps. Precondition: rows() > 0. Stores
  /// keep arrival order, which is only approximately time-sorted: they
  /// track their bounds as rows arrive, and masked views resolve theirs
  /// at construction.
  struct TimeBounds {
    std::int64_t first = 0;
    std::int64_t last = 0;
  };
  TimeBounds time_bounds() const noexcept {
    if (mask_) return {first_time_, last_time_};
    return {store_->first_time(), store_->last_time()};
  }

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

  /// No-op: stores resolve their per-host tables eagerly, so every scan
  /// is safe at any thread count. Kept for callers written against the
  /// old lazy-cache contract.
  void prepare(std::size_t /*threads*/) const {}

  /// Invokes `fn(const Record&)` for every record of partition `p`, in row
  /// order. Thread-safe: scans only read.
  template <typename Fn>
  void scan_partition(std::size_t p, Fn&& fn) const {
    const Slice slice = locate(p);
    const colfmt::DecodedBlock& chunk = *slice.chunk;
    for (std::size_t i = slice.begin; i < slice.end; ++i) {
      const std::uint64_t ordinal = chunk.row_base + i;
      if (mask_ && (*mask_)[static_cast<std::size_t>(ordinal)] == 0)
        continue;
      fn(record(chunk, i, ordinal));
    }
  }

 private:
  /// Rows [begin, end) of one chunk: partition p.
  struct Slice {
    const colfmt::DecodedBlock* chunk;
    std::size_t begin;
    std::size_t end;
  };

  static std::size_t slices_of(const colfmt::DecodedBlock& chunk) noexcept {
    return (chunk.rows + kSliceRows - 1) / kSliceRows;
  }

  /// Partition `p`'s chunk and rows. Precondition: p < partitions().
  Slice locate(std::size_t p) const noexcept {
    for (const colfmt::DecodedBlock& chunk : store_->chunks()) {
      const std::size_t slices = slices_of(chunk);
      if (p < slices) {
        const std::size_t begin = p * kSliceRows;
        return {&chunk, begin, std::min(begin + kSliceRows, chunk.rows)};
      }
      p -= slices;
    }
    return {nullptr, 0, 0};
  }

  friend DerivedSources derive_sources(const LogSource&, std::uint64_t,
                                      std::size_t);

  /// This (unmasked) source under `mask`, whose row count and time bounds
  /// the caller has already tallied.
  LogSource with_mask(std::shared_ptr<const std::vector<std::uint8_t>> mask,
                      std::uint64_t rows, TimeBounds bounds) const {
    LogSource out = *this;
    out.mask_ = std::move(mask);
    out.rows_ = rows;
    out.first_time_ = bounds.first;
    out.last_time_ = bounds.last;
    return out;
  }

  /// The one adapter: row `i` of a chunk as a Record.
  Record record(const colfmt::DecodedBlock& c, std::size_t i,
                std::uint64_t ordinal) const {
    const ColumnStore& s = *store_;
    const std::uint32_t slot = s.host_slot(c.host[i]);
    const ColumnStore::HostInfo& host = s.host_at(slot);
    Record r;
    r.ordinal = ordinal;
    r.time = c.time[i];
    r.user_hash = c.user_hash[i];
    r.method = s.text(c.method[i]);
    r.host = s.text(c.host[i]);
    r.path = s.text(c.path[i]);
    r.query = s.text(c.query[i]);
    r.agent = s.text(c.agent[i]);
    r.categories = s.text(c.categories[i]);
    r.domain = host.domain;
    r.host_id = c.host[i];
    r.agent_id = c.agent[i];
    r.host_slot = slot;
    r.domain_id = host.domain_id;
    r.dest_ip = c.dest_ip[i];
    r.host_ip = host.ip;
    r.port = c.port[i];
    r.status = c.status[i];
    r.proxy_index = c.proxy_index[i];
    r.scheme = static_cast<net::Scheme>(c.scheme[i]);
    r.result = static_cast<proxy::FilterResult>(c.filter_result[i]);
    r.exception = static_cast<proxy::ExceptionId>(c.exception[i]);
    // §3.3: PROXIED is its own class whatever the exception says.
    r.cls = r.result == proxy::FilterResult::kProxied
                ? proxy::TrafficClass::kProxied
                : proxy::classify_by_exception(r.result, r.exception);
    r.has_dest_ip = c.has_dest[i] != 0;
    r.host_is_ip = host.is_ip;
    return r;
  }

  const ColumnStore* store_ = nullptr;
  /// Base-ordinal keep mask of a derived view; null = all records.
  std::shared_ptr<const std::vector<std::uint8_t>> mask_;
  std::uint64_t rows_ = 0;
  /// Cached time bounds of a masked view (the store answers for itself).
  std::int64_t first_time_ = 0;
  std::int64_t last_time_ = 0;
};

/// The scan driver: fills one default-constructed Partial per partition —
/// each from its partition's records, in row order, on whichever worker
/// claims it — and returns the partials in partition order for the
/// analyzer's fold. `scan(Partial&, const Record&)` must touch nothing
/// shared. threads <= 1 runs inline and is the reference execution. Each
/// partial is filled on its worker's stack and moved out at the end, so
/// neighbouring partials never share a cache line while they are written.
template <typename Partial, typename Scan>
std::vector<Partial> scan_partials(const LogSource& source,
                                   std::size_t threads, const Scan& scan) {
  std::vector<Partial> partials(source.partitions());
  util::parallel_for(source.partitions(), threads, [&](std::size_t p) {
    Partial partial{};
    source.scan_partition(p, [&](const Record& r) { scan(partial, r); });
    partials[p] = std::move(partial);
  });
  return partials;
}

/// Evaluates `fn(const ColumnStore::HostInfo&)` once per distinct host of
/// `source`'s store, in parallel over the slots, and returns the results
/// indexed by Record::host_slot: the per-host decisions an analyzer then
/// looks up per row instead of re-deciding. T must not be bool, since
/// workers write neighbouring entries.
template <typename T, typename Fn>
std::vector<T> per_host_slot(const LogSource& source, std::size_t threads,
                             const Fn& fn) {
  const ColumnStore& store = source.store();
  std::vector<T> out(store.host_count());
  constexpr std::size_t kGrain = 1024;
  util::parallel_for((out.size() + kGrain - 1) / kGrain, threads,
                     [&](std::size_t g) {
                       const std::size_t end =
                           std::min(out.size(), (g + 1) * kGrain);
                       for (std::size_t slot = g * kGrain; slot < end; ++slot)
                         out[slot] = fn(store.host_at(slot));
                     });
  return out;
}

/// A partial's id → count table: linear probing over 32-bit ids in a
/// power-of-two table at most half full. It grows with the distinct ids
/// one partition meets (at most LogSource::kSliceRows), never with the
/// store's id space, so a partial over a store of 10^5 domains stays as
/// small as its slice.
class IdCounts {
 public:
  void add(std::uint32_t id) {
    if (2 * (used_ + 1) > slots_.size()) grow();
    for (std::size_t i = home(id);; i = (i + 1) & (slots_.size() - 1)) {
      Slot& slot = slots_[i];
      if (slot.id == id) {
        ++slot.count;
        return;
      }
      if (slot.id == kFree) {
        slot = {id, 1};
        ++used_;
        return;
      }
    }
  }

  /// Invokes `fn(id, count)` for every id added, in table order.
  template <typename Fn>
  void for_each(Fn&& fn) const {
    for (const Slot& slot : slots_)
      if (slot.id != kFree) fn(slot.id, slot.count);
  }

 private:
  static constexpr std::uint32_t kFree = ~std::uint32_t{0};
  struct Slot {
    std::uint32_t id = kFree;
    std::uint32_t count = 0;  ///< a slice has at most kSliceRows rows
  };

  /// Fibonacci hashing: the top bits of id · 2^32/φ.
  std::size_t home(std::uint32_t id) const noexcept {
    return static_cast<std::uint32_t>(id * 2654435769u) >> (32 - bits_);
  }

  void grow() {
    std::vector<Slot> old = std::move(slots_);
    bits_ = old.empty() ? 6 : bits_ + 1;
    slots_.assign(std::size_t{1} << bits_, Slot{});
    for (const Slot& slot : old) {
      if (slot.id == kFree) continue;
      std::size_t i = home(slot.id);
      while (slots_[i].id != kFree) i = (i + 1) & (slots_.size() - 1);
      slots_[i] = slot;
    }
  }

  std::vector<Slot> slots_;
  std::size_t used_ = 0;
  unsigned bits_ = 0;
};

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

/// Indices of `times` in stable ascending order of time — the order
/// std::stable_sort by time gives, which Dsample's draw walks. An LSD
/// radix sort on time − min in 16-bit digits, with only as many passes as
/// the span needs; each pass is a stable counting sort, so equal times
/// keep index order. `threads` splits each pass's counting and scattering
/// (identical result for any value). Precondition: times.size() < 2^32.
std::vector<std::uint32_t> stable_time_order(
    std::span<const std::int64_t> times, std::size_t threads = 1);

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
/// log's CSV and SYRCOL1 copies select the same records. One parallel
/// scan gathers the times and Duser's and Ddenied's masks, and a stable
/// radix sort orders the draw. Identical for any `threads`.
DerivedSources derive_sources(const LogSource& full, std::uint64_t seed,
                              std::size_t threads = 1);

/// Why open_source refused an input.
enum class SourceOpenErrorCode : std::uint8_t {
  kNotFound,            ///< path missing or unreadable
  kBadMagic,            ///< neither a SYRCOL1 container nor a CSV log
  kUnsupportedVersion,  ///< container magic with an unknown version
  /// The file's end is damaged: a CSV ends mid-record, or a container's
  /// footer/index is unreadable or its last block partial (strict mode
  /// refuses; lenient recovers the intact prefix).
  kTornTail,
  /// A record failed validation (strict mode), or a container block did
  /// (a bad page inside an indexed block, or an out-of-range value — on
  /// the lenient path too).
  kMalformed,
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
  /// Parallelizes the container's block decode and the csv parse
  /// (identical result for any value).
  std::size_t threads = 1;
  /// Receives the csv load's counters and stage timers
  /// (proxy::read_log_ahead); null records nothing.
  obs::Context* obs = nullptr;
};

/// An on-disk log opened for analysis: whichever store the bytes called
/// for (row Dataset for CSV, decoded ColumnarLog for SYRCOL1),
/// plus the recovery stats a lenient open produced. LogSource views
/// handed to analyzers stay valid as long as this object lives.
class OpenedSource {
 public:
  LogSource source() const { return LogSource{store()}; }
  /// The store the bytes filled: the row Dataset or the container's.
  const ColumnStore& store() const noexcept {
    if (columnar_) return *columnar_;
    return *dataset_;
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
/// SourceOptions::format value). A container is decoded before this
/// returns, so every page CRC and column value has been checked.
OpenedSource open_source(const std::string& path,
                         const SourceOptions& options = {});

}  // namespace syrwatch::analysis
