#ifndef DTRACE_STORAGE_PAGED_TRACE_STORE_H_
#define DTRACE_STORAGE_PAGED_TRACE_STORE_H_

#include <cstdint>
#include <span>
#include <vector>

#include "storage/buffer_pool.h"
#include "storage/sim_disk.h"
#include "trace/trace_store.h"
#include "trace/types.h"
#include "util/status.h"

namespace dtrace {

/// Disk-resident copy of a TraceStore: every entity's ST-cell sets are
/// serialized contiguously onto SimDisk pages, with an in-memory directory
/// of (byte offset, byte length) per entity. Reads go through a BufferPool
/// so the memory-size experiment (Sec. 7.6) can vary the fraction of the
/// data that fits in memory and charge modeled I/O for the rest.
///
/// On-disk entity layout, uncompressed (the m-level reference layout): for
/// each level l in 1..m, a uint32 count followed by count uint32 cell ids.
///
/// Compressed (`compress`): the record is exactly ONE delta-packed id-list
/// blob (util/codec.h EncodeIdList, self-delimiting) holding seq^m_e, the
/// base level. The coarse levels are not stored: seq^l_e for l < m is
/// seq^m_e with each unit mapped to its level-l ancestor (Sec. 4.1), so
/// readers derive them (DeriveLevel). Records sit back to back with no
/// page-tail padding — encoded bytes may straddle pages, so readers copy
/// the record out before decoding.
///
/// Every read path range-checks what it decodes: a level's cells must be
/// strictly increasing and below horizon * units_at(level), else the read
/// fails with Corruption. Disk bytes that slipped past the page checksums
/// (or were read with verification off) can therefore never index outside
/// a level's cell space; derived levels are in range by construction.
class PagedTraceStore {
 public:
  /// Pool outcomes of one read, reported per call so concurrent readers can
  /// charge their own cursors exactly instead of diffing shared counters.
  struct ReadStats {
    uint64_t pages_read = 0;  // pool misses (real SimDisk page reads)
    uint64_t pages_hit = 0;   // pool hits
    // Fault accounting, straight from BufferPool::PinOutcome: load attempts
    // beyond the first, loads that failed page verification, and total
    // faults this reader's pins observed.
    uint64_t io_retries = 0;
    uint64_t checksum_failures = 0;
    uint64_t faults_injected = 0;

    void Charge(const BufferPool::PinOutcome& o) {
      if (o.missed) {
        ++pages_read;
      } else {
        ++pages_hit;
      }
      io_retries += o.io_retries;
      checksum_failures += o.checksum_failures;
      faults_injected += o.faults_injected;
    }
  };

  /// Serializes `store` onto `disk`. With `compress`, aborts unless every
  /// entity's stored coarse levels equal the ones derived from its base
  /// level (the invariant the compressed record relies on).
  PagedTraceStore(const TraceStore& store, SimDisk* disk,
                  bool compress = false);

  /// Number of data pages used.
  size_t num_pages() const { return pages_.size(); }

  /// Total serialized bytes.
  uint64_t data_bytes() const { return data_bytes_; }

  bool compressed() const { return compressed_; }

  /// What the UNcompressed serialization of the same store occupies
  /// (data_bytes() when compression is off) — the denominator of the
  /// compression ratio the benches report.
  uint64_t raw_bytes() const { return raw_bytes_; }

  /// Serialized bytes of entity `e`'s record.
  uint64_t entity_bytes(EntityId e) const { return dir_[e].bytes; }

  /// Reads entity `e`'s full record through `pool` into `out` (resized to m
  /// levels; inner vectors are reused, so a caller cycling records through a
  /// bounded cache allocates nothing in steady state). Uncompressed cell
  /// values are decoded straight out of the pinned frames — no intermediate
  /// byte-stream copy; a compressed record is copied out, its base level
  /// decoded and the coarse levels derived. Per-page pool outcomes are
  /// accumulated into `stats` when given. Safe to call concurrently (the
  /// pool is internally synchronized).
  ///
  /// On error (`*out` contents unspecified) the page walk stops at the
  /// failed pin — IoError/Corruption from the pool — or the read fails with
  /// Corruption when the record does not decode cleanly or a level's cells
  /// are out of order or out of range.
  Status ReadEntity(BufferPool* pool, EntityId e,
                    std::vector<std::vector<CellId>>* out,
                    ReadStats* stats = nullptr) const;

  /// Convenience overload returning fresh vectors; aborts on a read error
  /// (tests, tooling — no fault source configured).
  std::vector<std::vector<CellId>> ReadEntity(BufferPool* pool,
                                              EntityId e) const;

  /// Compressed stores only: copies entity `e`'s raw encoded record (one
  /// level-m id-list blob) through `pool` into `out` (resized; capacity
  /// reused) WITHOUT decoding — the cursor keeps the packed form resident
  /// so the intersection kernel can read the base level block-wise. On
  /// error, `*out` contents are unspecified.
  Status ReadEntityPacked(BufferPool* pool, EntityId e,
                          std::vector<uint8_t>* out,
                          ReadStats* stats = nullptr) const;

  /// Compressed stores only: decodes a record read by ReadEntityPacked into
  /// its base level `*base` (resized; capacity reused). Corruption unless
  /// the blob spans the record exactly and its cells are strictly
  /// increasing and below horizon * units_at(m).
  Status DecodeBase(std::span<const uint8_t> record,
                    std::vector<CellId>* base) const;

  /// Compressed stores only: derives seq^level_e (1 <= level < m) from the
  /// base cells `base` into `out` (resized; capacity reused). Base cell
  /// t * U_m + u maps to t * U_level + anc_level(u); the output stays
  /// t-major, sorted and deduplicated. Cannot fail on a base DecodeBase
  /// accepted.
  void DeriveLevel(std::span<const CellId> base, Level level,
                   std::vector<CellId>* out) const;

 private:
  struct DirEntry {
    uint64_t offset;  // byte offset into the logical data area
    uint64_t bytes;
  };

  // Corruption unless `cells` is strictly increasing and below
  // horizon * units_at(level).
  Status CheckCells(Level level, std::span<const CellId> cells) const;

  int m_;
  bool compressed_ = false;
  TimeStep horizon_;
  std::vector<uint32_t> units_;  // [m] units per level
  // Compressed stores: ancestors_[l-1][u] = level-l ancestor of base unit u,
  // for l in 1..m-1.
  std::vector<std::vector<UnitId>> ancestors_;
  std::vector<PageId> pages_;
  std::vector<DirEntry> dir_;
  uint64_t data_bytes_ = 0;
  uint64_t raw_bytes_ = 0;
};

}  // namespace dtrace

#endif  // DTRACE_STORAGE_PAGED_TRACE_STORE_H_
