#ifndef DTRACE_STORAGE_SIM_DISK_H_
#define DTRACE_STORAGE_SIM_DISK_H_

#include <array>
#include <atomic>
#include <cstdint>
#include <cstring>
#include <memory>
#include <mutex>
#include <vector>

#include "util/check.h"
#include "util/status.h"

namespace dtrace {

/// Fixed page size of the storage substrate (bytes).
constexpr size_t kPageSize = 4096;

using PageId = uint32_t;

/// One disk page.
struct Page {
  std::array<uint8_t, kPageSize> data;
};

/// Content checksum of a whole page: word-wise xor-multiply-mix over the
/// 4096 bytes. Not cryptographic — it only needs to catch device-class
/// damage (torn tails, bit flips), and it must be cheap enough to run on
/// every buffer-pool frame load (~512 multiplies per 4K page, well under
/// the memcpy that accompanies it).
inline uint64_t PageChecksum(const Page& page) {
  uint64_t h = 0x9e3779b97f4a7c15ull;
  const uint8_t* p = page.data.data();
  for (size_t i = 0; i < kPageSize; i += 8) {
    uint64_t w;
    std::memcpy(&w, p + i, sizeof(w));
    h ^= w;
    h *= 0xbf58476d1ce4e5b9ull;
    h ^= h >> 29;
  }
  return h;
}

/// Append-only table of per-page state, indexed by PageId, that readers may
/// traverse lock-free while one (caller-serialized) thread grows it: a fixed
/// array of atomically published fixed-size chunks, so growth never
/// relocates existing slots — the property std::vector cannot give once
/// Allocate runs concurrently with I/O. The owner publishes new slots with a
/// release store of its page count; readers that acquire-load that count
/// before indexing are guaranteed to see the chunk pointer and the slot's
/// initialization.
template <typename Slot>
class PageSlotTable {
 public:
  static constexpr size_t kChunkBits = 11;  // 2048 slots per chunk
  static constexpr size_t kChunkSlots = size_t{1} << kChunkBits;
  static constexpr size_t kMaxChunks = size_t{1} << 12;  // 8M pages = 32 GiB

  PageSlotTable() : chunks_(new std::atomic<Chunk*>[kMaxChunks]) {
    for (size_t i = 0; i < kMaxChunks; ++i) {
      chunks_[i].store(nullptr, std::memory_order_relaxed);
    }
  }
  ~PageSlotTable() {
    for (size_t i = 0; i < kMaxChunks; ++i) {
      delete chunks_[i].load(std::memory_order_relaxed);
    }
  }
  PageSlotTable(const PageSlotTable&) = delete;
  PageSlotTable& operator=(const PageSlotTable&) = delete;

  /// Makes slot `id` addressable (allocating its chunk if needed) and
  /// returns it. Caller-serialized: at most one thread grows the table at a
  /// time, and the new slot becomes visible to readers only through the
  /// caller's release-store of its page count.
  Slot& EnsureSlot(size_t id) {
    DT_CHECK_MSG(id < kMaxChunks * kChunkSlots, "page table full");
    std::atomic<Chunk*>& cell = chunks_[id >> kChunkBits];
    Chunk* chunk = cell.load(std::memory_order_relaxed);
    if (chunk == nullptr) {
      chunk = new Chunk();
      cell.store(chunk, std::memory_order_release);
    }
    return chunk->slots[id & (kChunkSlots - 1)];
  }

  /// Slot `id`, which the caller must have proven allocated (id below an
  /// acquire-loaded page count).
  Slot& operator[](size_t id) const {
    Chunk* chunk = chunks_[id >> kChunkBits].load(std::memory_order_acquire);
    return chunk->slots[id & (kChunkSlots - 1)];
  }

  /// Slot `id` if its chunk has been made addressable, else null: the
  /// lookup for readers that cannot prove allocation (the slot of a chunk
  /// the owner has not grown to yet reads as absent).
  Slot* Find(size_t id) const {
    if (id >= kMaxChunks * kChunkSlots) return nullptr;
    Chunk* chunk = chunks_[id >> kChunkBits].load(std::memory_order_acquire);
    return chunk == nullptr ? nullptr : &chunk->slots[id & (kChunkSlots - 1)];
  }

 private:
  struct Chunk {
    std::array<Slot, kChunkSlots> slots{};
  };
  std::unique_ptr<std::atomic<Chunk*>[]> chunks_;
};

/// In-memory disk simulator with I/O accounting. Every Read/Write counts one
/// I/O and charges a configurable modeled latency; the memory-size experiment
/// (Sec. 7.6) reports modeled time = wall time + modeled I/O time, which
/// preserves the paper's HDD-bound shape without real device access
/// (DESIGN.md Sec. 3.4). Reads/writes copy whole pages, as a real device
/// driver would.
///
/// Integrity: the disk keeps a sidecar checksum per page — stamped from the
/// caller's intended bytes on every Write (and with the zero-page constant at
/// Allocate) — which `VerifyPage` compares against bytes that came back from
/// a Read. On this perfect in-memory device the two can never disagree; the
/// sidecar models the per-page checksum a real backend would co-locate with
/// the data, and it is what lets `FaultInjectingDisk` produce *detectable*
/// torn writes and bit flips (fault_injection.h). The buffer pool verifies it
/// on every frame load.
///
/// Fallibility: Read/Write return Status and are virtual so a fault-injecting
/// subclass can fail or corrupt them; this base class itself never fails
/// (beyond the DT_CHECK on out-of-range ids, which is a programmer error).
///
/// Thread safety: Allocate is internally latched and safe to call
/// concurrently with Reads/Writes of already-allocated pages — the page
/// table is an append-only PageSlotTable, so growth never relocates slots a
/// reader may be touching, and the page count is release-published. (This is
/// what lets writer-side snapshot publication append tree pages to a shared
/// disk while readers still pin the retiring snapshot's pages.) Concurrent
/// Read/Write calls remain safe as long as no two of them target the same
/// page with at least one writer — exactly the exclusivity the sharded
/// BufferPool provides (a page is loaded or written back by the one thread
/// that owns its frame transition).
class SimDisk {
 public:
  /// Default latencies are HDD-class per 4K access.
  explicit SimDisk(double read_latency_seconds = 100e-6,
                   double write_latency_seconds = 100e-6);
  virtual ~SimDisk() = default;

  /// Allocates a zeroed page and returns its id. Reuses the most recently
  /// freed page when the free list is nonempty (LIFO — so a churn loop's
  /// footprint plateaus instead of growing); otherwise appends a fresh one.
  /// Thread-safe (serialized on an internal allocation latch; see class
  /// comment).
  PageId Allocate();

  /// Returns `id` to the free list for reuse by a later Allocate. The caller
  /// must guarantee no outstanding reference: no concurrent Read/Write, and
  /// no buffer-pool frame still caching it (BufferPool::Discard first —
  /// otherwise a reallocation's fresh bytes could be shadowed by a stale
  /// frame). Freeing a page twice, or an id never allocated, is a programmer
  /// error. Thread-safe under the same allocation latch as Allocate.
  void Free(PageId id);

  /// Pages currently on the free list (num_pages() counts them too — the
  /// table never shrinks; reuse is what bounds growth).
  size_t free_pages() const {
    const std::lock_guard<std::mutex> lock(alloc_mu_);
    return free_list_.size();
  }

  virtual Status Read(PageId id, Page* out);
  virtual Status Write(PageId id, const Page& page);

  /// True iff `page` matches the checksum stamped by the last successful
  /// Write (or Allocate) of `id` — i.e. the bytes a Read returned are the
  /// bytes the writer intended. Thread-safe under the same exclusivity rule
  /// as Read/Write.
  bool VerifyPage(PageId id, const Page& page) const {
    DT_CHECK(id < num_pages());
    return PageChecksum(page) == slots_[id].checksum;
  }

  size_t num_pages() const {
    return num_pages_.load(std::memory_order_acquire);
  }
  uint64_t reads() const { return reads_.load(std::memory_order_relaxed); }
  uint64_t writes() const { return writes_.load(std::memory_order_relaxed); }
  double read_latency_seconds() const { return read_latency_; }
  double write_latency_seconds() const { return write_latency_; }
  /// Accumulated modeled I/O latency in seconds. Derived from the I/O counts
  /// (latencies are fixed per device), so it stays exact under concurrency
  /// without an atomic-double accumulator — plus any extra modeled delay a
  /// fault-injecting subclass charged (latency spikes).
  double modeled_io_seconds() const {
    return static_cast<double>(reads()) * read_latency_ +
           static_cast<double>(writes()) * write_latency_ +
           extra_modeled_seconds();
  }

  virtual void ResetStats();

 protected:
  /// Called by Allocate under the allocation latch, after page `id`'s slot
  /// is initialized but before the new page count is published — a subclass
  /// hook for growing per-page sidecar state (FaultInjectingDisk's fault
  /// ordinals) with the same publication ordering as the page itself.
  virtual void OnAllocateLocked(PageId /*id*/) {}

  /// Called by Free under the allocation latch — the subclass hook for
  /// resetting per-page sidecar state before the page can be reused
  /// (FaultInjectingDisk marks the slot remapped-clean, so a page that was
  /// sticky-bad does not poison its next tenant).
  virtual void OnFreeLocked(PageId /*id*/) {}

  /// Direct access to the stored bytes of `id`, bypassing Read accounting
  /// and the checksum stamp — how FaultInjectingDisk tears a committed write
  /// without touching its sidecar checksum. Same exclusivity rule as Write.
  Page* StoredPage(PageId id) { return slots_[id].page.get(); }

  /// Re-stamps the sidecar checksum of `id` from `page` (used by subclasses
  /// that mutate stored bytes and want the damage to go *undetected* — e.g.
  /// modeling a stale-but-consistent sector is possible, though the stock
  /// fault injector never hides damage).
  void StampChecksum(PageId id, const Page& page) {
    slots_[id].checksum = PageChecksum(page);
  }

  /// Extra modeled seconds charged by subclasses (latency spikes).
  virtual double extra_modeled_seconds() const { return 0.0; }

 private:
  /// Per-page storage + its sidecar checksum. The slot's fields are written
  /// only under the per-page exclusivity rule (or at Allocate, before
  /// publication), so they need no synchronization of their own.
  struct PageSlot {
    std::unique_ptr<Page> page;
    uint64_t checksum = 0;
    /// On the free list (guards double-free; read/written under alloc_mu_).
    bool free = false;
  };

  double read_latency_;
  double write_latency_;
  PageSlotTable<PageSlot> slots_;
  /// Published page count: release-stored by Allocate after the slot is
  /// ready, acquire-loaded by everyone indexing the table.
  std::atomic<size_t> num_pages_{0};
  /// Serializes Allocate/Free calls (slot init + subclass sidecar growth).
  mutable std::mutex alloc_mu_;
  /// Freed page ids awaiting reuse (LIFO).
  std::vector<PageId> free_list_;
  std::atomic<uint64_t> reads_{0};
  std::atomic<uint64_t> writes_{0};
};

}  // namespace dtrace

#endif  // DTRACE_STORAGE_SIM_DISK_H_
