#ifndef DTRACE_STORAGE_BUFFER_POOL_H_
#define DTRACE_STORAGE_BUFFER_POOL_H_

#include <atomic>
#include <condition_variable>
#include <cstdint>
#include <memory>
#include <mutex>
#include <unordered_set>
#include <vector>

#include "storage/sim_disk.h"
#include "util/status.h"

namespace dtrace {

/// What kind of data a pinner is reading through the pool. Purely an
/// accounting tag: a shared pool serving both the paged trace records and
/// the paged MinSigTree reports its hit/miss/occupancy split per kind, so
/// the two working sets stay separately observable (Stats::client_*).
enum class PoolClient : uint8_t { kTrace = 0, kTree = 1 };
inline constexpr size_t kNumPoolClients = 2;

/// Sharded CLOCK (second-chance) buffer pool over a SimDisk. Frames hold
/// whole pages; pinned pages are never evicted; dirty pages are written back
/// on eviction or FlushAll. The memory-size experiment (Sec. 7.6) varies
/// `capacity_pages` relative to the data size.
///
/// Pages are partitioned across `num_shards` shards by page id, each with its
/// own frames, clock hand and mutex. A read pin of a resident page takes no
/// mutex: it CAS-increments the frame's pin count and re-checks that the
/// frame still holds the page, and Unpin is one atomic decrement (see
/// DESIGN-storage.md "The sharded buffer pool"). Misses, loads, write-backs,
/// Discard, FlushAll and the clock sweep run under the shard mutex. Disk I/O
/// is never performed while holding it: a miss marks its frame busy (and a
/// dirty victim's old id `writing back`), drops the lock for the transfer,
/// then publishes the frame — concurrent misses on different shards (or
/// different pages of one shard) truly overlap, and a second pinner of an
/// in-flight page waits on the shard's condition variable instead of
/// re-reading it.
class BufferPool {
 public:
  /// `num_shards`: 0 = auto (16 — shards are cheap and over-sharding only
  /// shortens critical sections); always capped at capacity_pages / 4 so
  /// every shard keeps at least 4 frames (and at least one shard exists).
  /// `verify_checksums` runs SimDisk::VerifyPage on every frame load (the
  /// integrity gate — see DESIGN-storage.md "Fault model and integrity");
  /// on by default, and cheap enough that benches gate it at >= 0.95x off.
  BufferPool(SimDisk* disk, size_t capacity_pages, size_t num_shards = 1,
             bool verify_checksums = true);
  ~BufferPool();

  BufferPool(const BufferPool&) = delete;
  BufferPool& operator=(const BufferPool&) = delete;

  /// Per-call outcome of one Pin: whether it caused a disk read, and the
  /// fault/retry accounting for that read — per-call reporting, so
  /// concurrent callers account their own I/O exactly without diffing the
  /// shared counters.
  struct PinOutcome {
    bool missed = false;
    /// Load/write-back attempts beyond the first (each retry re-reads after
    /// a transient error or a checksum failure, with exponential backoff).
    uint32_t io_retries = 0;
    /// Loads whose bytes failed SimDisk::VerifyPage.
    uint32_t checksum_failures = 0;
    /// Faults this pin observed: failed read attempts + checksum failures
    /// (the pool-side view; latency spikes are charged as modeled time by
    /// the disk and do not count).
    uint32_t faults_injected = 0;
  };

  /// Pins a page for reading; on Ok, `*out` points at the frame bytes and
  /// stays valid until Unpin. Transient read errors and checksum failures
  /// are retried up to kMaxIoAttempts with exponential backoff; if the last
  /// attempt still fails, the claimed frame is unwound (no Unpin owed, the
  /// pool is exactly as if the Pin never happened) and the error returned —
  /// IoError for a device that kept failing, Corruption for bytes that kept
  /// failing verification. `client` tags the pin for the per-kind Stats
  /// split (hits/misses by the pinner's kind; a frame's occupancy is
  /// attributed to the kind that loaded it).
  Status Pin(PageId id, const uint8_t** out, PinOutcome* outcome = nullptr,
             PoolClient client = PoolClient::kTrace);

  /// Pins a page for writing (marks it dirty). Always takes the shard lock,
  /// since `dirty` is shard-lock state; mutable pins exist only while pages
  /// are built.
  uint8_t* PinMutable(PageId id, PoolClient client = PoolClient::kTrace);

  /// Releases one pin on `id`: one atomic decrement. It takes the shard lock
  /// only to wake pinners waiting on an exhausted shard.
  void Unpin(PageId id);

  /// Writes all dirty resident pages back. Pages are copied out under the
  /// shard lock and written outside it (the no-I/O-under-lock rule).
  void FlushAll();

  /// Drops `id`'s frame if resident, so the page can be returned to the
  /// disk's free list without a stale copy lingering in the pool (call
  /// Discard BEFORE SimDisk::Free — the order that guarantees a
  /// reallocation's first Pin reads the fresh bytes). The page must be
  /// unpinned and clean (the caller owns it exclusively: retired tree
  /// snapshots are read-only and their pins have drained); an in-flight
  /// load or write-back of the id is waited out first. No-op if absent.
  void Discard(PageId id);

  /// Counter snapshot in one struct, aggregated across shards in one call,
  /// so callers (benches, sources) read a consistent-enough triple instead
  /// of recomputing deltas accessor by accessor. Exact once pinners are
  /// quiescent; under concurrency, hits counted lock-free may land between
  /// the reads of two fields.
  struct Stats {
    uint64_t hits = 0;
    uint64_t misses = 0;
    uint64_t evictions = 0;
    /// Seconds pinners spent blocked acquiring contended shard mutexes —
    /// the bench-facing "lock_wait" signal. Hits on resident pages take no
    /// mutex, so only misses, loads and maintenance contribute.
    double lock_wait_seconds = 0.0;
    /// Per-client-kind split (indexed by PoolClient): hits/misses by the
    /// pinner's declared kind, and current frame occupancy by the kind that
    /// loaded each resident page — so a pool shared between trace records
    /// and tree pages shows how the two working sets divide it. Occupancy
    /// is state, not a counter: ResetStats leaves client_resident alone.
    uint64_t client_hits[kNumPoolClients] = {0, 0};
    uint64_t client_misses[kNumPoolClients] = {0, 0};
    uint64_t client_resident[kNumPoolClients] = {0, 0};

    double hit_rate() const {
      const uint64_t total = hits + misses;
      return total == 0 ? 0.0 : static_cast<double>(hits) / total;
    }
  };

  /// Total attempts per page load (1 + up to kMaxIoAttempts-1 retries) and
  /// the first backoff step; each retry doubles the sleep. Bounded so an
  /// unrecoverable page fails a Pin in well under a millisecond instead of
  /// hanging a query worker.
  static constexpr uint32_t kMaxIoAttempts = 4;
  static constexpr uint32_t kRetryBackoffMicros = 10;

  size_t capacity() const { return capacity_; }
  size_t num_shards() const { return shards_.size(); }
  bool verify_checksums() const { return verify_checksums_; }
  uint64_t hits() const { return stats().hits; }
  uint64_t misses() const { return stats().misses; }
  uint64_t evictions() const { return stats().evictions; }
  Stats stats() const;
  void ResetStats();

 private:
  // Frame::state: pin count in the low bits, kBusy in the top bit. Only the
  // shard-locked path sets kBusy, and only on a frame it owns outright (a
  // free frame, or a CAS from exactly 0 — unpinned and idle); while it is
  // set, lock-free pinners back off to the locked path.
  static constexpr uint32_t kBusy = 1u << 31;
  static constexpr uint32_t kPinMask = kBusy - 1;

  // The hit path touches only the first cache line of its frame, which
  // pinners of the same page share anyway.
  struct alignas(64) Frame {
    std::atomic<uint32_t> state{kBusy};  // free frames stay busy
    // Page held; rewritten only while kBusy is set (under the shard lock),
    // so a pinner that got its pin in sees a stable id.
    std::atomic<PageId> id{0};
    std::atomic<bool> referenced{false};  // CLOCK second-chance bit
    bool dirty = false;   // shard lock
    uint8_t client = 0;   // PoolClient that loaded the page (occupancy tag)
    // Hits on this frame by pinner kind; misses are counted per shard.
    std::atomic<uint64_t> hits[kNumPoolClients]{};
    Page page;
  };

  struct Shard {
    // Read by the lock-free hit path and never rewritten: kept off the
    // cache lines the locked path writes.
    std::unique_ptr<Frame[]> frames;  // atomics: not movable, so no vector
    size_t num_frames = 0;
    // page -> frame index + 1 (0 = absent), indexed by id / num_shards. The
    // chunked table never relocates a slot, so lock-free readers may probe
    // it while the locked path grows it for pages allocated after the pool
    // was built. Slots are written only under the shard lock.
    PageSlotTable<std::atomic<uint32_t>> resident;
    // Lock holders about to wait for a pin to drop (a pinner on an
    // exhausted shard, a Discard): an Unpin that frees a frame takes the
    // lock to wake them only when this is non-zero. Read by every Unpin.
    alignas(64) std::atomic<uint32_t> waiters{0};

    alignas(64) mutable std::mutex mu;
    std::condition_variable cv;
    std::vector<size_t> free_frames;
    size_t hand = 0;  // clock hand
    // Old ids of dirty victims whose write-back is in flight: a re-read of
    // such a page must wait for the write to land first.
    std::unordered_set<PageId> writing_back;
    uint32_t io_in_flight = 0;  // loads + write-backs outside the lock
    uint64_t evictions = 0;
    double lock_wait_seconds = 0.0;
    uint64_t client_misses[kNumPoolClients] = {0, 0};
    // Occupied frames by loading client; updated on load/eviction, so it is
    // current state (not reset with the counters).
    uint64_t client_resident[kNumPoolClients] = {0, 0};
  };

  Shard& ShardOf(PageId id) { return *shards_[id % shards_.size()]; }
  const Shard& ShardOf(PageId id) const { return *shards_[id % shards_.size()]; }
  // Acquires s.mu, charging blocked time to s.lock_wait_seconds.
  static std::unique_lock<std::mutex> LockShard(Shard& s);
  // Frame currently mapped to `id`, or null; lock-free.
  Frame* LookupFrame(const Shard& s, PageId id) const;
  // Points `id`'s slot at `frame` (frame index + 1; 0 = absent). Caller
  // holds the shard lock.
  void SetSlot(Shard& s, PageId id, uint32_t frame) const;
  // The lock-free hit path: pins `id` if resident and idle, else null.
  Frame* TryPinResident(Shard& s, PageId id, PoolClient client);
  // Advances the clock hand to an unpinned, idle, unreferenced frame and
  // marks it busy; returns its index, or -1 after two full turns. Caller
  // holds the shard lock.
  static int64_t ClockSweep(Shard& s);
  // Drops one pin; wakes registered waiters when the frame became free.
  static void ReleasePin(Shard& s, Frame& f);
  Status GetFrame(PageId id, bool mutate, PinOutcome* outcome,
                  PoolClient client, Frame** out);

  SimDisk* disk_;
  size_t capacity_;
  bool verify_checksums_;
  // unique_ptr: Shard holds a mutex and is neither movable nor copyable.
  std::vector<std::unique_ptr<Shard>> shards_;
};

}  // namespace dtrace

#endif  // DTRACE_STORAGE_BUFFER_POOL_H_
