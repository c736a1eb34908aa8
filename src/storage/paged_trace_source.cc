#include "storage/paged_trace_source.h"

#include <algorithm>
#include <condition_variable>
#include <cstring>
#include <mutex>
#include <thread>
#include <utility>
#include <vector>

#include "util/check.h"
#include "util/codec.h"

namespace dtrace {

namespace {

// One entity record held by a cursor's materialization cache. Uncompressed
// sources materialize `levels` eagerly; compressed sources keep the raw
// encoded record (one base-level blob) in `packed`, decode and validate the
// base level into levels[m-1] once per fetch, and derive a coarse level
// into `levels` only the first time a caller needs it — `decoded` tracks
// which levels are valid. All buffers are reused across the entities
// cycled through the slot.
struct CachedEntity {
  EntityId entity = kInvalidEntity;
  uint64_t last_used = 0;
  std::vector<std::vector<CellId>> levels;  // [m], sorted cell ids
  std::vector<uint8_t> packed;              // compressed record bytes
  uint64_t decoded = 0;                     // bit l-1: levels[l-1] is valid
};

}  // namespace

/// Per-query cursor: a tiny LRU of decoded records in front of the shared
/// buffer pool. Capacity >= 2 lets two entities' records coexist, so
/// pairwise reads (IntersectionSize, ad-hoc ComputeDegree) fetch each side
/// once; the query engine itself reads the query entity once up front (into
/// its QueryKernel) and then streams candidates, touching each record's
/// levels back to back.
///
/// Cache hits are cursor-local — no lock, no shared state. Cache misses
/// materialize through the pool (internally sharded; I/O outside shard
/// locks) and charge the per-call page outcomes to this cursor's io().
///
/// Prefetch(batch, depth) starts the pipeline: a worker thread materializes
/// the batch's records in order, up to `depth` records ahead of consumption,
/// into a fixed handoff ring. Fetches then consume from the ring in the same
/// order instead of touching the pool. Because the worker performs exactly
/// the pool accesses the synchronous path would have performed, in the same
/// order, results AND per-query I/O page counts are identical to
/// prefetch-off; only wall time changes. Entities already in the cursor
/// cache are dropped from the stream for the same reason (the synchronous
/// path would not have touched the pool for them).
///
/// The identical-accounting guarantee assumes batch entities are not in the
/// cursor cache when their turn comes — which the query engine guarantees
/// structurally (leaf batches partition entities, the query entity is
/// excluded, and each candidate is evaluated exactly once, so a batch
/// member can never be cache-resident mid-batch). An ad-hoc caller that
/// prefetches entities it has recently read can still desynchronize the
/// stream (a cached-then-evicted entity falls back to a direct pool read);
/// results stay correct and io() stays truthful, but page counts may then
/// differ from a synchronous replay.
class PagedTraceCursor final : public TraceCursor {
 public:
  explicit PagedTraceCursor(const PagedTraceSource& src)
      : src_(&src), slots_(src.cache_entities_) {}

  ~PagedTraceCursor() override {
    if (worker_.joinable()) {
      {
        std::lock_guard<std::mutex> lock(pf_mu_);
        stop_ = true;
      }
      pf_cv_.notify_all();
      worker_.join();
    }
  }

  std::span<const CellId> Cells(EntityId e, Level level) override {
    const auto& v = DecodedLevel(Fetch(e), level);
    return {v.data(), v.size()};
  }

  std::span<const CellId> CellsInWindow(EntityId e, Level level, TimeStep t0,
                                        TimeStep t1) override {
    DT_DCHECK(t0 <= t1);
    const auto all = Cells(e, level);
    // The unwindowed common case: every cell lies in [0, horizon).
    if (t0 == 0 && t1 >= src_->horizon()) return all;
    const uint32_t units = src_->hierarchy().units_at(level);
    const auto lo = std::lower_bound(all.begin(), all.end(),
                                     static_cast<CellId>(t0) * units);
    const auto hi = std::lower_bound(lo, all.end(),
                                     static_cast<CellId>(t1) * units);
    return {lo, hi};
  }

  uint32_t IntersectionSize(EntityId a, EntityId b, Level level) override {
    // Fetch both before taking spans: the second fetch may evict, the spans
    // taken after it cannot be invalidated by each other.
    Fetch(a);
    Fetch(b);
    return IntersectSortedSize(Cells(a, level), Cells(b, level));
  }

  uint32_t WindowedIntersectionSize(EntityId a, EntityId b, Level level,
                                    TimeStep t0, TimeStep t1) override {
    Fetch(a);
    Fetch(b);
    return IntersectSortedSize(CellsInWindow(a, level, t0, t1),
                               CellsInWindow(b, level, t0, t1));
  }

  // Below this batch size the handoff round-trip (mutex + cv per record)
  // costs more than the overlap buys; such batches run synchronously, which
  // changes neither results nor accounting (the pipeline is outcome-neutral
  // by construction).
  static constexpr size_t kMinPrefetchBatch = 8;

  void Prefetch(std::span<const EntityId> entities, int depth) override {
    if (depth <= 0 || entities.size() < kMinPrefetchBatch) return;
    std::unique_lock<std::mutex> lock(pf_mu_);
    DT_CHECK_MSG(
        stream_pos_ == stream_.size() && fetch_pos_ == stream_.size() &&
            ready_count_ == 0,
        "Prefetch started before the previous batch was fully consumed");
    stream_.clear();
    for (EntityId e : entities) {
      // Drop entities the cursor cache would serve without pool traffic, so
      // the worker replicates exactly the synchronous pool access sequence.
      bool cached = false;
      for (const auto& slot : slots_) {
        if (slot.entity == e) {
          cached = true;
          break;
        }
      }
      if (!cached) stream_.push_back(e);
    }
    stream_pos_ = 0;
    fetch_pos_ = 0;
    if (stream_.empty()) return;
    const size_t ring = std::min<size_t>(depth, stream_.size());
    if (ring_.size() != ring) ring_.assign(ring, HandoffSlot{});
    ring_head_ = ring_tail_ = 0;
    if (!worker_.joinable()) {
      worker_ = std::thread([this] { WorkerLoop(); });
    }
    lock.unlock();
    pf_cv_.notify_all();
  }

 private:
  struct HandoffSlot {
    std::vector<std::vector<CellId>> levels;
    std::vector<uint8_t> packed;  // compressed mode: raw record instead
    PagedTraceStore::ReadStats stats;
    Status status;  // the worker's read outcome rides the ring with the data
  };

  CachedEntity& Fetch(EntityId e) {
    // Staleness probe: the serialization is point-in-time, so an entity
    // replaced on the live store after construction must fail loudly —
    // serving the pre-replacement bytes would silently desynchronize the
    // source from the index. Latch the error and serve empty data through
    // an emptied slot, exactly like an unrecoverable read fault.
    if (src_->live_store_->EntityReplacedSince(e, src_->snapshot_ordinal_)) {
      status_.Update(Status::FailedPrecondition(
          "paged trace snapshot is stale: entity replaced on the live store"));
      CachedEntity* slot = &slots_[0];
      MarkSlotEmpty(slot);
      slot->entity = kInvalidEntity;
      slot->last_used = ++tick_;
      mru_ = nullptr;
      return *slot;
    }
    // MRU shortcut: the scoring loop reads one entity's levels back to back.
    if (mru_ != nullptr && mru_->entity == e) {
      ++io_.cache_hits;
      return *mru_;
    }
    for (auto& slot : slots_) {
      if (slot.entity == e) {
        slot.last_used = ++tick_;
        ++io_.cache_hits;
        mru_ = &slot;
        return slot;
      }
    }
    // Miss: reuse the least-recently-used slot's buffers.
    CachedEntity* victim = &slots_[0];
    for (auto& slot : slots_) {
      if (slot.entity == kInvalidEntity) {
        victim = &slot;
        break;
      }
      if (slot.last_used < victim->last_used) victim = &slot;
    }
    Status st;
    if (!ConsumeFromStream(e, victim, &st)) {
      PagedTraceStore::ReadStats rs;
      if (src_->paged_->compressed()) {
        st = src_->paged_->ReadEntityPacked(&*src_->pool_, e, &victim->packed,
                                            &rs);
        if (st.ok()) st = UnpackBase(victim);
      } else {
        st = src_->paged_->ReadEntity(&*src_->pool_, e, &victim->levels, &rs);
      }
      ChargePages(rs);
    }
    victim->last_used = ++tick_;
    if (!st.ok()) {
      // Latch the first error and leave the slot EMPTY under an invalid
      // entity id: every read of it returns empty data (never stale bytes
      // from the record that previously occupied the buffers), and the
      // query loop turns the latch into a clean error at its next status
      // boundary.
      status_.Update(st);
      MarkSlotEmpty(victim);
      victim->entity = kInvalidEntity;
      mru_ = nullptr;
      return *victim;
    }
    ++io_.entities_fetched;
    io_.bytes_read += src_->paged_->entity_bytes(e);
    victim->entity = e;
    mru_ = victim;
    return *victim;
  }

  // Leaves `slot` holding valid-but-empty data for every level, with no
  // live references into its (possibly partially overwritten) buffers.
  void MarkSlotEmpty(CachedEntity* slot) {
    const size_t m = static_cast<size_t>(src_->hierarchy().num_levels());
    slot->levels.assign(m, {});
    slot->packed.clear();
    // All levels "already decoded" (as empty): DecodedLevel must not derive
    // from the cleared base.
    slot->decoded = ~uint64_t{0};
  }

  // Compressed mode: decodes and validates the record's base level — the
  // one decode per fetch — and invalidates the derived coarse levels.
  Status UnpackBase(CachedEntity* slot) {
    const int m = src_->hierarchy().num_levels();
    DT_CHECK_MSG(m <= 64, "decoded-level bitmask holds at most 64 levels");
    slot->levels.resize(m);
    slot->decoded = uint64_t{1} << (m - 1);
    return src_->paged_->DecodeBase(slot->packed, &slot->levels[m - 1]);
  }

  // Returns the cell span of `level`, deriving a coarse level from the base
  // on first touch (compressed mode; a no-op pass-through otherwise).
  const std::vector<CellId>& DecodedLevel(CachedEntity& slot, Level level) {
    auto& v = slot.levels[level - 1];
    const uint64_t bit = uint64_t{1} << (level - 1);
    if (src_->paged_->compressed() && (slot.decoded & bit) == 0) {
      src_->paged_->DeriveLevel(slot.levels.back(), level, &v);
      slot.decoded |= bit;
    }
    return v;
  }

  void ChargePages(const PagedTraceStore::ReadStats& rs) {
    io_.pages_read += rs.pages_read;
    io_.pages_hit += rs.pages_hit;
    io_.io_retries += rs.io_retries;
    io_.checksum_failures += rs.checksum_failures;
    io_.faults_injected += rs.faults_injected;
    // Queries never dirty pages, so modeled latency is reads only — the
    // same charge the SimDisk applied, attributed per call. (Retried
    // attempts charge like first attempts: every attempt spun the disk.)
    io_.modeled_io_seconds += static_cast<double>(rs.pages_read +
                                                  rs.io_retries) *
                              src_->disk_->read_latency_seconds();
  }

  // Consumes the next pipelined record if `e` is the head of the prefetch
  // stream (the engine reads candidates in exactly the prefetched order, so
  // this is the only case that occurs in practice; any out-of-order access
  // falls back to a direct pool read and leaves the stream untouched).
  // On true, `*st` carries the worker's read outcome for the record.
  bool ConsumeFromStream(EntityId e, CachedEntity* victim, Status* st) {
    // stream_pos_/stream_ are only written by this (the consumer) thread
    // while the worker is quiescent, so this pre-check needs no lock.
    if (stream_pos_ >= stream_.size() || stream_[stream_pos_] != e) {
      return false;
    }
    std::unique_lock<std::mutex> lock(pf_mu_);
    pf_cv_.wait(lock, [&] { return ready_count_ > 0; });
    HandoffSlot& slot = ring_[ring_head_];
    *st = slot.status;
    if (st->ok()) {
      if (src_->paged_->compressed()) {
        victim->packed.swap(slot.packed);
        *st = UnpackBase(victim);
      } else {
        victim->levels.swap(slot.levels);
      }
    }
    ChargePages(slot.stats);
    ++io_.prefetch_hits;
    ring_head_ = (ring_head_ + 1) % ring_.size();
    --ready_count_;
    ++stream_pos_;
    lock.unlock();
    pf_cv_.notify_all();
    return true;
  }

  void WorkerLoop() {
    std::unique_lock<std::mutex> lock(pf_mu_);
    for (;;) {
      pf_cv_.wait(lock, [&] {
        return stop_ ||
               (fetch_pos_ < stream_.size() && ready_count_ < ring_.size());
      });
      if (stop_) return;
      const EntityId e = stream_[fetch_pos_];
      HandoffSlot& slot = ring_[ring_tail_];
      lock.unlock();
      // The tail slot is invisible to the consumer until ready_count_ is
      // bumped, so the pool read runs without the handoff lock. A failed
      // read parks its status in the slot and the pipeline keeps going —
      // the consumer decides what an error means; the worker just reports.
      slot.stats = {};
      if (src_->paged_->compressed()) {
        slot.status = src_->paged_->ReadEntityPacked(&*src_->pool_, e,
                                                     &slot.packed,
                                                     &slot.stats);
      } else {
        slot.status = src_->paged_->ReadEntity(&*src_->pool_, e, &slot.levels,
                                               &slot.stats);
      }
      lock.lock();
      ring_tail_ = (ring_tail_ + 1) % ring_.size();
      ++ready_count_;
      ++fetch_pos_;
      pf_cv_.notify_all();
    }
  }

  const PagedTraceSource* src_;
  std::vector<CachedEntity> slots_;
  CachedEntity* mru_ = nullptr;  // points into slots_ (stable), or null
  uint64_t tick_ = 0;

  // Prefetch pipeline state. stream_pos_ (consumption) is owned by the
  // consumer thread; fetch_pos_/ready_count_/ring indices are shared and
  // guarded by pf_mu_.
  std::vector<EntityId> stream_;
  size_t stream_pos_ = 0;
  size_t fetch_pos_ = 0;
  std::vector<HandoffSlot> ring_;
  size_t ring_head_ = 0;
  size_t ring_tail_ = 0;
  size_t ready_count_ = 0;
  bool stop_ = false;
  std::mutex pf_mu_;
  std::condition_variable pf_cv_;
  std::thread worker_;
};

PagedTraceSource::PagedTraceSource(const TraceStore& store,
                                   PagedTraceSource::Options options)
    : hierarchy_(&store.hierarchy()),
      live_store_(&store),
      num_entities_(store.num_entities()),
      horizon_(store.horizon()),
      cache_entities_(std::max<size_t>(2, options.cursor_cache_entities)) {
  if (options.faults.has_value()) {
    auto faulty = std::make_unique<FaultInjectingDisk>(
        *options.faults, options.read_latency_seconds,
        options.write_latency_seconds);
    fault_disk_ = faulty.get();
    disk_ = std::move(faulty);
  } else {
    disk_ = std::make_unique<SimDisk>(options.read_latency_seconds,
                                      options.write_latency_seconds);
  }
  paged_ = std::make_unique<PagedTraceStore>(store, disk_.get(),
                                             options.compress);
  // Captured AFTER serialization: any replacement racing construction is
  // either fully in the serialized bytes or detected by the probe.
  snapshot_ordinal_ = store.mutation_ordinal();
  size_t capacity = options.pool_pages > 0
                        ? options.pool_pages
                        : std::max<size_t>(1, paged_->num_pages());
  if (options.pool_fraction > 0.0) {
    // Sized off the UNcompressed footprint (raw_bytes == data_bytes when
    // compress is off), so --compress runs compare at a fixed memory
    // budget: the same pool bytes now cover a larger share of the data,
    // which is exactly the win compression is buying.
    const auto raw_pages =
        static_cast<size_t>((paged_->raw_bytes() + kPageSize - 1) / kPageSize);
    capacity = std::max<size_t>(
        1, static_cast<size_t>(options.pool_fraction *
                               static_cast<double>(raw_pages)));
  }
  pool_.emplace(disk_.get(), capacity, options.pool_shards,
                options.verify_checksums);
  // Serialization traffic is construction cost, not query I/O.
  disk_->ResetStats();
  // Arm last: the serialized snapshot is clean; faults start with queries.
  if (fault_disk_ != nullptr) fault_disk_->Arm();
}

std::unique_ptr<TraceCursor> PagedTraceSource::OpenCursor() const {
  return std::make_unique<PagedTraceCursor>(*this);
}

void PagedTraceSource::ResetStats() {
  pool_->ResetStats();
  disk_->ResetStats();
}

}  // namespace dtrace
