#include "storage/buffer_pool.h"

#include <algorithm>
#include <chrono>
#include <thread>

#include "util/check.h"
#include "util/timer.h"

namespace dtrace {

namespace {

size_t ResolveShardCount(size_t requested, size_t capacity_pages) {
  // Auto = 16: shards are a few hundred bytes each, and over-sharding only
  // shortens critical sections (contention falls even when threads greatly
  // outnumber cores), so there is no reason to scale with the core count.
  // Every shard keeps >= 4 frames — starved shards (1-2 frames) turn
  // transient co-pinning by concurrent readers into exhaustion stalls.
  const size_t shards = requested == 0 ? 16 : requested;
  return std::max<size_t>(1, std::min(shards, capacity_pages / 4));
}

// How long a pinner waits on a shard with nothing to release before it
// aborts as stalled (a caller deadlocking against its own pins).
constexpr auto kStallTimeout = std::chrono::seconds(10);

}  // namespace

BufferPool::BufferPool(SimDisk* disk, size_t capacity_pages, size_t num_shards,
                       bool verify_checksums)
    : disk_(disk), capacity_(capacity_pages),
      verify_checksums_(verify_checksums) {
  DT_CHECK(disk != nullptr);
  DT_CHECK(capacity_pages >= 1);
  const size_t shards = ResolveShardCount(num_shards, capacity_pages);
  shards_.reserve(shards);
  for (size_t s = 0; s < shards; ++s) {
    auto shard = std::make_unique<Shard>();
    // Distribute frames as evenly as possible; every shard gets >= 1.
    const size_t frames = capacity_pages / shards +
                          (s < capacity_pages % shards ? 1 : 0);
    shard->frames = std::make_unique<Frame[]>(frames);
    shard->num_frames = frames;
    shard->free_frames.reserve(frames);
    for (size_t i = 0; i < frames; ++i) shard->free_frames.push_back(i);
    shards_.push_back(std::move(shard));
  }
}

BufferPool::~BufferPool() { FlushAll(); }

std::unique_lock<std::mutex> BufferPool::LockShard(Shard& s) {
  std::unique_lock<std::mutex> lock(s.mu, std::try_to_lock);
  if (!lock.owns_lock()) {
    Timer blocked;
    lock.lock();
    s.lock_wait_seconds += blocked.ElapsedSeconds();
  }
  return lock;
}

// The shard owns ids with id % num_shards == its index, so slots are
// indexed by id / num_shards.
BufferPool::Frame* BufferPool::LookupFrame(const Shard& s, PageId id) const {
  const std::atomic<uint32_t>* slot = s.resident.Find(id / shards_.size());
  if (slot == nullptr) return nullptr;
  const uint32_t frame = slot->load(std::memory_order_acquire);
  return frame == 0 ? nullptr : &s.frames[frame - 1];
}

void BufferPool::SetSlot(Shard& s, PageId id, uint32_t frame) const {
  s.resident.EnsureSlot(id / shards_.size())
      .store(frame, std::memory_order_release);
}

BufferPool::Frame* BufferPool::TryPinResident(Shard& s, PageId id,
                                              PoolClient client) {
  Frame* f = LookupFrame(s, id);
  if (f == nullptr) return nullptr;
  uint32_t st = f->state.load(std::memory_order_relaxed);
  do {
    if ((st & kBusy) != 0) return nullptr;  // mid-load or being reclaimed
  } while (!f->state.compare_exchange_weak(st, st + 1,
                                           std::memory_order_acquire,
                                           std::memory_order_relaxed));
  // The pin keeps kBusy clear, so the frame's id is now stable. The slot
  // may have been stale — the frame evicted and reloaded with another page
  // between the lookup and the CAS — so give such a pin back.
  if (f->id.load(std::memory_order_relaxed) != id) {
    ReleasePin(s, *f);
    return nullptr;
  }
  if (!f->referenced.load(std::memory_order_relaxed)) {
    f->referenced.store(true, std::memory_order_relaxed);
  }
  f->hits[static_cast<size_t>(client)].fetch_add(1,
                                                 std::memory_order_relaxed);
  return f;
}

void BufferPool::ReleasePin(Shard& s, Frame& f) {
  // seq_cst on both sides of the waiter handshake: either this decrement is
  // ordered before a waiter's registration (so the waiter's recount sees the
  // frame free), or this load sees the waiter and wakes it under the lock.
  const uint32_t prev = f.state.fetch_sub(1, std::memory_order_seq_cst);
  if ((prev & kPinMask) == 1 && s.waiters.load(std::memory_order_seq_cst) != 0) {
    const std::lock_guard<std::mutex> lock(s.mu);
    s.cv.notify_all();
  }
}

int64_t BufferPool::ClockSweep(Shard& s) {
  for (size_t step = 0; step < 2 * s.num_frames; ++step) {
    const size_t idx = s.hand;
    s.hand = idx + 1 == s.num_frames ? 0 : idx + 1;
    Frame& f = s.frames[idx];
    // Pinned, or busy (free frames are claimed from the free list).
    if (f.state.load(std::memory_order_relaxed) != 0) continue;
    if (f.referenced.exchange(false, std::memory_order_relaxed)) {
      continue;  // second chance
    }
    // A lock-free pin may land between the load and here; then skip it.
    uint32_t idle = 0;
    if (f.state.compare_exchange_strong(idle, kBusy,
                                        std::memory_order_acquire,
                                        std::memory_order_relaxed)) {
      return static_cast<int64_t>(idx);
    }
  }
  return -1;
}

Status BufferPool::GetFrame(PageId id, bool mutate, PinOutcome* outcome,
                            PoolClient client, Frame** out) {
  const auto kind = static_cast<size_t>(client);
  Shard& s = ShardOf(id);
  if (!mutate) {
    *out = TryPinResident(s, id, client);
    if (*out != nullptr) return Status::Ok();
  }
  *out = nullptr;
  auto lock = LockShard(s);
  for (;;) {
    if (Frame* f = LookupFrame(s, id)) {
      if ((f->state.load(std::memory_order_acquire) & kBusy) != 0) {
        // Under the lock a mapped busy frame is mid-load: another pinner is
        // reading this page from disk; share its I/O. (If that load fails,
        // the loader unwinds the claim and the slot goes non-resident —
        // this waiter then retries the load itself and reports its own
        // outcome, so no pinner inherits another's error.)
        s.cv.wait(lock);
        continue;
      }
      // Only the locked path sets kBusy, so this pin cannot be refused.
      f->state.fetch_add(1, std::memory_order_acquire);
      f->referenced.store(true, std::memory_order_relaxed);
      f->dirty = f->dirty || mutate;
      f->hits[kind].fetch_add(1, std::memory_order_relaxed);
      *out = f;
      return Status::Ok();
    }
    // A reload of a page whose dirty frame is still being written back must
    // wait for the write to land, or the read would race it on the disk.
    if (s.writing_back.count(id) != 0) {
      s.cv.wait(lock);
      continue;
    }
    // Miss: claim a frame (free frames are already busy; a victim is made
    // busy by the sweep).
    size_t frame_idx;
    bool evicting = false;
    if (!s.free_frames.empty()) {
      frame_idx = s.free_frames.back();
      s.free_frames.pop_back();
    } else if (const int64_t victim = ClockSweep(s); victim >= 0) {
      frame_idx = static_cast<size_t>(victim);
      ++s.evictions;
      evicting = true;
    } else {
      // Every frame was pinned or mid-I/O as the hand passed. Unpins do not
      // take the lock, so register as a waiter first (an Unpin to zero that
      // sees one locks to wake it), then look again: a frame released since
      // the sweep means retry, not wait. If I/O is in flight, or another
      // pinner can still Unpin, a frame will free up — wait (bounded, so a
      // caller deadlocking against its own pins still aborts diagnosably).
      // A shard with neither is a bug.
      s.waiters.fetch_add(1, std::memory_order_seq_cst);
      bool idle = false;
      size_t pinned = 0;
      for (size_t i = 0; i < s.num_frames; ++i) {
        const uint32_t st = s.frames[i].state.load(std::memory_order_seq_cst);
        idle = idle || st == 0;
        pinned += (st & kPinMask) != 0 ? 1 : 0;
      }
      if (!idle) {
        DT_CHECK_MSG(s.io_in_flight > 0 || pinned > 0,
                     "buffer pool shard exhausted: all pages pinned");
        const auto status = s.cv.wait_for(lock, kStallTimeout);
        DT_CHECK_MSG(status != std::cv_status::timeout,
                     "buffer pool shard stalled: pinned pages never released");
      }
      s.waiters.fetch_sub(1, std::memory_order_seq_cst);
      continue;
    }
    ++s.client_misses[kind];
    if (outcome != nullptr) outcome->missed = true;
    Frame& f = s.frames[frame_idx];
    const PageId old_id = f.id.load(std::memory_order_relaxed);
    const bool write_back = evicting && f.dirty;
    if (evicting) {
      SetSlot(s, old_id, 0);
      if (write_back) s.writing_back.insert(old_id);
      --s.client_resident[f.client];
    }
    SetSlot(s, id, static_cast<uint32_t>(frame_idx + 1));
    f.client = static_cast<uint8_t>(kind);
    ++s.client_resident[kind];
    f.id.store(id, std::memory_order_relaxed);
    f.state.store(kBusy | 1, std::memory_order_relaxed);  // the loader's pin
    // Unreferenced until hit: a page touched once (a scanned trace page) is
    // the next victim, ahead of pages that keep being hit (tree pages).
    f.referenced.store(false, std::memory_order_relaxed);
    f.dirty = mutate;
    ++s.io_in_flight;
    lock.unlock();
    // Disk I/O outside the shard lock: misses on other pages — and all
    // traffic on other shards — proceed concurrently. The frame is
    // exclusively ours (kBusy turns lock-free pinners away, the sweep skips
    // it, and its slot routes locked pinners to the cv).
    //
    // Transient faults are retried in place with exponential backoff; a
    // checksum mismatch counts as a failed attempt (the stored page may be
    // intact and the damage in flight — a re-read can come back clean).
    if (write_back) {
      // Dirty write-back gets the same bounded retry, but failure here is
      // fatal: the query path holds no dirty pages (mutable pins exist only
      // during build, against a disarmed disk), so a write that keeps
      // failing means lost committed data, not a degraded read.
      Status ws;
      for (uint32_t attempt = 0; attempt < kMaxIoAttempts; ++attempt) {
        if (attempt > 0) {
          if (outcome != nullptr) ++outcome->io_retries;
          std::this_thread::sleep_for(std::chrono::microseconds(
              kRetryBackoffMicros << (attempt - 1)));
        }
        ws = disk_->Write(old_id, f.page);
        if (ws.ok()) break;
        if (outcome != nullptr) ++outcome->faults_injected;
      }
      DT_CHECK_MSG(ws.ok(), "dirty page write-back failed unrecoverably");
    }
    Status load;
    for (uint32_t attempt = 0; attempt < kMaxIoAttempts; ++attempt) {
      if (attempt > 0) {
        if (outcome != nullptr) ++outcome->io_retries;
        std::this_thread::sleep_for(
            std::chrono::microseconds(kRetryBackoffMicros << (attempt - 1)));
      }
      load = disk_->Read(id, &f.page);
      if (load.ok() && verify_checksums_ && !disk_->VerifyPage(id, f.page)) {
        if (outcome != nullptr) ++outcome->checksum_failures;
        load = Status::Corruption("page failed checksum verification");
      }
      if (load.ok()) break;
      if (outcome != nullptr) ++outcome->faults_injected;
    }
    lock.lock();
    --s.io_in_flight;
    if (write_back) s.writing_back.erase(old_id);
    if (!load.ok()) {
      // Unwind the claim completely: the frame never held valid bytes, so
      // the pool must look exactly as if this Pin never happened (no Unpin
      // owed, the frame back on the free list — still busy — and the slot
      // non-resident so a waiter re-attempts the load itself).
      SetSlot(s, id, 0);
      --s.client_resident[kind];
      f.state.store(kBusy, std::memory_order_relaxed);
      f.referenced.store(false, std::memory_order_relaxed);
      f.dirty = false;
      s.free_frames.push_back(frame_idx);
      s.cv.notify_all();
      return load;
    }
    // Publish the bytes: the loader keeps its pin, and lock-free pinners
    // that acquire this state see the loaded page.
    f.state.store(1, std::memory_order_release);
    s.cv.notify_all();
    *out = &f;
    return Status::Ok();
  }
}

Status BufferPool::Pin(PageId id, const uint8_t** out, PinOutcome* outcome,
                       PoolClient client) {
  Frame* f = nullptr;
  const Status st = GetFrame(id, /*mutate=*/false, outcome, client, &f);
  *out = st.ok() ? f->page.data.data() : nullptr;
  return st;
}

uint8_t* BufferPool::PinMutable(PageId id, PoolClient client) {
  Frame* f = nullptr;
  const Status st = GetFrame(id, /*mutate=*/true, /*outcome=*/nullptr, client,
                             &f);
  DT_CHECK_MSG(st.ok(), "unrecoverable page load on PinMutable");
  return f->page.data.data();
}

void BufferPool::Unpin(PageId id) {
  // The caller's pin keeps the frame mapped, so the slot is current. The
  // misuse checks are exact for a single thread; under concurrency a
  // transient pin (a lock-free pinner backing out of a stale slot) can
  // mask an unpin past the count.
  Shard& s = ShardOf(id);
  Frame* f = LookupFrame(s, id);
  DT_CHECK_MSG(f != nullptr, "unpin of non-resident page");
  DT_CHECK_MSG((f->state.load(std::memory_order_relaxed) & kPinMask) != 0,
               "unpin of unpinned page");
  ReleasePin(s, *f);
}

void BufferPool::FlushAll() {
  for (auto& shard : shards_) {
    Shard& s = *shard;
    // Collect candidates under the lock, then write each outside it from a
    // stable copy (the no-I/O-under-lock rule; FlushAll is a cold path).
    // Only unpinned, idle frames are flushed: such a frame can have no
    // legal writer (mutation requires a live PinMutable), so the copy is a
    // consistent snapshot and clearing `dirty` loses nothing — a page still
    // pinned stays dirty and reaches the disk on its eviction or a later
    // flush. The frame is then pinned across the write, so no concurrent
    // dirty-eviction write-back (or reload read) of the same page can race
    // this write on the disk; a PinMutable arriving mid-write re-dirties
    // the frame and its bytes are written by that later write-back.
    std::vector<size_t> dirty_frames;
    {
      auto lock = LockShard(s);
      for (size_t idx = 0; idx < s.num_frames; ++idx) {
        if (s.frames[idx].dirty &&
            s.frames[idx].state.load(std::memory_order_relaxed) == 0) {
          dirty_frames.push_back(idx);
        }
      }
    }
    Page copy;
    for (size_t idx : dirty_frames) {
      Frame& f = s.frames[idx];
      PageId pid;
      {
        auto lock = LockShard(s);
        if (!f.dirty || f.state.load(std::memory_order_relaxed) != 0) {
          continue;  // evicted/reloaded meanwhile, or pinned
        }
        pid = f.id.load(std::memory_order_relaxed);
        f.state.fetch_add(1, std::memory_order_acquire);
        copy = f.page;
        f.dirty = false;
      }
      Status ws;
      for (uint32_t attempt = 0; attempt < kMaxIoAttempts; ++attempt) {
        if (attempt > 0) {
          std::this_thread::sleep_for(std::chrono::microseconds(
              kRetryBackoffMicros << (attempt - 1)));
        }
        ws = disk_->Write(pid, copy);
        if (ws.ok()) break;
      }
      DT_CHECK_MSG(ws.ok(), "dirty page flush failed unrecoverably");
      ReleasePin(s, f);
    }
  }
}

void BufferPool::Discard(PageId id) {
  Shard& s = ShardOf(id);
  auto lock = LockShard(s);
  for (;;) {
    Frame* f = LookupFrame(s, id);
    if (f == nullptr) {
      // Not resident — but a dirty victim's write-back may still be in
      // flight; wait it out so the disk-side Free that follows us cannot
      // race a straggling Write to the page.
      if (s.writing_back.count(id) != 0) {
        s.cv.wait(lock);
        continue;
      }
      return;
    }
    uint32_t st = f->state.load(std::memory_order_acquire);
    if ((st & kBusy) != 0) {  // mid-load
      s.cv.wait(lock);
      continue;
    }
    if (st != 0) {
      // The caller owns the page, so this pin is a lock-free pinner of
      // another page that followed a stale slot here and is about to give
      // it back; wait for that (same waiter handshake as an exhausted
      // shard). A real pin is a caller bug and stalls into the abort.
      s.waiters.fetch_add(1, std::memory_order_seq_cst);
      if (f->state.load(std::memory_order_seq_cst) != 0) {
        const auto status = s.cv.wait_for(lock, kStallTimeout);
        DT_CHECK_MSG(status != std::cv_status::timeout,
                     "Discard of a pinned page");
      }
      s.waiters.fetch_sub(1, std::memory_order_seq_cst);
      continue;
    }
    if (!f->state.compare_exchange_strong(st, kBusy,
                                          std::memory_order_acquire,
                                          std::memory_order_relaxed)) {
      continue;  // a transient pin landed; look again
    }
    DT_CHECK_MSG(!f->dirty, "Discard of a dirty page");
    SetSlot(s, id, 0);
    --s.client_resident[f->client];
    f->referenced.store(false, std::memory_order_relaxed);
    s.free_frames.push_back(static_cast<size_t>(f - s.frames.get()));
    s.cv.notify_all();
    return;
  }
}

BufferPool::Stats BufferPool::stats() const {
  Stats out;
  for (const auto& shard : shards_) {
    std::lock_guard<std::mutex> lock(shard->mu);
    out.evictions += shard->evictions;
    out.lock_wait_seconds += shard->lock_wait_seconds;
    for (size_t c = 0; c < kNumPoolClients; ++c) {
      out.client_misses[c] += shard->client_misses[c];
      out.client_resident[c] += shard->client_resident[c];
      for (size_t i = 0; i < shard->num_frames; ++i) {
        out.client_hits[c] +=
            shard->frames[i].hits[c].load(std::memory_order_relaxed);
      }
    }
  }
  for (size_t c = 0; c < kNumPoolClients; ++c) {
    out.hits += out.client_hits[c];
    out.misses += out.client_misses[c];
  }
  return out;
}

void BufferPool::ResetStats() {
  for (auto& shard : shards_) {
    std::lock_guard<std::mutex> lock(shard->mu);
    shard->evictions = 0;
    shard->lock_wait_seconds = 0.0;
    for (size_t c = 0; c < kNumPoolClients; ++c) {
      for (size_t i = 0; i < shard->num_frames; ++i) {
        shard->frames[i].hits[c].store(0, std::memory_order_relaxed);
      }
      shard->client_misses[c] = 0;
      // client_resident is occupancy state, not a counter: it must keep
      // matching the frames actually resident, so it survives a reset.
    }
  }
}

}  // namespace dtrace
