#include <gtest/gtest.h>

#include <atomic>
#include <cstdint>
#include <random>
#include <thread>
#include <vector>

#include "storage/buffer_pool.h"
#include "storage/fault_injection.h"
#include "storage/sim_disk.h"

namespace dtrace {
namespace {

TEST(SimDiskTest, ReadBackWrites) {
  SimDisk disk;
  const PageId a = disk.Allocate();
  const PageId b = disk.Allocate();
  EXPECT_EQ(disk.num_pages(), 2u);
  Page p;
  p.data.fill(0xab);
  disk.Write(a, p);
  Page q;
  disk.Read(a, &q);
  EXPECT_EQ(q.data, p.data);
  disk.Read(b, &q);
  EXPECT_EQ(q.data[0], 0);  // fresh pages are zeroed
  EXPECT_EQ(disk.reads(), 2u);
  EXPECT_EQ(disk.writes(), 1u);
}

TEST(SimDiskTest, ChargesModeledLatency) {
  SimDisk disk(/*read=*/1e-3, /*write=*/2e-3);
  const PageId a = disk.Allocate();
  Page p;
  disk.Write(a, p);
  disk.Read(a, &p);
  EXPECT_DOUBLE_EQ(disk.modeled_io_seconds(), 3e-3);
  disk.ResetStats();
  EXPECT_DOUBLE_EQ(disk.modeled_io_seconds(), 0.0);
  EXPECT_EQ(disk.reads(), 0u);
}

// Pins through the Status overload. No fault source is configured where
// this is used, so every load must succeed.
const uint8_t* PinOk(BufferPool& pool, PageId id,
                     BufferPool::PinOutcome* outcome = nullptr,
                     PoolClient client = PoolClient::kTrace) {
  const uint8_t* data = nullptr;
  const Status st = pool.Pin(id, &data, outcome, client);
  EXPECT_TRUE(st.ok()) << st.message();
  return data;
}

class BufferPoolTest : public ::testing::Test {
 protected:
  void SetUp() override {
    for (int i = 0; i < 8; ++i) {
      const PageId id = disk_.Allocate();
      Page p;
      p.data.fill(static_cast<uint8_t>(i + 1));
      disk_.Write(id, p);
    }
    disk_.ResetStats();
  }
  SimDisk disk_;
};

TEST_F(BufferPoolTest, HitsAvoidDiskReads) {
  BufferPool pool(&disk_, 4);
  const uint8_t* p = PinOk(pool, 3);
  EXPECT_EQ(p[0], 4);
  pool.Unpin(3);
  PinOk(pool, 3);
  pool.Unpin(3);
  EXPECT_EQ(pool.hits(), 1u);
  EXPECT_EQ(pool.misses(), 1u);
  EXPECT_EQ(disk_.reads(), 1u);
}

TEST_F(BufferPoolTest, ClockSparesReferencedFramesAndEvictsUnreferenced) {
  BufferPool pool(&disk_, 4);  // one shard, four frames
  for (PageId id = 0; id < 4; ++id) {
    PinOk(pool, id);
    pool.Unpin(id);
  }
  // Hits set the reference bit; page 3 was loaded and never hit.
  for (PageId id = 0; id < 3; ++id) {
    PinOk(pool, id);
    pool.Unpin(id);
  }
  EXPECT_EQ(pool.hits(), 3u);
  PinOk(pool, 4);  // the hand may pass referenced frames first: they survive
  pool.Unpin(4);
  EXPECT_EQ(pool.evictions(), 1u);
  for (PageId id = 0; id < 3; ++id) {  // survivors, re-referenced
    PinOk(pool, id);
    pool.Unpin(id);
  }
  EXPECT_EQ(pool.hits(), 6u);
  EXPECT_EQ(pool.misses(), 5u);
  PinOk(pool, 3);  // page 3 was the victim; page 4 is the only unreferenced
  pool.Unpin(3);
  EXPECT_EQ(pool.misses(), 6u);
  for (PageId id = 0; id < 4; ++id) {
    PinOk(pool, id);
    pool.Unpin(id);
  }
  EXPECT_EQ(pool.hits(), 10u);
  PinOk(pool, 4);  // evicted in its turn
  pool.Unpin(4);
  EXPECT_EQ(pool.misses(), 7u);
}

TEST_F(BufferPoolTest, SecondChanceLastsOneSweep) {
  BufferPool pool(&disk_, 2);
  for (PageId id : {0u, 1u, 0u, 1u}) {  // load both, then reference both
    PinOk(pool, id);
    pool.Unpin(id);
  }
  // The first turn of the sweep clears both bits and the second evicts one
  // of them; the survivor is unreferenced now and goes on the next miss,
  // ahead of nothing but the equally unreferenced page 2.
  PinOk(pool, 2);
  pool.Unpin(2);
  PinOk(pool, 3);
  pool.Unpin(3);
  EXPECT_EQ(pool.evictions(), 2u);
  BufferPool::PinOutcome first, second;
  PinOk(pool, 0, &first);
  pool.Unpin(0);
  EXPECT_TRUE(first.missed);
  PinOk(pool, 1, &second);
  pool.Unpin(1);
  EXPECT_TRUE(second.missed);
}

TEST_F(BufferPoolTest, PinnedPagesSurviveEvictionPressure) {
  BufferPool pool(&disk_, 2);
  const uint8_t* a = PinOk(pool, 0);
  PinOk(pool, 1);
  pool.Unpin(1);
  PinOk(pool, 2);  // must evict 1, not pinned 0
  pool.Unpin(2);
  EXPECT_EQ(a[0], 1);  // still valid
  pool.Unpin(0);
}

TEST_F(BufferPoolTest, DirtyPagesWrittenBackOnEviction) {
  {
    BufferPool pool(&disk_, 1);
    uint8_t* p = pool.PinMutable(5);
    p[0] = 0x77;
    pool.Unpin(5);
    PinOk(pool, 6);  // evicts dirty page 5
    pool.Unpin(6);
  }
  Page check;
  disk_.Read(5, &check);
  EXPECT_EQ(check.data[0], 0x77);
}

TEST_F(BufferPoolTest, FlushAllPersistsDirtyPages) {
  BufferPool pool(&disk_, 4);
  uint8_t* p = pool.PinMutable(2);
  p[10] = 0x55;
  pool.Unpin(2);
  pool.FlushAll();
  Page check;
  disk_.Read(2, &check);
  EXPECT_EQ(check.data[10], 0x55);
}

TEST_F(BufferPoolTest, StatsSnapshotMatchesAccessorsAndResets) {
  BufferPool pool(&disk_, 2);
  PinOk(pool, 0);
  pool.Unpin(0);
  PinOk(pool, 0);
  pool.Unpin(0);
  PinOk(pool, 1);
  pool.Unpin(1);
  PinOk(pool, 2);  // evicts
  pool.Unpin(2);
  const BufferPool::Stats stats = pool.stats();
  EXPECT_EQ(stats.hits, pool.hits());
  EXPECT_EQ(stats.misses, pool.misses());
  EXPECT_EQ(stats.evictions, pool.evictions());
  EXPECT_EQ(stats.hits, 1u);
  EXPECT_EQ(stats.misses, 3u);
  EXPECT_EQ(stats.evictions, 1u);
  EXPECT_DOUBLE_EQ(stats.hit_rate(), 0.25);
  pool.ResetStats();
  const BufferPool::Stats cleared = pool.stats();
  EXPECT_EQ(cleared.hits, 0u);
  EXPECT_EQ(cleared.misses, 0u);
  EXPECT_EQ(cleared.evictions, 0u);
  EXPECT_DOUBLE_EQ(cleared.hit_rate(), 0.0);  // no division by zero
}

TEST_F(BufferPoolTest, RepinningKeepsSinglePinAccounting) {
  BufferPool pool(&disk_, 2);
  PinOk(pool, 0);
  PinOk(pool, 0);  // second pin
  pool.Unpin(0);
  // Still pinned once: cannot be evicted.
  PinOk(pool, 1);
  pool.Unpin(1);
  PinOk(pool, 2);
  pool.Unpin(2);
  pool.Unpin(0);
  SUCCEED();
}

TEST_F(BufferPoolTest, PinReportsPerCallOutcome) {
  BufferPool pool(&disk_, 4);
  BufferPool::PinOutcome cold, warm;
  PinOk(pool, 3, &cold);
  EXPECT_TRUE(cold.missed);
  pool.Unpin(3);
  PinOk(pool, 3, &warm);
  EXPECT_FALSE(warm.missed);
  pool.Unpin(3);
}

TEST_F(BufferPoolTest, ShardingSplitsCapacityButServesEveryPage) {
  BufferPool pool(&disk_, 8, /*num_shards=*/2);
  EXPECT_EQ(pool.num_shards(), 2u);
  EXPECT_EQ(pool.capacity(), 8u);
  for (PageId id = 0; id < 8; ++id) {
    const uint8_t* p = PinOk(pool, id);
    EXPECT_EQ(p[0], id + 1);
    pool.Unpin(id);
  }
  EXPECT_EQ(pool.misses(), 8u);
}

TEST_F(BufferPoolTest, ShardCountIsCappedSoShardsKeepFrames) {
  // Auto sharding must never starve a shard below 4 frames.
  BufferPool tiny(&disk_, 2, /*num_shards=*/0);
  EXPECT_EQ(tiny.num_shards(), 1u);
  BufferPool eight(&disk_, 8, /*num_shards=*/16);
  EXPECT_LE(eight.num_shards(), 2u);
}

TEST_F(BufferPoolTest, StatsAggregateAcrossShardsUnderConcurrentPinners) {
  BufferPool pool(&disk_, 8, /*num_shards=*/2);
  constexpr int kThreads = 4;
  constexpr int kPinsPerThread = 2000;
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&pool, t] {
      for (int i = 0; i < kPinsPerThread; ++i) {
        const PageId id = static_cast<PageId>((t * 3 + i * 7) % 8);
        PinOk(pool, id);
        pool.Unpin(id);
      }
    });
  }
  for (auto& th : threads) th.join();
  const BufferPool::Stats stats = pool.stats();
  // Every pin is either a hit or a miss — the aggregated snapshot must sum
  // exactly, and the accessors must agree with it.
  EXPECT_EQ(stats.hits + stats.misses,
            static_cast<uint64_t>(kThreads) * kPinsPerThread);
  EXPECT_EQ(stats.hits, pool.hits());
  EXPECT_EQ(stats.misses, pool.misses());
  EXPECT_EQ(stats.evictions, pool.evictions());
  // All 8 pages fit (4 frames per shard, ids split evenly), so after the
  // first touch of each page everything hits.
  EXPECT_EQ(stats.misses, 8u);
  EXPECT_EQ(stats.evictions, 0u);
  EXPECT_GE(stats.lock_wait_seconds, 0.0);
}

TEST_F(BufferPoolTest, ConcurrentMissesOnDistinctPagesAllLoadCorrectly) {
  // Misses overlap outside the shard locks; every thread must still see the
  // right bytes for its page, and a page mid-load must not be re-read.
  BufferPool pool(&disk_, 8, /*num_shards=*/2);
  std::atomic<int> wrong{0};
  std::vector<std::thread> threads;
  for (int t = 0; t < 8; ++t) {
    threads.emplace_back([&, t] {
      for (int round = 0; round < 200; ++round) {
        const PageId id = static_cast<PageId>((t + round) % 8);
        const uint8_t* p = PinOk(pool, id);
        if (p[0] != id + 1) wrong.fetch_add(1);
        pool.Unpin(id);
      }
    });
  }
  for (auto& th : threads) th.join();
  EXPECT_EQ(wrong.load(), 0);
  EXPECT_EQ(disk_.reads(), 8u);  // one real read per page, ever
}

TEST_F(BufferPoolTest, ShardCrossingPinMutableDuringEvictionPersistsWrites) {
  // Writers on every shard while capacity pressure forces dirty evictions
  // (write-backs happen outside the shard locks): every written byte must
  // land on disk, via eviction or the final FlushAll.
  constexpr int kPages = 16;
  for (int i = 8; i < kPages; ++i) {
    const PageId id = disk_.Allocate();
    Page p;
    p.data.fill(static_cast<uint8_t>(i + 1));
    disk_.Write(id, p);
  }
  disk_.ResetStats();
  BufferPool pool(&disk_, 8, /*num_shards=*/2);  // half the pages fit
  std::vector<std::thread> threads;
  for (int t = 0; t < 4; ++t) {
    threads.emplace_back([&, t] {
      for (int round = 0; round < 100; ++round) {
        const PageId id = static_cast<PageId>((t * 5 + round) % kPages);
        uint8_t* p = pool.PinMutable(id);
        // Idempotent per page, but two threads may hold mutable pins on the
        // same frame at once (PinMutable does not exclude concurrent
        // pinners — frame-level coordination is the caller's job), so the
        // store must be atomic to be a defined program.
        std::atomic_ref<uint8_t>(p[1]).store(static_cast<uint8_t>(0x40 + id),
                                             std::memory_order_relaxed);
        pool.Unpin(id);
      }
    });
  }
  for (auto& th : threads) th.join();
  pool.FlushAll();
  for (PageId id = 0; id < kPages; ++id) {
    Page check;
    disk_.Read(id, &check);
    EXPECT_EQ(check.data[0], id + 1) << "page " << id;  // original byte
    EXPECT_EQ(check.data[1], 0x40 + id) << "page " << id;
  }
}

TEST_F(BufferPoolTest, ClientKindSplitsHitsMissesAndOccupancy) {
  BufferPool pool(&disk_, 4);
  // Trace client (the default tag) loads pages 0 and 1.
  PinOk(pool, 0);
  pool.Unpin(0);
  PinOk(pool, 1, nullptr, PoolClient::kTrace);
  pool.Unpin(1);
  // Tree client loads page 2, then re-hits page 0 (loaded by kTrace).
  PinOk(pool, 2, nullptr, PoolClient::kTree);
  pool.Unpin(2);
  PinOk(pool, 0, nullptr, PoolClient::kTree);
  pool.Unpin(0);
  const auto trace = static_cast<size_t>(PoolClient::kTrace);
  const auto tree = static_cast<size_t>(PoolClient::kTree);
  BufferPool::Stats stats = pool.stats();
  EXPECT_EQ(stats.client_misses[trace], 2u);
  EXPECT_EQ(stats.client_misses[tree], 1u);
  EXPECT_EQ(stats.client_hits[trace], 0u);
  EXPECT_EQ(stats.client_hits[tree], 1u);
  // Per-kind counts sum to the totals.
  EXPECT_EQ(stats.client_hits[trace] + stats.client_hits[tree], stats.hits);
  EXPECT_EQ(stats.client_misses[trace] + stats.client_misses[tree],
            stats.misses);
  // Occupancy is attributed to the loading kind, not later pinners: page 0
  // stays a kTrace frame even after the kTree hit.
  EXPECT_EQ(stats.client_resident[trace], 2u);
  EXPECT_EQ(stats.client_resident[tree], 1u);

  // ResetStats clears the per-kind counters but NOT occupancy (the frames
  // are still resident).
  pool.ResetStats();
  stats = pool.stats();
  EXPECT_EQ(stats.client_hits[tree], 0u);
  EXPECT_EQ(stats.client_misses[trace], 0u);
  EXPECT_EQ(stats.client_resident[trace], 2u);
  EXPECT_EQ(stats.client_resident[tree], 1u);

  // Eviction releases the victim's occupancy slot and charges the new
  // frame to its loader: fill the remaining frame, hit page 2 so only
  // kTrace pages are unreferenced, then overflow with a tree pin — the
  // clock victim is page 1 or 3 (kTrace; page 0 was hit too).
  PinOk(pool, 3, nullptr, PoolClient::kTrace);
  pool.Unpin(3);
  PinOk(pool, 2, nullptr, PoolClient::kTree);
  pool.Unpin(2);
  PinOk(pool, 4, nullptr, PoolClient::kTree);
  pool.Unpin(4);
  stats = pool.stats();
  EXPECT_EQ(stats.evictions, 1u);
  EXPECT_EQ(stats.client_resident[trace], 2u);  // page 0, and 1 or 3
  EXPECT_EQ(stats.client_resident[tree], 2u);   // pages 2 and 4
  EXPECT_EQ(stats.client_resident[trace] + stats.client_resident[tree],
            pool.capacity());
}

TEST(BufferPoolStressTest, LockFreeHitsRaceEvictionDiscardAndLoadUnwind) {
  // Lock-free hits and unpins race CLOCK eviction, Discard and the unwind
  // of failed loads on a seeded fault-injecting disk: every pin that
  // succeeds must see its own page's bytes, every Pin call counts exactly
  // one hit or miss, and at quiescence no pin is outstanding, occupancy is
  // zero once every page is discarded, and every frame is back in service.
  FaultInjectionConfig faults;
  faults.seed = 0x5EEDull;
  faults.read_error_rate = 0.05;
  faults.read_flip_rate = 0.05;
  faults.sticky_page_rate = 0.05;  // unreadable pages: unwind on every load
  FaultInjectingDisk disk(faults, /*read=*/0.0, /*write=*/0.0);
  constexpr PageId kShared = 48;  // pinned by the readers
  constexpr PageId kPages = 64;   // [kShared, kPages) owned by the discarder
  const auto fill = [](PageId id) { return static_cast<uint8_t>(id * 13 + 5); };
  for (PageId i = 0; i < kPages; ++i) {
    const PageId id = disk.Allocate();
    Page p;
    p.data.fill(fill(id));
    disk.Write(id, p);
  }
  disk.Arm();
  // 8 frames per shard over 32 pages per shard: constant eviction, while a
  // hot set of 8 pages takes half the pins, mostly on the lock-free hit
  // path. Readers outnumber cores, so a pinner is often descheduled between
  // its slot probe and its CAS while the frame is evicted and reloaded.
  BufferPool pool(&disk, 16, /*num_shards=*/2);
  constexpr int kReaders = 8;
  constexpr int kOpsPerThread = 20000;
  std::atomic<uint64_t> pin_calls{0};
  std::atomic<uint64_t> wrong{0};
  const auto pin_checked = [&](PageId id, PoolClient client) {
    const uint8_t* data = nullptr;
    pin_calls.fetch_add(1, std::memory_order_relaxed);
    if (!pool.Pin(id, &data, nullptr, client).ok()) return false;
    if (data[0] != fill(id) || data[kPageSize - 1] != fill(id)) {
      wrong.fetch_add(1, std::memory_order_relaxed);
    }
    return true;
  };
  std::vector<std::thread> threads;
  for (int t = 0; t < kReaders; ++t) {
    threads.emplace_back([&, t] {
      std::mt19937_64 rng(0xC10Cull + static_cast<uint64_t>(t));
      PageId held = 0;
      bool holding = false;
      for (int i = 0; i < kOpsPerThread; ++i) {
        const uint64_t r = rng();
        const PageId id = static_cast<PageId>(
            r % 2 != 0 ? (r >> 8) % 8 : (r >> 8) % kShared);
        const PoolClient client =
            (r >> 40) % 2 == 0 ? PoolClient::kTrace : PoolClient::kTree;
        // Hold up to two pins at once, so pinned frames meet the sweep.
        if (!pin_checked(id, client)) continue;
        if (holding) pool.Unpin(held);
        held = id;
        holding = (r >> 48) % 2 == 0;
        if (!holding) pool.Unpin(id);
      }
      if (holding) pool.Unpin(held);
    });
  }
  threads.emplace_back([&] {
    for (int i = 0; i < kOpsPerThread; ++i) {
      const PageId id = kShared + static_cast<PageId>(i % (kPages - kShared));
      if (pin_checked(id, PoolClient::kTree)) pool.Unpin(id);
      pool.Discard(id);
    }
  });
  for (auto& th : threads) th.join();
  EXPECT_EQ(wrong.load(), 0u);
  const BufferPool::Stats stats = pool.stats();
  EXPECT_EQ(stats.hits + stats.misses, pin_calls.load());
  EXPECT_GT(stats.hits, 0u);
  EXPECT_GT(stats.evictions, 0u);
  EXPECT_LE(stats.client_resident[0] + stats.client_resident[1],
            pool.capacity());

  // Quiescence. Discard requires an unpinned page, so discarding every
  // page proves no pin leaked (or underflowed); occupancy must then be zero.
  for (PageId id = 0; id < kPages; ++id) pool.Discard(id);
  const BufferPool::Stats drained = pool.stats();
  EXPECT_EQ(drained.client_resident[0], 0u);
  EXPECT_EQ(drained.client_resident[1], 0u);
  // Every frame is free again: a full pool of fresh loads evicts nothing.
  disk.Disarm();
  pool.ResetStats();
  PageId loaded = 0;
  for (PageId id = 0; id < kPages && loaded < pool.capacity(); ++id) {
    const uint8_t* data = nullptr;
    if (!pool.Pin(id, &data).ok()) continue;  // can't happen disarmed
    pool.Unpin(id);
    ++loaded;
  }
  EXPECT_EQ(loaded, pool.capacity());
  EXPECT_EQ(pool.evictions(), 0u);
  EXPECT_EQ(pool.misses(), pool.capacity());
}

using BufferPoolDeathTest = BufferPoolTest;

TEST_F(BufferPoolDeathTest, UnpinOfNeverPinnedPageAborts) {
  ::testing::FLAGS_gtest_death_test_style = "threadsafe";
  BufferPool pool(&disk_, 4);
  EXPECT_DEATH(pool.Unpin(3), "unpin of non-resident page");
}

TEST_F(BufferPoolDeathTest, UnpinPastPinCountAborts) {
  ::testing::FLAGS_gtest_death_test_style = "threadsafe";
  BufferPool pool(&disk_, 4);
  PinOk(pool, 2);
  pool.Unpin(2);
  EXPECT_DEATH(pool.Unpin(2), "unpin of unpinned page");
}

TEST_F(BufferPoolDeathTest, UnpinOfEvictedPageAborts) {
  ::testing::FLAGS_gtest_death_test_style = "threadsafe";
  BufferPool pool(&disk_, 1);
  PinOk(pool, 0);
  pool.Unpin(0);
  PinOk(pool, 1);  // evicts 0
  pool.Unpin(1);
  EXPECT_DEATH(pool.Unpin(0), "unpin of non-resident page");
}

}  // namespace
}  // namespace dtrace
