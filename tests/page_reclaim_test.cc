// Retired-page reclamation (`ctest -L persistence`): SimDisk's free list,
// BufferPool::Discard's stale-frame guarantee, and the end-to-end property
// they exist for — a churn of paged-tree snapshot republications reuses the
// retired snapshots' pages instead of growing the disk without bound
// (~SimDiskTreePageStore discards then frees; DESIGN-storage.md).
#include <gtest/gtest.h>

#include <cstdint>

#include "core/association.h"
#include "core/index.h"
#include "exp/harness.h"
#include "exp/presets.h"
#include "storage/buffer_pool.h"
#include "storage/sim_disk.h"
#include "trace/dataset.h"

namespace dtrace {
namespace {

TEST(PageReclaimTest, FreeListReusesLifo) {
  SimDisk disk;
  const PageId a = disk.Allocate();
  const PageId b = disk.Allocate();
  const PageId c = disk.Allocate();
  EXPECT_EQ(disk.num_pages(), 3u);
  EXPECT_EQ(disk.free_pages(), 0u);

  disk.Free(b);
  disk.Free(a);
  EXPECT_EQ(disk.free_pages(), 2u);
  // LIFO: the most recently freed page comes back first, and the page
  // table does not grow while the free list can serve.
  EXPECT_EQ(disk.Allocate(), a);
  EXPECT_EQ(disk.Allocate(), b);
  EXPECT_EQ(disk.num_pages(), 3u);
  EXPECT_EQ(disk.free_pages(), 0u);
  EXPECT_EQ(disk.Allocate(), c + 1);  // list empty again: fresh page
}

TEST(PageReclaimTest, FreedPagesComeBackZeroed) {
  SimDisk disk;
  const PageId p = disk.Allocate();
  Page page{};
  page.data[0] = 0xAB;
  ASSERT_TRUE(disk.Write(p, page).ok());
  disk.Free(p);
  ASSERT_EQ(disk.Allocate(), p);
  Page out{};
  ASSERT_TRUE(disk.Read(p, &out).ok());
  EXPECT_EQ(out.data[0], 0) << "reallocation leaked the old page's bytes";
}

TEST(PageReclaimTest, DiscardDropsStaleFrameBeforeReuse) {
  SimDisk disk;
  BufferPool pool(&disk, /*capacity_pages=*/4);
  const PageId p = disk.Allocate();
  Page page{};
  page.data[0] = 0xAB;
  ASSERT_TRUE(disk.Write(p, page).ok());
  const uint8_t* frame = nullptr;
  ASSERT_TRUE(pool.Pin(p, &frame).ok());
  EXPECT_EQ(frame[0], 0xAB);
  pool.Unpin(p);

  // Retire the page the mandated way: Discard BEFORE Free. The next owner
  // of the same id must never see the old frame.
  pool.Discard(p);
  disk.Free(p);
  const PageId q = disk.Allocate();
  ASSERT_EQ(q, p);
  page.data[0] = 0xCD;
  ASSERT_TRUE(disk.Write(q, page).ok());
  ASSERT_TRUE(pool.Pin(q, &frame).ok());
  EXPECT_EQ(frame[0], 0xCD) << "stale buffer-pool frame served old bytes";
  pool.Unpin(q);
}

TEST(PageReclaimTest, SnapshotChurnPlateausDiskFootprint) {
  Dataset dataset = MakeSynDataset(200, /*seed=*/317);
  DigitalTraceIndex index = DigitalTraceIndex::Build(
      dataset.store, IndexOptions{.num_functions = 32, .seed = 17});

  SimDisk disk;
  BufferPool pool(&disk, /*capacity_pages=*/256, /*num_shards=*/4);
  PagedTreeOptions popts;
  popts.shared_disk = &disk;
  popts.shared_pool = &pool;
  index.EnablePagedTree(popts);

  // Warm up past the initial pack so the free list reaches steady state
  // (each commit packs the new snapshot while the old one still holds its
  // pages, so the plateau is about two snapshots' worth).
  for (int i = 0; i < 3; ++i) index.Refresh();
  const size_t plateau = disk.num_pages();

  PolynomialLevelMeasure measure(dataset.hierarchy->num_levels());
  const auto queries = SampleQueries(*dataset.store, 2, 0x23);
  for (int round = 0; round < 12; ++round) {
    index.UpdateEntity(static_cast<EntityId>((round * 37) % 200));
    index.Refresh();
    // Interleave reads so frames for live pages churn through the pool.
    for (const EntityId q : queries) {
      ASSERT_TRUE(index.Query(q, 5, measure).status.ok());
    }
  }
  EXPECT_LE(disk.num_pages(), plateau + 2)
      << "retired snapshot pages are not being reclaimed";
}

}  // namespace
}  // namespace dtrace
