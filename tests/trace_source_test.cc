// The storage-backed query path: a top-k query evaluated against a
// PagedTraceSource must return bit-identical results to the in-memory
// TraceStore path on the same dataset, while actually reading pages.
#include "trace/trace_source.h"

#include <gtest/gtest.h>

#include <memory>
#include <optional>
#include <utility>
#include <vector>

#include "core/index.h"
#include "exp/harness.h"
#include "exp/presets.h"
#include "storage/paged_trace_source.h"
#include "trace/spatial_hierarchy.h"
#include "trace/trace_store.h"
#include "util/rng.h"

namespace dtrace {
namespace {

class TraceSourceTest : public ::testing::Test {
 protected:
  static void SetUpTestSuite() {
    dataset_ = new Dataset(MakeSynDataset(400, /*seed=*/51));
    index_ = new DigitalTraceIndex(
        DigitalTraceIndex::Build(dataset_->store, {.num_functions = 128}));
    PagedTraceSource::Options options;
    options.pool_fraction = 0.2;  // most reads miss: real page traffic
    paged_ = new PagedTraceSource(*dataset_->store, options);
  }
  static void TearDownTestSuite() {
    delete paged_;
    delete index_;
    delete dataset_;
    paged_ = nullptr;
    index_ = nullptr;
    dataset_ = nullptr;
  }

  static void ExpectIdentical(const TopKResult& a, const TopKResult& b) {
    ASSERT_EQ(a.items.size(), b.items.size());
    for (size_t i = 0; i < a.items.size(); ++i) {
      EXPECT_EQ(a.items[i].entity, b.items[i].entity) << "rank " << i;
      EXPECT_EQ(a.items[i].score, b.items[i].score) << "rank " << i;
    }
  }

  static Dataset* dataset_;
  static DigitalTraceIndex* index_;
  static PagedTraceSource* paged_;
};

Dataset* TraceSourceTest::dataset_ = nullptr;
DigitalTraceIndex* TraceSourceTest::index_ = nullptr;
PagedTraceSource* TraceSourceTest::paged_ = nullptr;

TEST_F(TraceSourceTest, PagedQueryBitIdenticalToInMemoryWithRealIo) {
  PolynomialLevelMeasure measure(dataset_->hierarchy->num_levels());
  QueryOptions via_disk;
  via_disk.trace_source = paged_;
  uint64_t total_pages_read = 0;
  for (EntityId q : SampleQueries(*dataset_->store, 6, 31)) {
    const TopKResult mem = index_->Query(q, 10, measure);
    const TopKResult disk = index_->Query(q, 10, measure, via_disk);
    ExpectIdentical(mem, disk);
    // Pruning decisions are source-independent, so the instrumentation
    // other than I/O matches too.
    EXPECT_EQ(mem.stats.entities_checked, disk.stats.entities_checked);
    EXPECT_EQ(mem.stats.nodes_visited, disk.stats.nodes_visited);
    EXPECT_EQ(mem.stats.io.pages_read, 0u);
    EXPECT_GT(disk.stats.io.entities_fetched, 0u);
    EXPECT_GT(disk.stats.io.bytes_read, 0u);
    EXPECT_GT(disk.stats.io.modeled_io_seconds, 0.0);
    total_pages_read += disk.stats.io.pages_read;
  }
  EXPECT_GT(total_pages_read, 0u);
}

TEST_F(TraceSourceTest, PagedBruteForceMatchesInMemory) {
  PolynomialLevelMeasure measure(dataset_->hierarchy->num_levels());
  QueryOptions via_disk;
  via_disk.trace_source = paged_;
  for (EntityId q : SampleQueries(*dataset_->store, 3, 32)) {
    ExpectIdentical(index_->BruteForce(q, 10, measure),
                    index_->BruteForce(q, 10, measure, via_disk));
  }
}

TEST_F(TraceSourceTest, WindowedAndApproximateQueriesMatchThroughStorage) {
  PolynomialLevelMeasure measure(dataset_->hierarchy->num_levels());
  for (double eps : {0.0, 0.5}) {
    QueryOptions mem_opts;
    mem_opts.time_window = TimeWindow{100, 400};
    mem_opts.approximation_epsilon = eps;
    QueryOptions disk_opts = mem_opts;
    disk_opts.trace_source = paged_;
    for (EntityId q : SampleQueries(*dataset_->store, 4, 33)) {
      ExpectIdentical(index_->Query(q, 5, measure, mem_opts),
                      index_->Query(q, 5, measure, disk_opts));
    }
  }
}

TEST_F(TraceSourceTest, CursorPrimitivesMatchStore) {
  const TraceStore& store = *dataset_->store;
  const auto cursor = paged_->OpenCursor();
  const int m = store.hierarchy().num_levels();
  for (EntityId e = 0; e < 40; e += 7) {
    for (Level l = 1; l <= m; ++l) {
      const auto expected = store.cells(e, l);
      const auto got = cursor->Cells(e, l);
      ASSERT_EQ(got.size(), expected.size()) << "e=" << e << " l=" << l;
      for (size_t i = 0; i < expected.size(); ++i) {
        EXPECT_EQ(got[i], expected[i]);
      }
      const auto win = cursor->CellsInWindow(e, l, 50, 300);
      const auto win_expected = store.CellsInWindow(e, l, 50, 300);
      EXPECT_EQ(win.size(), win_expected.size());
      EXPECT_EQ(cursor->IntersectionSize(e, (e + 1) % 40, l),
                store.IntersectionSize(e, (e + 1) % 40, l));
      EXPECT_EQ(cursor->WindowedIntersectionSize(e, (e + 1) % 40, l, 50, 300),
                store.WindowedIntersectionSize(e, (e + 1) % 40, l, 50, 300));
    }
  }
}

TEST_F(TraceSourceTest, CursorCacheAbsorbsRepeatedReads) {
  const auto cursor = paged_->OpenCursor();
  cursor->Cells(3, 1);
  const TraceIoStats after_first = cursor->io();
  EXPECT_EQ(after_first.entities_fetched, 1u);
  for (Level l = 1; l <= dataset_->hierarchy->num_levels(); ++l) {
    cursor->Cells(3, l);
  }
  const TraceIoStats after = cursor->io();
  EXPECT_EQ(after.entities_fetched, 1u);  // all further reads were cached
  EXPECT_EQ(after.pages_read + after.pages_hit, after_first.pages_read +
                                                    after_first.pages_hit);
  EXPECT_GT(after.cache_hits, 0u);
}

TEST_F(TraceSourceTest, ComputeDegreeAgreesAcrossSources) {
  PolynomialLevelMeasure measure(dataset_->hierarchy->num_levels());
  for (EntityId a = 0; a < 20; a += 3) {
    EXPECT_DOUBLE_EQ(ComputeDegree(measure, *dataset_->store, a, a + 1),
                     ComputeDegree(measure, *paged_, a, a + 1));
  }
}

TEST_F(TraceSourceTest, InMemoryCursorChargesNoIo) {
  const auto cursor = dataset_->store->OpenCursor();
  cursor->Cells(0, 1);
  cursor->IntersectionSize(0, 1, 1);
  EXPECT_EQ(cursor->io().entities_fetched, 0u);
  EXPECT_EQ(cursor->io().pages_read, 0u);
  EXPECT_EQ(cursor->io().bytes_read, 0u);
}

TEST_F(TraceSourceTest, HarnessMeasuresStoragePath) {
  PolynomialLevelMeasure measure(dataset_->hierarchy->num_levels());
  const auto queries = SampleQueries(*dataset_->store, 4, 34);
  QueryOptions via_disk;
  via_disk.trace_source = paged_;
  const PeMeasurement pe =
      MeasurePe(*index_, measure, queries, 5, via_disk, /*num_threads=*/1);
  EXPECT_EQ(pe.num_queries, queries.size());
  EXPECT_GT(pe.mean_pages_read, 0.0);
  EXPECT_GT(pe.mean_io_seconds, 0.0);
  EXPECT_TRUE(VerifyExactness(*index_, measure, queries, 5, via_disk));
}

// Compressed records store only the base level; every coarse level is
// derived on read. A hierarchy whose ancestor numbering is non-monotone,
// with several units per time step, makes derived cells come out of order
// within a step and repeat — the derivation's sort-and-dedup branch. All
// three sources must still agree bit for bit, down to the search counters.
TEST(TraceDerivationTest, NonMonotoneAncestorsAgreeAcrossSources) {
  // Level 2 parents and level 3 parents both permute the natural order.
  std::vector<UnitId> mid_parent = {2, 0, 1, 0, 2, 1};
  std::vector<UnitId> base_parent(18);
  for (UnitId u = 0; u < 18; ++u) base_parent[u] = (u * 5) % 6;
  const SpatialHierarchy h = std::move(SpatialHierarchy::Builder(3)
                                           .AddLevel(mid_parent)
                                           .AddLevel(base_parent))
                                 .Build();
  constexpr uint32_t kEntities = 80;
  constexpr TimeStep kHorizon = 24;
  Rng rng(97);
  std::vector<PresenceRecord> records;
  for (EntityId e = 0; e < kEntities; ++e) {
    for (int step = 0; step < 8; ++step) {
      const auto t = static_cast<TimeStep>(rng.NextBelow(kHorizon));
      const int units = 1 + static_cast<int>(rng.NextBelow(4));
      for (int i = 0; i < units; ++i) {
        records.push_back(
            {e, static_cast<UnitId>(rng.NextBelow(18)), t, t + 1});
      }
    }
  }
  auto store = std::make_shared<TraceStore>(h, kEntities, kHorizon, records);

  // The branch under test must run: some entity's naively mapped base
  // cells leave level order at some coarse level.
  bool out_of_order = false;
  for (EntityId e = 0; e < kEntities && !out_of_order; ++e) {
    for (Level l = 1; l < 3 && !out_of_order; ++l) {
      CellId prev = 0;
      bool first = true;
      for (CellId c : store->cells(e, 3)) {
        const CellId d = (c / 18) * h.units_at(l) + h.AncestorOfBase(c % 18, l);
        if (!first && d < prev) out_of_order = true;
        prev = d;
        first = false;
      }
    }
  }
  ASSERT_TRUE(out_of_order);

  PagedTraceSource::Options raw_opts;
  raw_opts.pool_fraction = 0.3;
  PagedTraceSource::Options packed_opts = raw_opts;
  packed_opts.compress = true;
  const PagedTraceSource raw(*store, raw_opts);
  const PagedTraceSource packed(*store, packed_opts);
  ASSERT_LT(packed.data_bytes(), raw.data_bytes());

  const auto mem_cursor = store->OpenCursor();
  const auto raw_cursor = raw.OpenCursor();
  const auto packed_cursor = packed.OpenCursor();
  auto same = [](std::span<const CellId> a, std::span<const CellId> b) {
    return std::vector<CellId>(a.begin(), a.end()) ==
           std::vector<CellId>(b.begin(), b.end());
  };
  for (EntityId e = 0; e < kEntities; ++e) {
    for (Level l = 1; l <= 3; ++l) {
      const auto want = mem_cursor->Cells(e, l);
      EXPECT_TRUE(same(want, raw_cursor->Cells(e, l))) << e << "/" << l;
      EXPECT_TRUE(same(want, packed_cursor->Cells(e, l))) << e << "/" << l;
      const std::pair<TimeStep, TimeStep> windows[] = {
          {0, 9}, {5, 17}, {20, kHorizon}};
      for (const auto& [t0, t1] : windows) {
        const auto win = mem_cursor->CellsInWindow(e, l, t0, t1);
        EXPECT_TRUE(same(win, raw_cursor->CellsInWindow(e, l, t0, t1)))
            << e << "/" << l << " [" << t0 << "," << t1 << ")";
        EXPECT_TRUE(same(win, packed_cursor->CellsInWindow(e, l, t0, t1)))
            << e << "/" << l << " [" << t0 << "," << t1 << ")";
      }
    }
  }
  EXPECT_TRUE(raw_cursor->status().ok());
  EXPECT_TRUE(packed_cursor->status().ok());

  const auto index = DigitalTraceIndex::Build(store, {.num_functions = 32});
  PolynomialLevelMeasure measure(3);
  const std::optional<TimeWindow> windows[] = {std::nullopt,
                                               TimeWindow{4, 19}};
  for (const auto& window : windows) {
    QueryOptions mem_opts;
    mem_opts.time_window = window;
    QueryOptions raw_q = mem_opts;
    raw_q.trace_source = &raw;
    QueryOptions packed_q = mem_opts;
    packed_q.trace_source = &packed;
    for (EntityId q = 0; q < kEntities; q += 7) {
      const TopKResult want = index.Query(q, 5, measure, mem_opts);
      for (const TopKResult& got : {index.Query(q, 5, measure, raw_q),
                                    index.Query(q, 5, measure, packed_q)}) {
        ASSERT_TRUE(got.status.ok());
        ASSERT_EQ(got.items.size(), want.items.size()) << "q " << q;
        for (size_t i = 0; i < want.items.size(); ++i) {
          EXPECT_EQ(got.items[i].entity, want.items[i].entity);
          EXPECT_EQ(got.items[i].score, want.items[i].score);
        }
        EXPECT_EQ(got.stats.nodes_visited, want.stats.nodes_visited);
        EXPECT_EQ(got.stats.entities_checked, want.stats.entities_checked);
        EXPECT_EQ(got.stats.heap_pushes, want.stats.heap_pushes);
        EXPECT_EQ(got.stats.hash_evals, want.stats.hash_evals);
      }
    }
  }
}

}  // namespace
}  // namespace dtrace
