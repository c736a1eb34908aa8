// Self-tests of the benchmark harness: percentile and sample-count
// reporting, operation/failure accounting (deadline expiry included), and
// the tracing decorators' transparency.
#include <gtest/gtest.h>

#include <bit>
#include <condition_variable>
#include <mutex>
#include <optional>
#include <vector>

#include "core/index.h"
#include "core/sharded_index.h"
#include "exp/presets.h"
#include "harness.h"
#include "storage/paged_trace_source.h"
#include "tracing.h"

namespace perfbench {
namespace {

using dtrace::TopKResult;

TEST(Percentile, NearestRank) {
  std::vector<double> v;
  for (int i = 100; i >= 1; --i) v.push_back(i);  // unsorted input
  EXPECT_EQ(Percentile(v, 0.50), 50);
  EXPECT_EQ(Percentile(v, 0.99), 99);
  EXPECT_EQ(Percentile(v, 1.0), 100);
  EXPECT_EQ(Percentile({7.0}, 0.99), 7);
  EXPECT_EQ(Percentile({}, 0.5), 0);
  EXPECT_EQ(Median({3.0, 1.0, 2.0}), 2);
}

TEST(Percentile, SampleCountSupportsP99) {
  EXPECT_EQ(SamplesNeeded(0.99), 1000u);
  EXPECT_EQ(SamplesNeeded(0.5), 20u);
  std::vector<double> v(999, 1.0);
  LatencySummary s = Summarize(v);
  EXPECT_EQ(s.samples, 999u);
  EXPECT_FALSE(s.p99_supported);
  v.push_back(5.0);
  s = Summarize(v);
  EXPECT_EQ(s.samples, 1000u);
  EXPECT_TRUE(s.p99_supported);
  EXPECT_EQ(s.p50, 1.0);
  // Exactly ten samples lie above rank 990 of 1000.
  for (int i = 0; i < 9; ++i) v[i] = 5.0;
  EXPECT_EQ(Summarize(v).p99, 1.0);
  v[9] = 5.0;
  EXPECT_EQ(Summarize(v).p99, 5.0);
}

TEST(LoadRun, CountsAttemptsAndFailures) {
  std::vector<LoadRun::Body> bodies;
  for (int c = 0; c < 3; ++c) {
    bodies.push_back([](Client& client) {
      for (int i = 0; i < 30; ++i) {
        client.Attempt([i] { return i % 3 != 0; });  // 10 of 30 fail
      }
    });
  }
  LoadRun run(std::move(bodies));
  ASSERT_TRUE(run.Run(std::chrono::duration<double>(0.0),
                      std::chrono::duration<double>(10.0)));
  EXPECT_EQ(run.attempted(), 90u);
  EXPECT_EQ(run.failed(), 30u);
  EXPECT_EQ(run.outstanding(), 0u);
  EXPECT_DOUBLE_EQ(FailedFraction(run.attempted(), run.failed()), 1.0 / 3);
  EXPECT_EQ(FailedFraction(0, 0), 0.0);
}

TEST(LoadRun, ClosedLoopStopsAtWindowEnd) {
  std::vector<LoadRun::Body> bodies;
  for (int c = 0; c < 2; ++c) {
    bodies.push_back([](Client& client) {
      while (!client.stopping()) {
        client.Attempt([] {
          std::this_thread::sleep_for(std::chrono::milliseconds(1));
          return true;
        });
      }
    });
  }
  LoadRun run(std::move(bodies));
  ASSERT_TRUE(run.Run(std::chrono::duration<double>(0.05),
                      std::chrono::duration<double>(10.0)));
  EXPECT_GT(run.attempted(), 0u);
  EXPECT_EQ(run.failed(), 0u);
  EXPECT_GE(run.elapsed_seconds(), 0.05);
}

TEST(LoadRun, DeadlineCountsOutstandingAsFailed) {
  std::mutex mu;
  std::condition_variable cv;
  bool released = false;
  std::vector<LoadRun::Body> bodies;
  bodies.push_back([&](Client& client) {
    client.Attempt([] { return false; });
    client.Attempt([] { return true; });
    client.Attempt([&] {  // stuck until the test releases it
      std::unique_lock<std::mutex> lock(mu);
      cv.wait(lock, [&] { return released; });
      return true;
    });
  });
  bodies.push_back([](Client& client) {
    while (!client.stopping()) client.Attempt([] { return true; });
  });
  LoadRun run(std::move(bodies));
  EXPECT_FALSE(run.Run(std::chrono::duration<double>(0.02),
                       std::chrono::duration<double>(0.05)));
  EXPECT_EQ(run.outstanding(), 1u);
  EXPECT_EQ(run.failed(), 2u);  // one returned false, one never returned
  EXPECT_GE(run.attempted(), 4u);
  {
    const std::lock_guard<std::mutex> lock(mu);
    released = true;
  }
  cv.notify_all();
  // ~LoadRun joins the released client.
}

TEST(DueTime, OpenLoopSchedule) {
  const Clock::time_point t0 = Clock::now();
  EXPECT_EQ(DueTime(t0, 0, 50.0), t0);
  EXPECT_NEAR(SecondsBetween(t0, DueTime(t0, 25, 50.0)), 0.5, 1e-9);
}

bool SameIo(const dtrace::TraceIoStats& a, const dtrace::TraceIoStats& b) {
  return a.entities_fetched == b.entities_fetched &&
         a.pages_read == b.pages_read && a.pages_hit == b.pages_hit &&
         a.bytes_read == b.bytes_read && a.cache_hits == b.cache_hits &&
         a.prefetch_hits == b.prefetch_hits &&
         a.tree_pages_read == b.tree_pages_read &&
         a.tree_page_hits == b.tree_page_hits &&
         a.io_retries == b.io_retries &&
         a.checksum_failures == b.checksum_failures &&
         a.faults_injected == b.faults_injected &&
         std::bit_cast<uint64_t>(a.modeled_io_seconds) ==
             std::bit_cast<uint64_t>(b.modeled_io_seconds);
}

void ExpectSameResult(const TopKResult& a, const TopKResult& b) {
  ASSERT_TRUE(a.status.ok());
  ASSERT_TRUE(b.status.ok());
  ASSERT_EQ(a.items.size(), b.items.size());
  for (size_t i = 0; i < a.items.size(); ++i) {
    EXPECT_EQ(a.items[i].entity, b.items[i].entity);
    EXPECT_EQ(std::bit_cast<uint64_t>(a.items[i].score),
              std::bit_cast<uint64_t>(b.items[i].score));
  }
  EXPECT_EQ(a.stats.nodes_visited, b.stats.nodes_visited);
  EXPECT_EQ(a.stats.entities_checked, b.stats.entities_checked);
  EXPECT_EQ(a.stats.heap_pushes, b.stats.heap_pushes);
  EXPECT_TRUE(SameIo(a.stats.io, b.stats.io));
}

class TracingTest : public ::testing::Test {
 protected:
  static void SetUpTestSuite() {
    data_ = new dtrace::Dataset(dtrace::MakeDiskResidentDataset(2000, 5));
    measure_ = new dtrace::PolynomialLevelMeasure(
        data_->hierarchy->num_levels());
  }
  static void TearDownTestSuite() {
    delete measure_;
    delete data_;
  }
  static dtrace::Dataset* data_;
  static dtrace::PolynomialLevelMeasure* measure_;
};
dtrace::Dataset* TracingTest::data_ = nullptr;
dtrace::PolynomialLevelMeasure* TracingTest::measure_ = nullptr;

TEST_F(TracingTest, InMemoryAnswersAndStatsUnchanged) {
  const auto index = dtrace::DigitalTraceIndex::Build(
      data_->store, dtrace::PresetIndexOptions(64));
  ReadSink sink;
  const TracingTraceSource traced_source(index.store(), &sink);
  const TracingMeasure traced_measure(*measure_, &sink);
  dtrace::QueryOptions traced;
  traced.trace_source = &traced_source;
  for (dtrace::EntityId q : {3u, 77u, 1234u}) {
    const TopKResult plain = index.Query(q, 10, *measure_);
    const TopKResult with = index.Query(q, 10, traced_measure, traced);
    ExpectSameResult(plain, with);
    const ChildTotals c = sink.Take();
    EXPECT_GT(c.calls[static_cast<int>(ChildKind::kTrace)], 0u);
    EXPECT_EQ(c.calls[static_cast<int>(ChildKind::kScore)],
              with.stats.entities_checked);
    EXPECT_GT(c.total_busy_ns(), 0);
  }
}

TEST_F(TracingTest, PagedSourceAnswersAndIoUnchanged) {
  const auto index = dtrace::DigitalTraceIndex::Build(
      data_->store, dtrace::PresetIndexOptions(64));
  dtrace::PagedTraceSource::Options popts;
  popts.pool_fraction = 0.25;
  popts.compress = true;
  // Two identical sources, so both runs start from the same cold pool.
  dtrace::PagedTraceSource plain_source(*data_->store, popts);
  dtrace::PagedTraceSource base_source(*data_->store, popts);
  ReadSink sink;
  const TracingTraceSource traced_source(base_source, &sink);
  const TracingMeasure traced_measure(*measure_, &sink);
  dtrace::QueryOptions plain;
  plain.trace_source = &plain_source;
  plain.prefetch_depth = 4;
  dtrace::QueryOptions traced = plain;
  traced.trace_source = &traced_source;
  for (dtrace::EntityId q : {3u, 77u, 1234u, 3u}) {
    const TopKResult a = index.Query(q, 10, *measure_, plain);
    const TopKResult b = index.Query(q, 10, traced_measure, traced);
    ExpectSameResult(a, b);
    EXPECT_GT(b.stats.io.pages_read + b.stats.io.pages_hit, 0u);
    sink.Take();
  }
}

TEST_F(TracingTest, FanOutChildrenReachTheClientSink) {
  dtrace::ShardedIndexOptions sopts;
  sopts.num_shards = 4;
  sopts.index = dtrace::PresetIndexOptions(64);
  const auto sharded = dtrace::ShardedIndex::Build(data_->store, sopts);
  ReadSink sink;
  const TracingTraceSource traced_source(*data_->store, &sink);
  const TracingMeasure traced_measure(*measure_, &sink);
  dtrace::QueryOptions traced;
  traced.trace_source = &traced_source;
  for (dtrace::EntityId q : {5u, 999u}) {
    // Shard searches are independent when unrouted, so the children logged
    // by four worker threads equal those of the serial fan-out.
    const TopKResult serial =
        sharded.Query(q, 10, traced_measure, traced, /*shard_threads=*/1);
    const ChildTotals one = sink.Take();
    const TopKResult parallel =
        sharded.Query(q, 10, traced_measure, traced, /*shard_threads=*/4);
    const ChildTotals four = sink.Take();
    ExpectSameResult(serial, parallel);
    EXPECT_EQ(one.calls, four.calls);
    EXPECT_GT(four.calls[static_cast<int>(ChildKind::kBound)], 0u);
  }
}

TEST(SpanLog, AggregatesChildrenPerRead) {
  SpanLog log;
  const uint64_t id = log.Add("Query", 9, 0, 100, 250);
  ChildTotals c;
  c.calls[static_cast<int>(ChildKind::kTrace)] = 4;
  c.busy_ns[static_cast<int>(ChildKind::kTrace)] = 60;
  log.AddChildren(9, id, 100, 250, c);
  ASSERT_EQ(log.spans().size(), 2u);  // kinds never called are omitted
  EXPECT_EQ(log.spans()[0].busy_ns, 150);
  EXPECT_EQ(log.spans()[1].parent, id);
  EXPECT_EQ(log.spans()[1].request, 9u);
  EXPECT_EQ(log.spans()[1].calls, 4u);
  EXPECT_EQ(log.spans()[1].busy_ns, 60);
}

}  // namespace
}  // namespace perfbench
