// Unit tests for the deterministic top-k shard merge (MergeShardTopK):
// cross-shard score ties, k exceeding per-shard candidate counts, empty
// shards, k = 0 / k = |E| edge cases, and stats aggregation.
#include <gtest/gtest.h>

#include <vector>

#include "core/sharded_index.h"

namespace dtrace {
namespace {

TopKResult MakeShard(std::vector<ScoredEntity> items) {
  TopKResult r;
  r.items = std::move(items);
  return r;
}

void ExpectItems(const TopKResult& r,
                 const std::vector<ScoredEntity>& expected) {
  ASSERT_EQ(r.items.size(), expected.size());
  for (size_t i = 0; i < expected.size(); ++i) {
    EXPECT_EQ(r.items[i].entity, expected[i].entity) << "rank " << i;
    EXPECT_DOUBLE_EQ(r.items[i].score, expected[i].score) << "rank " << i;
  }
}

TEST(ShardMergeTest, MergesByScoreThenEntityId) {
  // Ties across shards must resolve exactly like the single-tree heap:
  // higher score first, then lower entity id — regardless of which shard
  // contributed which item or of shard order.
  const std::vector<TopKResult> shards = {
      MakeShard({{7, 0.9}, {3, 0.5}}),
      MakeShard({{1, 0.9}, {8, 0.5}, {2, 0.1}}),
  };
  const TopKResult merged = MergeShardTopK(shards, 4);
  ExpectItems(merged, {{1, 0.9}, {7, 0.9}, {3, 0.5}, {8, 0.5}});
}

TEST(ShardMergeTest, ShardOrderDoesNotMatter) {
  const std::vector<TopKResult> ab = {
      MakeShard({{4, 0.7}, {6, 0.3}}),
      MakeShard({{5, 0.7}, {2, 0.2}}),
  };
  const std::vector<TopKResult> ba = {ab[1], ab[0]};
  const TopKResult m1 = MergeShardTopK(ab, 3);
  const TopKResult m2 = MergeShardTopK(ba, 3);
  ASSERT_EQ(m1.items.size(), m2.items.size());
  for (size_t i = 0; i < m1.items.size(); ++i) {
    EXPECT_EQ(m1.items[i].entity, m2.items[i].entity);
    EXPECT_DOUBLE_EQ(m1.items[i].score, m2.items[i].score);
  }
}

TEST(ShardMergeTest, KLargerThanEveryShardKeepsEverything) {
  // Each shard holds fewer than k candidates; the union is still below k,
  // so the merge returns all of them, fully sorted (the k = |E| edge case).
  const std::vector<TopKResult> shards = {
      MakeShard({{0, 0.4}}),
      MakeShard({{1, 0.8}}),
      MakeShard({{2, 0.6}}),
  };
  const TopKResult merged = MergeShardTopK(shards, 10);
  ExpectItems(merged, {{1, 0.8}, {2, 0.6}, {0, 0.4}});
}

TEST(ShardMergeTest, TruncatesToK) {
  const std::vector<TopKResult> shards = {
      MakeShard({{0, 0.9}, {2, 0.7}}),
      MakeShard({{1, 0.8}, {3, 0.6}}),
  };
  const TopKResult merged = MergeShardTopK(shards, 2);
  ExpectItems(merged, {{0, 0.9}, {1, 0.8}});
}

TEST(ShardMergeTest, EmptyShardsContributeNothing) {
  const std::vector<TopKResult> shards = {
      MakeShard({}),
      MakeShard({{5, 0.5}}),
      MakeShard({}),
  };
  const TopKResult merged = MergeShardTopK(shards, 3);
  ExpectItems(merged, {{5, 0.5}});
}

TEST(ShardMergeTest, AllShardsEmptyYieldsEmpty) {
  const std::vector<TopKResult> shards = {MakeShard({}), MakeShard({})};
  EXPECT_TRUE(MergeShardTopK(shards, 5).items.empty());
  EXPECT_TRUE(MergeShardTopK({}, 5).items.empty());
}

TEST(ShardMergeTest, KZeroYieldsEmpty) {
  const std::vector<TopKResult> shards = {
      MakeShard({{0, 0.9}}),
      MakeShard({{1, 0.8}}),
  };
  EXPECT_TRUE(MergeShardTopK(shards, 0).items.empty());
}

TEST(ShardMergeTest, AggregatesStatsAcrossShards) {
  TopKResult a = MakeShard({{0, 0.9}});
  a.stats.nodes_visited = 3;
  a.stats.entities_checked = 10;
  a.stats.heap_pushes = 5;
  a.stats.hash_evals = 100;
  a.stats.elapsed_seconds = 0.25;
  a.stats.work_seconds = 0.2;
  a.stats.io.pages_read = 7;
  a.stats.io.pages_hit = 2;
  a.stats.io.entities_fetched = 10;
  a.stats.io.bytes_read = 4096;
  TopKResult b = MakeShard({{1, 0.8}});
  b.stats.nodes_visited = 4;
  b.stats.entities_checked = 12;
  b.stats.heap_pushes = 6;
  b.stats.hash_evals = 100;
  b.stats.elapsed_seconds = 0.5;
  b.stats.work_seconds = 0.4;
  b.stats.io.pages_read = 3;
  b.stats.io.pages_hit = 9;
  b.stats.io.entities_fetched = 12;
  b.stats.io.bytes_read = 1024;

  const std::vector<TopKResult> shards = {a, b};
  const TopKResult merged = MergeShardTopK(shards, 2);
  EXPECT_EQ(merged.stats.nodes_visited, 7u);
  EXPECT_EQ(merged.stats.entities_checked, 22u);
  EXPECT_EQ(merged.stats.heap_pushes, 11u);
  EXPECT_EQ(merged.stats.hash_evals, 200u);
  EXPECT_DOUBLE_EQ(merged.stats.elapsed_seconds, 0.75);
  // work_seconds sums independently of elapsed_seconds, so a fan-out caller
  // overwriting elapsed with wall time no longer loses the summed work.
  EXPECT_DOUBLE_EQ(merged.stats.work_seconds, 0.6);
  EXPECT_EQ(merged.stats.io.pages_read, 10u);
  EXPECT_EQ(merged.stats.io.pages_hit, 11u);
  EXPECT_EQ(merged.stats.io.entities_fetched, 22u);
  EXPECT_EQ(merged.stats.io.bytes_read, 5120u);
}

}  // namespace
}  // namespace dtrace
