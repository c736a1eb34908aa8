#include "core/sharded_index.h"

#include <algorithm>
#include <numeric>
#include <utility>

#include "storage/external_sort.h"
#include "storage/sim_disk.h"
#include "util/check.h"
#include "util/parallel.h"
#include "util/timer.h"

namespace dtrace {

uint32_t ShardOfEntity(EntityId e, uint32_t num_shards) {
  DT_CHECK_MSG(num_shards >= 1, "num_shards must be >= 1");
  // splitmix64 finalizer: full-avalanche, so consecutive dense ids spread
  // evenly over shards instead of striping.
  uint64_t x = static_cast<uint64_t>(e) + 0x9E3779B97F4A7C15ull;
  x = (x ^ (x >> 30)) * 0xBF58476D1CE4E5B9ull;
  x = (x ^ (x >> 27)) * 0x94D049BB133111EBull;
  x ^= x >> 31;
  return static_cast<uint32_t>(x % num_shards);
}

TopKResult MergeShardTopK(std::span<const TopKResult> shard_results, int k) {
  DT_CHECK_MSG(k >= 0, "k must be >= 0");
  TopKResult merged;
  size_t total = 0;
  for (const TopKResult& r : shard_results) {
    total += r.items.size();
    merged.stats.nodes_visited += r.stats.nodes_visited;
    merged.stats.entities_checked += r.stats.entities_checked;
    merged.stats.heap_pushes += r.stats.heap_pushes;
    merged.stats.hash_evals += r.stats.hash_evals;
    merged.stats.pages_quarantined += r.stats.pages_quarantined;
    merged.stats.elapsed_seconds += r.stats.elapsed_seconds;
    merged.stats.work_seconds += r.stats.work_seconds;
    merged.stats.io.Add(r.stats.io);
    // First failing shard wins (shard order is deterministic); a merge over
    // any failed shard is itself failed — its candidate set is incomplete.
    merged.status.Update(r.status);
  }
  if (!merged.status.ok()) {
    // Same contract as TopKResult::status: an errored merge carries EMPTY
    // items, never a ranking missing a shard's candidates.
    return merged;
  }
  merged.items.reserve(total);
  for (const TopKResult& r : shard_results) {
    merged.items.insert(merged.items.end(), r.items.begin(), r.items.end());
  }
  // The single-tree result order: score descending, entity id ascending.
  // Ids are unique across shards (shards partition the entity space), so
  // this order is total and the merge is deterministic for any shard count.
  std::sort(merged.items.begin(), merged.items.end(),
            [](const ScoredEntity& a, const ScoredEntity& b) {
              if (a.score != b.score) return a.score > b.score;
              return a.entity < b.entity;
            });
  if (merged.items.size() > static_cast<size_t>(k)) merged.items.resize(k);
  return merged;
}

ShardedIndex ShardedIndex::Build(std::shared_ptr<TraceStore> store,
                                 ShardedIndexOptions options,
                                 std::optional<std::vector<EntityId>> entities) {
  DT_CHECK(store != nullptr);
  DT_CHECK_MSG(options.num_shards >= 1, "num_shards must be >= 1");
  Timer timer;
  const auto num_shards = static_cast<uint32_t>(options.num_shards);
  std::vector<EntityId> ids;
  if (entities.has_value()) {
    ids = std::move(*entities);
  } else {
    ids.resize(store->num_entities());
    std::iota(ids.begin(), ids.end(), 0);
  }

  ShardedIndex sharded(store, options);
  sharded.shards_.resize(num_shards);
  sharded.shard_sources_.assign(num_shards, nullptr);

  if (options.stream_build) {
    // Streamed construction: sort (shard, position) runs through the
    // external merge sort, so runs arrive grouped by shard with the input
    // order preserved inside each shard — the same per-shard sequences the
    // in-memory partition below produces. Each shard is built the moment
    // its run completes, so only one shard's id list is ever materialized.
    struct ShardRun {
      uint32_t shard;
      uint32_t pos;  // original position: preserves input order per shard
      EntityId entity;
    };
    struct ShardRunLess {
      bool operator()(const ShardRun& a, const ShardRun& b) const {
        if (a.shard != b.shard) return a.shard < b.shard;
        return a.pos < b.pos;
      }
    };
    std::vector<ShardRun> runs;
    runs.reserve(ids.size());
    for (size_t pos = 0; pos < ids.size(); ++pos) {
      runs.push_back({ShardOfEntity(ids[pos], num_shards),
                      static_cast<uint32_t>(pos), ids[pos]});
    }
    ids.clear();
    ids.shrink_to_fit();
    SimDisk sort_disk;
    ExternalSorter<ShardRun, ShardRunLess> sorter(&sort_disk,
                                                  options.stream_buffer_pages);
    std::vector<EntityId> shard_ids;
    uint32_t next_shard = 0;
    const auto build_shard = [&](uint32_t s, std::vector<EntityId> members) {
      sharded.shards_[s] = std::make_unique<DigitalTraceIndex>(
          DigitalTraceIndex::Build(store, options.index, std::move(members)));
    };
    sorter.SortInto(runs, [&](const ShardRun& r) {
      while (next_shard < r.shard) {
        build_shard(next_shard++, std::move(shard_ids));
        shard_ids = {};
      }
      shard_ids.push_back(r.entity);
    });
    while (next_shard < num_shards) {
      build_shard(next_shard++, std::move(shard_ids));
      shard_ids = {};
    }
  } else {
    std::vector<std::vector<EntityId>> parts(num_shards);
    for (EntityId e : ids) {
      parts[ShardOfEntity(e, num_shards)].push_back(e);
    }
    // Shard-parallel build. When shards build concurrently, each shard's
    // inner signature loop stays serial (shard-level parallelism replaces
    // entity-level); the per-shard build is deterministic across thread
    // counts, so either layout yields the same shards.
    const int workers = std::min<int>(ResolveThreadCount(options.build_threads),
                                      options.num_shards);
    IndexOptions shard_opts = options.index;
    if (workers > 1) shard_opts.num_threads = 1;
    ParallelForEach(workers, num_shards, [&](size_t s) {
      sharded.shards_[s] = std::make_unique<DigitalTraceIndex>(
          DigitalTraceIndex::Build(store, shard_opts, std::move(parts[s])));
    });
  }
  sharded.build_seconds_ = timer.ElapsedSeconds();
  return sharded;
}

TopKResult ShardedIndex::RoutedQuery(EntityId q, int k,
                                     const AssociationMeasure& measure,
                                     const QueryOptions& options) const {
  const size_t num_shards = shards_.size();
  const TraceSource* default_source =
      options.trace_source != nullptr ? options.trace_source : store_.get();
  DT_CHECK_MSG(default_source->num_entities() == store_->num_entities(),
               "trace_source describes a different dataset");

  // Search the whole forest as ONE best-first expansion (core/query.h
  // ForestTopKQuery) — a single frontier over every shard tree, one global
  // heap. This prunes exactly like the big single tree (late lanes never
  // re-check candidates the global k-th already beats), builds the
  // per-query filtering state once instead of once per shard, and keeps
  // result AND counter/io accounting fully deterministic.
  std::vector<DigitalTraceIndex::ReadPin> pins;
  pins.reserve(num_shards);
  std::vector<SearchLane> lanes(num_shards);
  for (size_t s = 0; s < num_shards; ++s) {
    pins.push_back(shards_[s]->PinForRead());
    // The lane reads candidate traces as of its own pin's version, so a
    // ReplaceEntity committing into one shard mid-walk cannot leak its new
    // trace into a lane pinned before it.
    lanes[s] = {&pins[s].tree(),
                shard_sources_[s] != nullptr ? shard_sources_[s]
                                             : default_source,
                pins[s].version()};
  }
  return ForestTopKQuery(lanes, *default_source, shards_[0]->hasher(),
                         measure, q, k, options);
}

TopKResult ShardedIndex::Query(EntityId q, int k,
                               const AssociationMeasure& measure,
                               const QueryOptions& options,
                               int shard_threads) const {
  // No settle step: paged snapshots are packed and published on the writer
  // side at commit time (DigitalTraceIndex::CommitMutation), so the query
  // path is read-only and safe against concurrent maintenance.
  Timer timer;
  TopKResult merged;
  if (options.cross_shard_routing && options.approximation_epsilon == 0.0) {
    merged = RoutedQuery(q, k, measure, options);
  } else {
    std::vector<TopKResult> per_shard(shards_.size());
    ParallelForEach(shard_threads, shards_.size(), [&](size_t s) {
      QueryOptions shard_options = options;
      if (shard_sources_[s] != nullptr) {
        shard_options.trace_source = shard_sources_[s];
      }
      per_shard[s] = shards_[s]->Query(q, k, measure, shard_options);
    });
    merged = MergeShardTopK(per_shard, k);
  }
  // Fan-out wall time; the summed per-shard work stays in work_seconds.
  merged.stats.elapsed_seconds = timer.ElapsedSeconds();
  return merged;
}

std::vector<TopKResult> ShardedIndex::QueryMany(
    std::span<const EntityId> queries, int k, const AssociationMeasure& measure,
    const QueryOptions& options, int num_threads) const {
  const size_t num_shards = shards_.size();
  std::vector<TopKResult> results(queries.size());
  if (options.cross_shard_routing && options.approximation_epsilon == 0.0) {
    // Routed batches parallelize across queries only: each query is one
    // serial forest walk, so every per-query result AND its counter/io
    // totals are deterministic for any thread count.
    ParallelForEach(num_threads, queries.size(), [&](size_t i) {
      results[i] = RoutedQuery(queries[i], k, measure, options);
    });
    return results;
  }
  // Flattened (query, shard) grid: every cell is an independent exact
  // per-shard query into its own slot, so any thread count fills the same
  // grid and the per-query merges see identical inputs.
  std::vector<TopKResult> grid(queries.size() * num_shards);
  ParallelForEach(num_threads, grid.size(), [&](size_t cell) {
    const size_t i = cell / num_shards;
    const size_t s = cell % num_shards;
    QueryOptions shard_options = options;
    if (shard_sources_[s] != nullptr) {
      shard_options.trace_source = shard_sources_[s];
    }
    grid[cell] = shards_[s]->Query(queries[i], k, measure, shard_options);
  });
  for (size_t i = 0; i < queries.size(); ++i) {
    results[i] = MergeShardTopK(
        {grid.data() + i * num_shards, num_shards}, k);
  }
  return results;
}

void ShardedIndex::InsertEntity(EntityId e) {
  shards_[ShardOf(e)]->InsertEntity(e);
}

void ShardedIndex::InsertEntities(std::span<const EntityId> entities) {
  std::vector<std::vector<EntityId>> parts(shards_.size());
  for (EntityId e : entities) {
    parts[ShardOf(e)].push_back(e);
  }
  for (size_t s = 0; s < shards_.size(); ++s) {
    if (!parts[s].empty()) shards_[s]->InsertEntities(parts[s]);
  }
}

void ShardedIndex::UpdateEntity(EntityId e) {
  shards_[ShardOf(e)]->UpdateEntity(e);
}

void ShardedIndex::ReplaceEntity(EntityId e,
                                 const std::vector<PresenceRecord>& records) {
  shards_[ShardOf(e)]->ReplaceEntity(e, records);
}

void ShardedIndex::RemoveEntity(EntityId e) {
  shards_[ShardOf(e)]->RemoveEntity(e);
}

void ShardedIndex::Refresh() {
  for (auto& shard : shards_) shard->Refresh();
}

void ShardedIndex::EnablePagedTrees(const PagedTreeOptions& options) {
  for (auto& shard : shards_) shard->EnablePagedTree(options);
}

void ShardedIndex::DisablePagedTrees() {
  for (auto& shard : shards_) shard->DisablePagedTree();
}

void ShardedIndex::AttachShardSource(int s, const TraceSource* source) {
  DT_CHECK(s >= 0 && s < num_shards());
  if (source != nullptr) {
    DT_CHECK_MSG(source->num_entities() == store_->num_entities(),
                 "shard source describes a different dataset");
  }
  shard_sources_[s] = source;
}

DigitalTraceIndex::ConcurrencyStats ShardedIndex::concurrency_stats() const {
  DigitalTraceIndex::ConcurrencyStats total;
  for (const auto& shard : shards_) {
    const auto s = shard->concurrency_stats();
    total.snapshot_publishes += s.snapshot_publishes;
    total.reader_blocked_ns += s.reader_blocked_ns;
    total.writer_blocked_ns += s.writer_blocked_ns;
  }
  return total;
}

size_t ShardedIndex::num_entities() const {
  size_t n = 0;
  for (const auto& shard : shards_) n += shard->tree().num_entities();
  return n;
}

uint64_t ShardedIndex::IndexMemoryBytes() const {
  uint64_t bytes = 0;
  for (const auto& shard : shards_) bytes += shard->IndexMemoryBytes();
  return bytes;
}

}  // namespace dtrace
