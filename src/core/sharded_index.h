#ifndef DTRACE_CORE_SHARDED_INDEX_H_
#define DTRACE_CORE_SHARDED_INDEX_H_

#include <cstdint>
#include <memory>
#include <optional>
#include <span>
#include <vector>

#include "core/index.h"
#include "core/query.h"
#include "trace/trace_store.h"
#include "trace/types.h"
#include "util/status.h"

namespace dtrace {

struct LoadedShardedIndex;  // below

/// Stable shard assignment: a splitmix64 finalizer over the 64-bit-widened
/// entity id, reduced mod `num_shards`. A pure function of (entity id,
/// num_shards) — independent of thread counts, insertion order, build mode
/// (streamed or not), and process state — so the shard map never silently
/// drifts between runs or replicas. shard_map_test pins sample values.
uint32_t ShardOfEntity(EntityId e, uint32_t num_shards);

/// Deterministic top-k merge of per-shard query results: items from every
/// shard are ranked by (score descending, entity id ascending) — exactly
/// the single-tree TopKHeap order, so ties across shards resolve the same
/// way they would inside one tree — and truncated to k (k = 0 yields an
/// empty result; k beyond the union keeps everything). Shards partition the
/// entity space, so ids never collide across inputs and the merge needs no
/// deduplication. Counter stats (nodes_visited, entities_checked,
/// heap_pushes, hash_evals, pages_quarantined), work_seconds, and
/// TraceIoStats sum across shards.
/// elapsed_seconds also sums, but callers measuring the wall time of a
/// parallel fan-out overwrite it — the summed per-shard work stays
/// available in work_seconds.
TopKResult MergeShardTopK(std::span<const TopKResult> shard_results, int k);

/// Construction knobs for a ShardedIndex.
struct ShardedIndexOptions {
  /// Number of shards (>= 1). Each shard owns a full DigitalTraceIndex
  /// (hash family + MinSigTree) over its entity partition.
  int num_shards = 4;
  /// Per-shard index configuration. Every shard uses the same hash-family
  /// seed, so per-candidate scores are bit-identical to a single-shard
  /// build over the same population.
  IndexOptions index;
  /// Worker threads for the shard-parallel build phase (0 = auto,
  /// 1 = serial shard loop). When more than one shard builds concurrently,
  /// each shard's inner signature loop runs serially instead of spawning
  /// its own workers (shard-level parallelism replaces entity-level); the
  /// resulting shards are identical either way.
  int build_threads = 0;
  /// Streamed construction: partition entity ids into shard runs through
  /// the external-merge-sort (storage/external_sort.h) instead of
  /// materializing every shard's id list at once. The sorter's input is
  /// one flat (shard, pos, entity) record per id; past that, runs arrive
  /// in shard order, so at most one shard's id list (plus
  /// `stream_buffer_pages` pages of sort buffers) is materialized at a
  /// time and each shard is built as its run completes. Produces
  /// bit-identical shards to the default path.
  bool stream_build = false;
  /// In-memory page budget of the streamed-construction sorter (>= 3).
  size_t stream_buffer_pages = 64;
};

/// Scale-out layer over DigitalTraceIndex (ROADMAP: toward the paper's
/// 100M-entity regime): entities are partitioned by ShardOfEntity into
/// `num_shards` shards, each owning its own MinSigTree, and queries fan out
/// over shards in parallel with a deterministic MergeShardTopK at the end —
/// bit-identical to the single-shard answer, because per-shard search is
/// exact and the merge reproduces the single-tree tie order.
///
/// Storage: all shards read the store the index was built over, or —
/// exactly like DigitalTraceIndex — whatever `QueryOptions::trace_source`
/// points at (e.g. one PagedTraceSource whose sharded BufferPool is shared
/// by every shard's cursors). AttachShardSource instead gives a shard its
/// own private source (per-shard buffer pool / device), which later
/// scale-out work maps to per-worker storage.
///
/// The whole DigitalTraceIndex maintenance API routes through the shard
/// map: InsertEntity/InsertEntities, UpdateEntity, RemoveEntity, Refresh.
/// QueryStats of a merged result aggregate across shards (counters and io
/// sum; hash_evals grows with the shard count since every shard hashes the
/// query's cells against its own tree — the fan-out cost of sharding).
///
/// Cross-shard forest walk (QueryOptions::cross_shard_routing): a routed
/// query searches every shard tree as one best-first forest walk
/// (ForestTopKQuery): every shard's root enters one shared frontier and
/// one global heap certifies the k-th score, so late shards terminate with
/// the pruning power of the big single tree. Results stay bit-identical to
/// the unrouted fan-out and the single-tree oracle (the strict-tie
/// canonicalization in core/query.cc is what makes this safe); only the
/// work counters shrink. The identity argument needs exact search, so
/// routing is ignored when QueryOptions::approximation_epsilon > 0.
///
/// Concurrency (DESIGN-sharding.md "Concurrency model"): queries may run
/// concurrently with maintenance. Each shard carries its own
/// DigitalTraceIndex reader/writer coordination, so a writer committing
/// into one shard never stalls the fan-out into the others; every query
/// path reads through per-shard ReadPins (taken inside the per-shard Query,
/// or explicitly for the forest walk). ReplaceEntity (trace mutation)
/// commits the owning shard's {store override, tree update} as one unit,
/// and readers score traces as of their per-shard pin versions
/// (SearchLane::as_of), so no query ever mixes a shard's old tree with its
/// new trace or vice versa. (The query entity's own trace is read
/// at latest — its version stamps are shard-local, and a caller replacing
/// the very entity it queries concurrently gets one side or the other of
/// the replacement, both self-consistent.)
class ShardedIndex {
 public:
  /// Builds shards over every entity in the store, or over `entities` when
  /// given. Partition order is input order, so the per-shard entity
  /// sequences — hence the shard trees — are identical for every
  /// build_threads value and for both build modes.
  static ShardedIndex Build(
      std::shared_ptr<TraceStore> store, ShardedIndexOptions options = {},
      std::optional<std::vector<EntityId>> entities = std::nullopt);

  /// Exact top-k: per-shard exact queries on `shard_threads` workers
  /// (0 = auto, 1 = serial), merged with MergeShardTopK. Bit-identical to
  /// the single-shard DigitalTraceIndex answer for any shard count and any
  /// thread count. stats.elapsed_seconds is the fan-out wall time
  /// (work_seconds keeps the summed per-shard work). With
  /// options.cross_shard_routing the query is instead one serial forest walk
  /// over every shard (shard_threads is ignored): identical items, fewer
  /// entities checked, and results, counters and io that are deterministic
  /// for any shard_threads.
  TopKResult Query(EntityId q, int k, const AssociationMeasure& measure,
                   const QueryOptions& options = {},
                   int shard_threads = 0) const;

  /// Batch queries on `num_threads` workers (0 = auto): the (query, shard)
  /// grid is flattened so workers stay busy even when queries and shards
  /// are both few. results[i] is bit-identical to Query(queries[i], ...)
  /// for every thread count; its elapsed_seconds is summed per-shard work
  /// (= work_seconds), not wall time. With options.cross_shard_routing each
  /// query is instead one forest walk, exactly as Query runs it — queries
  /// stay the unit of parallelism, so results AND per-query counter/io
  /// totals are deterministic across thread counts.
  std::vector<TopKResult> QueryMany(std::span<const EntityId> queries, int k,
                                    const AssociationMeasure& measure,
                                    const QueryOptions& options = {},
                                    int num_threads = 0) const;

  /// Routes to the owning shard (trace must already be in the store).
  void InsertEntity(EntityId e);

  /// Batch insert: entities are grouped per shard in input order, then each
  /// shard's batch is applied through its InsertEntities — identical to
  /// per-entity InsertEntity calls in input order.
  void InsertEntities(std::span<const EntityId> entities);

  /// Re-indexes an entity after TraceStore::ReplaceEntity, in its shard.
  void UpdateEntity(EntityId e);

  /// Replaces entity `e`'s trace AND re-indexes it in its owning shard as
  /// one atomic per-shard commit (DigitalTraceIndex::ReplaceEntity). Safe
  /// to call concurrently with queries.
  void ReplaceEntity(EntityId e, const std::vector<PresenceRecord>& records);

  /// Removes an entity from its shard's tree.
  void RemoveEntity(EntityId e);

  /// Restores tight node values in every shard after updates/removals.
  void Refresh();

  /// Switches every shard onto a paged tree snapshot (each shard's
  /// DigitalTraceIndex::EnablePagedTree with the same options — private
  /// page store per shard unless `options` names a shared disk/pool).
  /// Results stay bit-identical for all query paths, routed or not; merged
  /// QueryStats gain the summed tree-page I/O.
  void EnablePagedTrees(const PagedTreeOptions& options = {});
  /// Back to in-memory trees in every shard.
  void DisablePagedTrees();

  /// Evaluate shard `s`'s queries against `source` instead of the store /
  /// QueryOptions::trace_source (null restores the default). The source
  /// must describe the same logical dataset as the store and outlive this
  /// index. This is the per-shard-pool configuration: each shard can own a
  /// private PagedTraceSource while answers stay bit-identical.
  void AttachShardSource(int s, const TraceSource* source);

  int num_shards() const { return static_cast<int>(shards_.size()); }
  int ShardOf(EntityId e) const {
    return static_cast<int>(
        ShardOfEntity(e, static_cast<uint32_t>(shards_.size())));
  }
  const DigitalTraceIndex& shard(int s) const { return *shards_[s]; }
  const TraceStore& store() const { return *store_; }
  const ShardedIndexOptions& options() const { return options_; }

  /// Reader/writer coordination counters summed across shards (see
  /// bench_scalability --writer-threads).
  DigitalTraceIndex::ConcurrencyStats concurrency_stats() const;

  /// Serializes every shard — shared config/hierarchy sections plus
  /// per-shard trace partitions (by ShardOfEntity) and tree sections — as
  /// one crash-atomic snapshot commit (storage/snapshot.h). Each shard's
  /// trace+tree pair is captured under that shard's read latch, so every
  /// shard section is internally consistent (the same per-shard version
  /// vector queries already run against).
  Status SaveSnapshot(SnapshotEnv* env, bool compress = false) const;

  /// Restores the newest fully-valid sharded snapshot in `env` — bit
  /// identical shard trees, traces, and hash families, with
  /// fresh per-shard concurrency state. kCorruption when no valid snapshot
  /// exists or the newest valid one is a single-index snapshot.
  static Status LoadSnapshot(const SnapshotEnv& env, LoadedShardedIndex* out);

  /// Entities indexed across all shards.
  size_t num_entities() const;
  /// Sum of shard tree sizes.
  uint64_t IndexMemoryBytes() const;
  /// Wall seconds of Build (partitioning + every shard's build).
  double build_seconds() const { return build_seconds_; }

 private:
  ShardedIndex(std::shared_ptr<TraceStore> store, ShardedIndexOptions options)
      : store_(std::move(store)), options_(options) {}

  /// The routed query behind Query/QueryMany when
  /// options.cross_shard_routing is set: pins every shard and runs one
  /// ForestTopKQuery over them.
  TopKResult RoutedQuery(EntityId q, int k, const AssociationMeasure& measure,
                         const QueryOptions& options) const;

  std::shared_ptr<TraceStore> store_;
  ShardedIndexOptions options_;
  std::vector<std::unique_ptr<DigitalTraceIndex>> shards_;
  std::vector<const TraceSource*> shard_sources_;  // null = default source
  double build_seconds_ = 0.0;
};

/// Everything ShardedIndex::LoadSnapshot restores; the hierarchy is owned
/// here because the store and every shard's hasher point into it.
struct LoadedShardedIndex {
  std::unique_ptr<SpatialHierarchy> hierarchy;
  std::shared_ptr<TraceStore> store;
  std::unique_ptr<ShardedIndex> index;
};

}  // namespace dtrace

#endif  // DTRACE_CORE_SHARDED_INDEX_H_
