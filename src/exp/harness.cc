#include "exp/harness.h"

#include <algorithm>
#include <cmath>

#include "util/check.h"
#include "util/rng.h"

namespace dtrace {

std::vector<EntityId> SampleQueries(const TraceStore& store, size_t count,
                                    uint64_t seed, uint32_t min_cells) {
  const int m = store.hierarchy().num_levels();
  std::vector<EntityId> eligible;
  for (EntityId e = 0; e < store.num_entities(); ++e) {
    if (store.cell_count(e, m) >= min_cells) eligible.push_back(e);
  }
  DT_CHECK_MSG(!eligible.empty(), "no eligible query entities");
  Rng rng(seed);
  std::vector<EntityId> out;
  out.reserve(count);
  for (size_t i = 0; i < count; ++i) {
    out.push_back(eligible[rng.NextBelow(eligible.size())]);
  }
  return out;
}

PeMeasurement AggregatePe(std::span<const TopKResult> results,
                          size_t num_entities, int k) {
  PeMeasurement agg;
  for (const TopKResult& r : results) {
    agg.mean_pe += r.stats.pruning_effectiveness(num_entities, k);
    agg.mean_entities_checked += static_cast<double>(r.stats.entities_checked);
    agg.mean_nodes_visited += static_cast<double>(r.stats.nodes_visited);
    agg.mean_query_seconds += r.stats.elapsed_seconds;
    agg.mean_pages_read += static_cast<double>(r.stats.io.pages_read);
    agg.mean_io_seconds += r.stats.io.modeled_io_seconds;
    agg.mean_tree_pages_read += static_cast<double>(r.stats.io.tree_pages_read);
    agg.mean_tree_page_hits += static_cast<double>(r.stats.io.tree_page_hits);
    agg.mean_prefetch_hits += static_cast<double>(r.stats.io.prefetch_hits);
    agg.mean_work_seconds += r.stats.work_seconds;
    agg.mean_io_retries += static_cast<double>(r.stats.io.io_retries);
    agg.mean_checksum_failures +=
        static_cast<double>(r.stats.io.checksum_failures);
    agg.mean_faults_injected +=
        static_cast<double>(r.stats.io.faults_injected);
    agg.mean_pages_quarantined +=
        static_cast<double>(r.stats.pages_quarantined);
    ++agg.num_queries;
  }
  if (agg.num_queries > 0) {
    const auto n = static_cast<double>(agg.num_queries);
    agg.mean_pe /= n;
    agg.mean_entities_checked /= n;
    agg.mean_nodes_visited /= n;
    agg.mean_query_seconds /= n;
    agg.mean_pages_read /= n;
    agg.mean_io_seconds /= n;
    agg.mean_tree_pages_read /= n;
    agg.mean_tree_page_hits /= n;
    agg.mean_prefetch_hits /= n;
    agg.mean_work_seconds /= n;
    agg.mean_io_retries /= n;
    agg.mean_checksum_failures /= n;
    agg.mean_faults_injected /= n;
    agg.mean_pages_quarantined /= n;
  }
  return agg;
}

PeMeasurement MeasurePe(const DigitalTraceIndex& index,
                        const AssociationMeasure& measure,
                        std::span<const EntityId> queries, int k,
                        const QueryOptions& options, int num_threads) {
  const std::vector<TopKResult> results =
      index.QueryMany(queries, k, measure, options, num_threads);
  return AggregatePe(results, index.tree().num_entities(), k);
}

PeMeasurement MeasurePe(const DigitalTraceIndex& index,
                        const AssociationMeasure& measure,
                        std::span<const EntityId> queries, int k) {
  return MeasurePe(index, measure, queries, k, QueryOptions{},
                   /*num_threads=*/1);
}

bool VerifyExactness(const DigitalTraceIndex& index,
                     const AssociationMeasure& measure,
                     std::span<const EntityId> queries, int k,
                     const QueryOptions& options) {
  // Exactness is only meaningful with zero slack (brute force ignores
  // epsilon anyway), so strip it from whatever options the caller reuses.
  QueryOptions exact = options;
  exact.approximation_epsilon = 0.0;
  for (EntityId q : queries) {
    const TopKResult fast = index.Query(q, k, measure, exact);
    const TopKResult slow = index.BruteForce(q, k, measure, exact);
    if (fast.items.size() != slow.items.size()) return false;
    for (size_t i = 0; i < fast.items.size(); ++i) {
      if (std::abs(fast.items[i].score - slow.items[i].score) > 1e-12) {
        return false;
      }
    }
  }
  return true;
}

bool VerifyExactness(const DigitalTraceIndex& index,
                     const AssociationMeasure& measure,
                     std::span<const EntityId> queries, int k) {
  return VerifyExactness(index, measure, queries, k, QueryOptions{});
}

}  // namespace dtrace
