// Microbenchmarks (google-benchmark): index build, signature computation,
// query latency per k, brute-force comparison, intersection primitives
// (span-based and packed), the cold-byte codec (encode/decode/packed
// galloping vs the decoded baseline), compressed trace-record decode, and
// the buffer pool's pin hit path.
#include <benchmark/benchmark.h>

#include <random>

#include "core/index.h"
#include "core/signature.h"
#include "exp/harness.h"
#include "exp/presets.h"
#include "hash/hierarchical_hasher.h"
#include "storage/buffer_pool.h"
#include "storage/paged_trace_store.h"
#include "storage/sim_disk.h"
#include "trace/trace_source.h"
#include "util/check.h"
#include "util/codec.h"

namespace dtrace {
namespace {

const Dataset& SharedDataset() {
  static const Dataset* d = new Dataset(MakeSynDataset(1000, /*seed=*/61));
  return *d;
}

const DigitalTraceIndex& SharedIndex() {
  static const DigitalTraceIndex* index = new DigitalTraceIndex(
      DigitalTraceIndex::Build(SharedDataset().store, {.num_functions = 400}));
  return *index;
}

void BM_IndexBuild(benchmark::State& state) {
  const auto& d = SharedDataset();
  const int nh = static_cast<int>(state.range(0));
  for (auto _ : state) {
    auto index = DigitalTraceIndex::Build(d.store, {.num_functions = nh});
    benchmark::DoNotOptimize(index.tree().num_nodes());
  }
  state.SetItemsProcessed(state.iterations() * d.num_entities());
}
BENCHMARK(BM_IndexBuild)->Arg(100)->Arg(400)->Unit(benchmark::kMillisecond);

void BM_SignatureCompute(benchmark::State& state) {
  const auto& d = SharedDataset();
  HierarchicalMinHasher hasher(*d.hierarchy, d.horizon,
                               static_cast<int>(state.range(0)), 1);
  SignatureComputer sigs(*d.store, hasher);
  EntityId e = 0;
  for (auto _ : state) {
    benchmark::DoNotOptimize(sigs.Compute(e % d.num_entities()));
    ++e;
  }
}
BENCHMARK(BM_SignatureCompute)->Arg(100)->Arg(1000);

void BM_TopKQuery(benchmark::State& state) {
  const auto& index = SharedIndex();
  PolynomialLevelMeasure measure(
      SharedDataset().hierarchy->num_levels());
  const auto queries = SampleQueries(*SharedDataset().store, 32, 3);
  const int k = static_cast<int>(state.range(0));
  size_t i = 0;
  for (auto _ : state) {
    benchmark::DoNotOptimize(index.Query(queries[i % queries.size()], k,
                                         measure));
    ++i;
  }
}
BENCHMARK(BM_TopKQuery)->Arg(1)->Arg(10)->Arg(50);

void BM_BruteForceQuery(benchmark::State& state) {
  const auto& index = SharedIndex();
  PolynomialLevelMeasure measure(SharedDataset().hierarchy->num_levels());
  const auto queries = SampleQueries(*SharedDataset().store, 8, 3);
  size_t i = 0;
  for (auto _ : state) {
    benchmark::DoNotOptimize(
        index.BruteForce(queries[i % queries.size()], 10, measure));
    ++i;
  }
}
BENCHMARK(BM_BruteForceQuery);

void BM_IntersectionSize(benchmark::State& state) {
  const auto& d = SharedDataset();
  const int m = d.hierarchy->num_levels();
  EntityId a = 1, b = 2;
  for (auto _ : state) {
    benchmark::DoNotOptimize(d.store->IntersectionSize(a, b, m));
    a = (a + 1) % d.num_entities();
    b = (b + 3) % d.num_entities();
  }
}
BENCHMARK(BM_IntersectionSize);

std::vector<uint32_t> BenchIds(size_t n, uint32_t max_gap, uint32_t seed) {
  std::mt19937 rng(seed);
  std::vector<uint32_t> ids;
  ids.reserve(n);
  uint32_t v = 0;
  for (size_t i = 0; i < n; ++i) {
    ids.push_back(v);
    v += 1 + rng() % max_gap;
  }
  return ids;
}

void BM_IdListEncode(benchmark::State& state) {
  const auto ids = BenchIds(static_cast<size_t>(state.range(0)), 30, 7);
  std::vector<uint8_t> enc;
  for (auto _ : state) {
    enc.clear();
    benchmark::DoNotOptimize(EncodeIdList(ids, &enc));
  }
  state.SetItemsProcessed(state.iterations() * ids.size());
}
BENCHMARK(BM_IdListEncode)->Arg(128)->Arg(4096);

void BM_IdListDecode(benchmark::State& state) {
  const auto ids = BenchIds(static_cast<size_t>(state.range(0)), 30, 7);
  std::vector<uint8_t> enc;
  EncodeIdList(ids, &enc);
  std::vector<uint32_t> dec;
  for (auto _ : state) {
    benchmark::DoNotOptimize(DecodeIdList(enc.data(), enc.size(), &dec));
  }
  state.SetItemsProcessed(state.iterations() * ids.size());
}
BENCHMARK(BM_IdListDecode)->Arg(128)->Arg(4096);

// The packed galloping intersection against its decoded-span baseline: the
// packed variant must win whenever the probe side is sparse enough that
// whole blocks are skipped undecoded.
void BM_IntersectSpans(benchmark::State& state) {
  const auto a = BenchIds(4096, 30, 7);
  const auto b = BenchIds(static_cast<size_t>(state.range(0)), 500, 11);
  for (auto _ : state) {
    benchmark::DoNotOptimize(
        IntersectSortedSize({a.data(), a.size()}, {b.data(), b.size()}));
  }
}
BENCHMARK(BM_IntersectSpans)->Arg(64)->Arg(1024);

// One compressed trace record read as the paged cursor reads it: decode and
// range-check the base-level blob, then derive every coarse level from it.
// Iterations cycle through 64 SYN records already copied out of the pool.
void BM_TraceRecordDecode(benchmark::State& state) {
  const TraceStore& store = *SharedDataset().store;
  SimDisk disk;
  const PagedTraceStore paged(store, &disk, /*compress=*/true);
  BufferPool pool(&disk, paged.num_pages());
  std::vector<std::vector<uint8_t>> records(64);
  for (EntityId e = 0; e < records.size(); ++e) {
    if (!paged.ReadEntityPacked(&pool, e, &records[e]).ok()) {
      state.SkipWithError("record read failed");
      return;
    }
  }
  const int m = store.hierarchy().num_levels();
  std::vector<std::vector<CellId>> levels(m);
  size_t next = 0;
  for (auto _ : state) {
    const auto& record = records[next++ % records.size()];
    benchmark::DoNotOptimize(paged.DecodeBase(record, &levels[m - 1]).ok());
    for (Level l = 1; l < m; ++l) {
      paged.DeriveLevel(levels[m - 1], l, &levels[l - 1]);
    }
    benchmark::DoNotOptimize(levels[0].data());
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_TraceRecordDecode);

void BM_IncrementalInsert(benchmark::State& state) {
  const auto& d = SharedDataset();
  std::vector<EntityId> most;
  for (EntityId e = 100; e < d.num_entities(); ++e) most.push_back(e);
  auto index =
      DigitalTraceIndex::Build(d.store, {.num_functions = 400}, most);
  EntityId e = 0;
  for (auto _ : state) {
    index.InsertEntity(e % 100);
    state.PauseTiming();
    index.RemoveEntity(e % 100);
    state.ResumeTiming();
    ++e;
  }
}
BENCHMARK(BM_IncrementalInsert);

// The pin hit path: Pin + Unpin of resident pages, the per-node and
// per-record cost of every paged read. Threads share one pool and one hot
// set (64 pages over the default 16 shards), as concurrent readers of one
// index do, so the multi-thread rows price contention on the hit path.
void BM_PoolPinHit(benchmark::State& state) {
  constexpr PageId kHotPages = 64;
  static SimDisk* disk = [] {
    auto* d = new SimDisk();
    for (PageId i = 0; i < kHotPages; ++i) d->Allocate();
    return d;
  }();
  static BufferPool* pool = [] {
    auto* p = new BufferPool(disk, 4 * kHotPages, /*num_shards=*/0);
    for (PageId id = 0; id < kHotPages; ++id) {
      const uint8_t* data = nullptr;
      DT_CHECK(p->Pin(id, &data).ok());
      p->Unpin(id);
    }
    return p;
  }();
  PageId id = static_cast<PageId>(state.thread_index()) * 7;
  for (auto _ : state) {
    const uint8_t* data = nullptr;
    if (!pool->Pin(id % kHotPages, &data).ok()) {
      state.SkipWithError("pin of a resident page failed");
      break;
    }
    benchmark::DoNotOptimize(data[0]);
    pool->Unpin(id % kHotPages);
    ++id;
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_PoolPinHit)->Threads(1)->Threads(4)->UseRealTime();

}  // namespace
}  // namespace dtrace

BENCHMARK_MAIN();
