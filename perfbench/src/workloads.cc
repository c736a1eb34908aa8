#include "workloads.h"

#include <algorithm>
#include <array>
#include <atomic>
#include <bit>
#include <cstdio>
#include <cstdlib>
#include <functional>
#include <memory>
#include <optional>
#include <string>
#include <thread>

#include "core/index.h"
#include "core/sharded_index.h"
#include "exp/presets.h"
#include "harness.h"
#include "storage/paged_trace_source.h"
#include "storage/snapshot.h"
#include "tracing.h"

namespace perfbench {
namespace {

using dtrace::AssociationMeasure;
using dtrace::DigitalTraceIndex;
using dtrace::EntityId;
using dtrace::QueryOptions;
using dtrace::QueryStats;
using dtrace::ScoredEntity;
using dtrace::TopKResult;

// The SYN preset at the scale every workload shares.
constexpr uint32_t kEntities = 20000;
constexpr int kNumFunctions = 200;
constexpr int kTopK = 10;
// Distinct query entities sampled per run; the stream draws from them with
// repetition, and every one has a brute-force answer computed up front.
constexpr size_t kPoolSize = 512;
// The settled index after hot-read's write phase is re-checked on this
// many pool entries.
constexpr size_t kSettleChecks = 64;
// Timed setups per run, after one untimed warm-up; setup_s is their median.
// A setup repeats at least kSetupRepeats times and until the timed setups
// add up to kSetupSeconds, so a fast one (LoadSnapshot, ~20 ms) still takes
// its median over many samples.
constexpr int kSetupRepeats = 9;
constexpr int kSetupMaxRepeats = 101;
constexpr double kSetupSeconds = 1.5;
constexpr int kClients = 4;
// cold-read's closed-loop readers. Each read fans out over the 4 shards on
// 4 threads, each with a prefetch thread beside it, so one reader already
// runs a thread per CPU of a 4-CPU host; four readers would run 32 threads
// and the read tail would measure the scheduler.
constexpr int kColdReadClients = 1;
// The write phase of hot-read's traced run: the writer's rate and the
// closed-loop readers beside it. Each write drains the readers' read latch
// holds (~25 ms each), so the writer saturates near 40 writes/s; at 10/s it
// keeps its schedule and every read still risks a drain. Two readers leave
// CPUs spare, so the writer and a descheduled latch holder are not queued
// behind busy readers.
constexpr double kWriteRate = 10.0;
constexpr int kWriteReaders = 2;
constexpr double kWarmupSeconds = 1.0;
// How long operations may still run after a window closes before the run
// is declared stuck.
constexpr double kDeadlineSeconds = 30.0;
constexpr int kShards = 4;
constexpr double kPoolFraction = 0.25;
constexpr int kPrefetchDepth = 4;

// The benchmark's own generator (splitmix64), so its inputs depend only on
// --seed and not on library utilities.
class Stream {
 public:
  explicit Stream(uint64_t seed) : state_(seed) {}
  uint64_t Next() {
    uint64_t z = (state_ += 0x9e3779b97f4a7c15ULL);
    z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
    z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
    return z ^ (z >> 31);
  }
  uint32_t Below(size_t n) { return static_cast<uint32_t>(Next() % n); }

 private:
  uint64_t state_;
};

uint64_t SubSeed(uint64_t seed, uint64_t stream) {
  return Stream(seed * 0x100000001b3ULL + stream).Next();
}

double Ms(int64_t ns) { return static_cast<double>(ns) / 1e6; }

[[noreturn]] void Fatal(const std::string& what) {
  std::fprintf(stderr, "perfbench: %s\n", what.c_str());
  std::fflush(stderr);
  std::exit(1);
}

// A load window that missed its deadline cannot be joined: report the
// stuck workload with its outstanding operations counted as failed, then
// end the process.
[[noreturn]] void ReportStuck(const std::string& workload, const char* phase,
                              const LoadRun& run) {
  std::printf("STUCK: workload %s, %s: %llu operation(s) outstanding %.0f s "
              "after the window closed\n",
              workload.c_str(), phase,
              static_cast<unsigned long long>(run.outstanding()),
              kDeadlineSeconds);
  std::printf("{\"correct\": false, \"attempted\": %llu, \"failed\": %llu, "
              "\"metrics\": {}}\n",
              static_cast<unsigned long long>(run.attempted()),
              static_cast<unsigned long long>(run.failed()));
  std::fflush(stdout);
  std::_Exit(3);
}

bool SameItems(const std::vector<ScoredEntity>& got,
               const std::vector<ScoredEntity>& want) {
  if (got.size() != want.size()) return false;
  for (size_t i = 0; i < got.size(); ++i) {
    if (got[i].entity != want[i].entity ||
        std::bit_cast<uint64_t>(got[i].score) !=
            std::bit_cast<uint64_t>(want[i].score)) {
      return false;
    }
  }
  return true;
}

void AddStats(QueryStats& a, const QueryStats& b) {
  a.nodes_visited += b.nodes_visited;
  a.entities_checked += b.entities_checked;
  a.heap_pushes += b.heap_pushes;
  a.hash_evals += b.hash_evals;
  a.shards_pruned += b.shards_pruned;
  a.router_bound_evals += b.router_bound_evals;
  a.threshold_updates += b.threshold_updates;
  a.pages_quarantined += b.pages_quarantined;
  a.elapsed_seconds += b.elapsed_seconds;
  a.work_seconds += b.work_seconds;
  a.io.Add(b.io);
}

// The generated inputs of one run: dataset, query pool, and the exact
// answer to every pool query.
struct Inputs {
  dtrace::Dataset data;
  std::unique_ptr<dtrace::PolynomialLevelMeasure> measure;
  std::vector<EntityId> pool;
  std::vector<std::vector<ScoredEntity>> oracle;
  std::vector<double> scan_ms;  // BruteForce time per pool query
  Clock::time_point ready;      // when the inputs were complete
};

// Runs `work(i)` for i in [0, n) on kClients threads under the deadline.
void RunFixedWork(const std::string& workload, const char* phase, size_t n,
                  const std::function<bool(size_t)>& work, uint64_t* attempted,
                  uint64_t* failed) {
  std::atomic<size_t> next{0};
  std::vector<LoadRun::Body> bodies;
  for (int c = 0; c < kClients; ++c) {
    bodies.push_back([&](Client& client) {
      for (size_t i = next.fetch_add(1); i < n; i = next.fetch_add(1)) {
        client.Attempt([&] { return work(i); });
      }
    });
  }
  LoadRun run(std::move(bodies));
  // Fixed work has no window: the deadline alone bounds it.
  if (!run.Run(std::chrono::duration<double>(0.0),
               std::chrono::duration<double>(kDeadlineSeconds * 4))) {
    ReportStuck(workload, phase, run);
  }
  if (attempted != nullptr) *attempted += run.attempted();
  if (failed != nullptr) *failed += run.failed();
}

// Samples the query pool and answers it by linear scan over `oracle_index`
// (untimed with respect to every reported latency; each scan's own time is
// kept as query.scan_ms).
Inputs PrepareInputs(const std::string& workload, uint64_t seed,
                     dtrace::Dataset data,
                     const DigitalTraceIndex& oracle_index) {
  Inputs in;
  in.data = std::move(data);
  in.measure = std::make_unique<dtrace::PolynomialLevelMeasure>(
      in.data.hierarchy->num_levels());
  // Floyd's algorithm: kPoolSize distinct ids, in a seed-determined order.
  Stream rng(SubSeed(seed, 1));
  std::vector<char> taken(kEntities, 0);
  for (uint32_t j = kEntities - kPoolSize; j < kEntities; ++j) {
    uint32_t t = rng.Below(j + 1);
    if (taken[t]) t = j;
    taken[t] = 1;
    in.pool.push_back(t);
  }
  in.oracle.resize(kPoolSize);
  in.scan_ms.resize(kPoolSize);
  uint64_t failed = 0;
  RunFixedWork(
      workload, "oracle", kPoolSize,
      [&](size_t i) {
        const int64_t t0 = NowNs();
        TopKResult r = oracle_index.BruteForce(in.pool[i], kTopK, *in.measure);
        in.scan_ms[i] = Ms(NowNs() - t0);
        in.oracle[i] = std::move(r.items);
        return r.status.ok();
      },
      nullptr, &failed);
  if (failed != 0) Fatal("brute-force oracle failed");
  in.ready = Clock::now();
  return in;
}

// How a workload's readers reach its index.
struct ReadPath {
  std::function<TopKResult(EntityId, const AssociationMeasure&,
                           const QueryOptions&)>
      query;
  QueryOptions options;  // untraced read options
  const dtrace::TraceSource* traced_base = nullptr;  // what tracing wraps
  bool fan_out = false;  // reads run on several threads (ShardedIndex)
  int clients = kClients;  // closed-loop readers
};

// The open-loop writer: removes and re-inserts entities drawn from
// `targets`, alternating, at kWriteRate operations per second.
struct Writer {
  std::function<void(EntityId)> remove;
  std::function<void(EntityId)> insert;
  std::function<uint64_t()> blocked_ns;  // writer latch wait so far
  std::vector<EntityId> targets;
};

struct ReadTotals {
  std::vector<double> wall_ms;
  std::vector<double> io_ms;  // wall + modeled SimDisk time
  std::vector<uint32_t> pool_index;
  uint64_t mismatches = 0;
  uint64_t errors = 0;
  QueryStats stats;
  double pe_sum = 0.0;
  std::array<uint64_t, kNumChildKinds> child_calls{};
  std::array<int64_t, kNumChildKinds> child_busy_ns{};
  double self_ms_sum = 0.0;

  void Merge(const ReadTotals& o) {
    wall_ms.insert(wall_ms.end(), o.wall_ms.begin(), o.wall_ms.end());
    io_ms.insert(io_ms.end(), o.io_ms.begin(), o.io_ms.end());
    pool_index.insert(pool_index.end(), o.pool_index.begin(),
                      o.pool_index.end());
    mismatches += o.mismatches;
    errors += o.errors;
    AddStats(stats, o.stats);
    pe_sum += o.pe_sum;
    for (int k = 0; k < kNumChildKinds; ++k) {
      child_calls[k] += o.child_calls[k];
      child_busy_ns[k] += o.child_busy_ns[k];
    }
    self_ms_sum += o.self_ms_sum;
  }
};

struct WriteTotals {
  std::vector<double> latency_ms;  // completion - due time
  std::vector<double> lag_ms;      // issue - due time
  // Own work (span minus latch wait), traced windows only.
  double remove_ms = 0.0;
  uint64_t removes = 0;
  double insert_ms = 0.0;
  uint64_t inserts = 0;
};

struct Window {
  ReadTotals reads;
  WriteTotals writes;
  uint64_t attempted = 0;
  uint64_t failed = 0;
  double elapsed_s = 0.0;
};

// One load window: `readers` closed-loop clients drawing from the pool,
// plus the writer when given. Traced windows route reads through the
// decorators and record spans into `logs`.
Window RunWindow(const std::string& workload, const Inputs& in,
                 const ReadPath& path, int readers, const Writer* writer,
                 double seconds, bool traced, uint64_t stream_seed,
                 std::vector<std::unique_ptr<SpanLog>>* logs) {
  std::vector<ReadTotals> totals(readers);
  WriteTotals writes;
  std::vector<std::unique_ptr<ReadSink>> sinks;
  std::vector<std::unique_ptr<TracingTraceSource>> sources;
  std::vector<std::unique_ptr<TracingMeasure>> measures;
  std::vector<SpanLog*> client_logs;
  for (int c = 0; c <= readers; ++c) {
    SpanLog* log = nullptr;
    if (traced) {
      logs->push_back(std::make_unique<SpanLog>());
      log = logs->back().get();
    }
    client_logs.push_back(log);
  }
  if (traced) {
    for (int c = 0; c < readers; ++c) {
      sinks.push_back(std::make_unique<ReadSink>());
      sources.push_back(std::make_unique<TracingTraceSource>(
          *path.traced_base, sinks.back().get()));
      measures.push_back(
          std::make_unique<TracingMeasure>(*in.measure, sinks.back().get()));
    }
  }

  std::vector<LoadRun::Body> bodies;
  for (int c = 0; c < readers; ++c) {
    bodies.push_back([&, c](Client& client) {
      Stream rng(SubSeed(stream_seed, 100 + c));
      ReadTotals& t = totals[c];
      QueryOptions opts = path.options;
      const AssociationMeasure* measure = in.measure.get();
      if (traced) {
        opts.trace_source = sources[c].get();
        measure = measures[c].get();
      }
      while (!client.stopping()) {
        const uint32_t pi = rng.Below(in.pool.size());
        client.Attempt([&] {
          const int64_t t0 = NowNs();
          const TopKResult r = path.query(in.pool[pi], *measure, opts);
          const int64_t t1 = NowNs();
          const double wall_ms = Ms(t1 - t0);
          t.wall_ms.push_back(wall_ms);
          t.io_ms.push_back(wall_ms + r.stats.io.modeled_io_seconds * 1e3);
          t.pool_index.push_back(pi);
          AddStats(t.stats, r.stats);
          t.pe_sum += r.stats.pruning_effectiveness(kEntities, kTopK);
          if (traced) {
            const ChildTotals ch = sinks[c]->Take();
            const uint64_t request = NextSpanId();
            const uint64_t id =
                client_logs[c]->Add("Query", request, 0, t0, t1);
            client_logs[c]->AddChildren(request, id, t0, t1, ch);
            for (int k = 0; k < kNumChildKinds; ++k) {
              t.child_calls[k] += ch.calls[k];
              t.child_busy_ns[k] += ch.busy_ns[k];
            }
            // Self time summed over the threads the read ran on: its span,
            // or for a shard fan-out the shards' summed search time, minus
            // the children those threads ran.
            const double ran_ms = path.fan_out
                                      ? r.stats.work_seconds * 1e3
                                      : Ms(t1 - t0);
            t.self_ms_sum += ran_ms - Ms(ch.total_busy_ns());
          }
          if (!r.status.ok()) {
            ++t.errors;
            return false;
          }
          if (!SameItems(r.items, in.oracle[pi])) {
            ++t.mismatches;
            return false;
          }
          return true;
        });
      }
    });
  }
  if (writer != nullptr) {
    bodies.push_back([&](Client& client) {
      Stream rng(SubSeed(stream_seed, 99));
      SpanLog* log = client_logs[readers];
      const Clock::time_point start = Clock::now();
      auto write = [&](uint64_t i, EntityId e, bool remove) {
        const Clock::time_point due = DueTime(start, i, kWriteRate);
        std::this_thread::sleep_until(due);
        const Clock::time_point issued = Clock::now();
        const uint64_t blocked0 = traced ? writer->blocked_ns() : 0;
        client.Attempt([&] {
          if (remove) {
            writer->remove(e);
          } else {
            writer->insert(e);
          }
          return true;
        });
        const Clock::time_point done = Clock::now();
        writes.latency_ms.push_back(SecondsBetween(due, done) * 1e3);
        writes.lag_ms.push_back(SecondsBetween(due, issued) * 1e3);
        if (traced) {
          const double own_ms = SecondsBetween(issued, done) * 1e3 -
                                Ms(static_cast<int64_t>(writer->blocked_ns() -
                                                        blocked0));
          if (remove) {
            writes.remove_ms += own_ms;
            ++writes.removes;
          } else {
            writes.insert_ms += own_ms;
            ++writes.inserts;
          }
          log->Add(remove ? "RemoveEntity" : "InsertEntity", NextSpanId(), 0,
                   Ns(issued), Ns(done));
        }
      };
      // Each removal is followed by the re-insertion of the same entity,
      // also after the window closes, so the settled index holds every
      // entity again.
      for (uint64_t i = 0; !client.stopping(); i += 2) {
        const EntityId e = writer->targets[rng.Below(writer->targets.size())];
        write(i, e, /*remove=*/true);
        write(i + 1, e, /*remove=*/false);
      }
    });
  }

  LoadRun run(std::move(bodies));
  if (!run.Run(std::chrono::duration<double>(seconds),
               std::chrono::duration<double>(kDeadlineSeconds))) {
    ReportStuck(workload, traced ? "traced window" : "window", run);
  }
  Window w;
  for (const ReadTotals& t : totals) w.reads.Merge(t);
  w.writes = std::move(writes);
  w.attempted = run.attempted();
  w.failed = run.failed();
  w.elapsed_s = run.elapsed_seconds();
  return w;
}

double RepeatShare(const std::vector<uint32_t>& pool_index) {
  if (pool_index.empty()) return 0.0;
  std::vector<char> seen(kPoolSize, 0);
  size_t distinct = 0;
  for (uint32_t pi : pool_index) {
    if (!seen[pi]) {
      seen[pi] = 1;
      ++distinct;
    }
  }
  return 1.0 - static_cast<double>(distinct) / pool_index.size();
}

// Per-layer values, always emitted in full: a layer a workload does not
// exercise reports 0.
class LayerTable {
 public:
  LayerTable() {
    static const std::pair<const char*, const char*> kNames[] = {
        {"read_samples", "count"},
        {"write_samples", "count"},
        {"write_p50_ms", "ms"},
        {"write_p99_ms", "ms"},
        {"write.lag_ms", "ms"},
        {"stored_mb", "MB"},
        {"failed_frac", "ratio"},
        {"query.repeat_share", "ratio"},
        {"trace.overhead_ratio", "ratio"},
        {"query.nodes_visited", "count"},
        {"query.heap_pushes", "count"},
        {"query.entities_checked", "count"},
        {"query.hash_evals", "count"},
        {"query.pe", "ratio"},
        {"query.self_ms", "ms"},
        {"query.scan_ms", "ms"},
        {"measure.score_calls", "count"},
        {"measure.bound_calls", "count"},
        {"measure.busy_ms", "ms"},
        {"trace.calls", "count"},
        {"trace.busy_ms", "ms"},
        {"trace.entities_fetched", "count"},
        {"trace.cache_hits", "count"},
        {"trace.bytes_read", "B"},
        {"storage.pages_read", "count"},
        {"storage.pages_hit", "count"},
        {"storage.hit_rate", "ratio"},
        {"storage.tree_pages_read", "count"},
        {"storage.tree_page_hits", "count"},
        {"storage.evictions", "count"},
        {"storage.lock_wait_s", "s"},
        {"storage.prefetch_hits", "count"},
        {"storage.modeled_io_ms", "ms"},
        {"storage.io_retries", "count"},
        {"storage.checksum_failures", "count"},
        {"codec.trace_ratio", "ratio"},
        {"codec.tree_ratio", "ratio"},
        {"shard.work_ms", "ms"},
        {"shard.fanout_ratio", "ratio"},
        {"shard.shards_pruned", "count"},
        {"shard.router_bound_evals", "count"},
        {"coord.reader_blocked_ms", "ms"},
        {"coord.writer_blocked_ms", "ms"},
        {"coord.commits", "count"},
        {"coord.snapshot_publishes", "count"},
        {"maint.remove_ms", "ms"},
        {"maint.insert_ms", "ms"},
        {"snapshot.load_s", "s"},
        {"snapshot.save_s", "s"},
        {"snapshot.bytes", "B"},
        {"setup.build_s", "s"},
        {"setup.trace_pages_s", "s"},
        {"setup.tree_pack_s", "s"},
    };
    for (const auto& [name, unit] : kNames) metrics_.push_back({name, 0.0, unit});
  }

  void Set(const std::string& name, double value) {
    for (Metric& m : metrics_) {
      if (m.name == name) {
        m.value = value;
        return;
      }
    }
    Fatal("unknown per-layer metric " + name);
  }

  std::vector<Metric> Take() { return std::move(metrics_); }

 private:
  std::vector<Metric> metrics_;
};

// What a workload's setup produced, beyond its read path.
struct Served {
  double setup_s = 0.0;
  double index_mb = 0.0;
  double stored_mb = 0.0;
  /// Layer counters sampled around the traced window (optional).
  std::function<void(LayerTable&, bool before)> sample_layers;
  /// A traced run's last window, after the traced read window (optional):
  /// runs for the given seconds and fills the layers it measures.
  std::function<void(double seconds)> traced_phase;
};

std::string Fmt(const char* fmt, double a, double b = 0, double c = 0,
                double d = 0) {
  char buf[256];
  std::snprintf(buf, sizeof(buf), fmt, a, b, c, d);
  return buf;
}

// Runs the warm-up and the measured window(s), and fills `report`.
void Serve(const RunOptions& o, const Inputs& in, const ReadPath& path,
           const Served& served, LayerTable& layers,
           std::vector<std::unique_ptr<SpanLog>>* logs, Report& report) {
  const uint64_t seed = o.seed;
  const Clock::time_point load_start = Clock::now();
  const Window warm =
      RunWindow(o.workload, in, path, path.clients, nullptr,
                std::min(kWarmupSeconds, o.seconds / 5), false,
                SubSeed(seed, 10), nullptr);
  report.attempted += warm.attempted;
  report.failed += warm.failed;

  // A traced run splits --seconds between an untraced reference window,
  // the traced read window and the optional traced phase.
  const double window_s =
      o.trace ? o.seconds / (served.traced_phase ? 3 : 2) : o.seconds;
  const Window w = RunWindow(o.workload, in, path, path.clients, nullptr,
                             window_s, false, SubSeed(seed, 11), nullptr);
  report.attempted += w.attempted;
  report.failed += w.failed;
  const LatencySummary read = Summarize(w.reads.wall_ms);
  const LatencySummary read_io = Summarize(w.reads.io_ms);
  const size_t reads = w.reads.wall_ms.size();
  const double qps = w.elapsed_s > 0 ? reads / w.elapsed_s : 0.0;

  report.lines.push_back(
      Fmt("reads: %.0f samples, %.1f/s, p50 %.3f ms, p99 %.3f ms", reads, qps,
          read.p50, read.p99) +
      (read.p99_supported ? "" : " (p99 has fewer than 10 samples beyond it)"));
  report.lines.push_back(Fmt("reads + modeled I/O: p50 %.3f ms, p99 %.3f ms",
                             read_io.p50, read_io.p99));
  report.lines.push_back(Fmt(
      "setup %.4f s, index %.3f MB, stored %.3f MB, brute-force scan p50 "
      "%.3f ms",
      served.setup_s, served.index_mb, served.stored_mb, Median(in.scan_ms)));
  report.lines.push_back(Fmt("query repeat share %.3f over %.0f distinct pool "
                             "entities",
                             RepeatShare(w.reads.pool_index), kPoolSize));

  if (!o.trace) {
    report.lines.push_back(
        Fmt("time: inputs %.2f s, setup %.2f s, load %.2f s",
            SecondsBetween(o.started, in.ready),
            SecondsBetween(in.ready, load_start),
            SecondsBetween(load_start, Clock::now())));
    report.end_to_end = {
        {"read_qps", qps, "1/s"},
        {"read_p50_ms", read.p50, "ms"},
        {"read_p99_ms", read.p99, "ms"},
        {"read_io_p50_ms", read_io.p50, "ms"},
        {"read_io_p99_ms", read_io.p99, "ms"},
        {"setup_s", served.setup_s, "s"},
        {"index_mb", served.index_mb, "MB"},
    };
  } else {
    if (served.sample_layers) served.sample_layers(layers, true);
    const Window t = RunWindow(o.workload, in, path, path.clients, nullptr,
                               window_s, true, SubSeed(seed, 12), logs);
    if (served.sample_layers) served.sample_layers(layers, false);
    report.attempted += t.attempted;
    report.failed += t.failed;
    const ReadTotals& r = t.reads;
    const double n = std::max<size_t>(1, r.wall_ms.size());
    const QueryStats& s = r.stats;
    const LatencySummary traced_read = Summarize(r.wall_ms);
    // The end-to-end figures reported here come from the untraced window.
    layers.Set("read_samples", static_cast<double>(reads));
    layers.Set("stored_mb", served.stored_mb);
    layers.Set("query.repeat_share", RepeatShare(w.reads.pool_index));
    layers.Set("trace.overhead_ratio",
               read.p50 > 0 ? traced_read.p50 / read.p50 : 0.0);
    layers.Set("query.nodes_visited", s.nodes_visited / n);
    layers.Set("query.heap_pushes", s.heap_pushes / n);
    layers.Set("query.entities_checked", s.entities_checked / n);
    layers.Set("query.hash_evals", s.hash_evals / n);
    layers.Set("query.pe", r.pe_sum / n);
    layers.Set("query.self_ms", r.self_ms_sum / n);
    layers.Set("query.scan_ms", Median(in.scan_ms));
    constexpr int kT = static_cast<int>(ChildKind::kTrace);
    constexpr int kS = static_cast<int>(ChildKind::kScore);
    constexpr int kB = static_cast<int>(ChildKind::kBound);
    layers.Set("measure.score_calls", r.child_calls[kS] / n);
    layers.Set("measure.bound_calls", r.child_calls[kB] / n);
    layers.Set("measure.busy_ms",
               Ms(r.child_busy_ns[kS] + r.child_busy_ns[kB]) / n);
    layers.Set("trace.calls", r.child_calls[kT] / n);
    layers.Set("trace.busy_ms", Ms(r.child_busy_ns[kT]) / n);
    layers.Set("trace.entities_fetched", s.io.entities_fetched / n);
    layers.Set("trace.cache_hits", s.io.cache_hits / n);
    layers.Set("trace.bytes_read", s.io.bytes_read / n);
    layers.Set("storage.pages_read", s.io.pages_read / n);
    layers.Set("storage.pages_hit", s.io.pages_hit / n);
    layers.Set("storage.tree_pages_read", s.io.tree_pages_read / n);
    layers.Set("storage.tree_page_hits", s.io.tree_page_hits / n);
    layers.Set("storage.prefetch_hits", s.io.prefetch_hits / n);
    layers.Set("storage.modeled_io_ms", s.io.modeled_io_seconds * 1e3 / n);
    layers.Set("storage.io_retries", s.io.io_retries / n);
    layers.Set("storage.checksum_failures", s.io.checksum_failures / n);
    if (path.fan_out) {
      layers.Set("shard.work_ms", s.work_seconds * 1e3 / n);
      layers.Set("shard.fanout_ratio", s.elapsed_seconds > 0
                                           ? s.work_seconds / s.elapsed_seconds
                                           : 0.0);
      layers.Set("shard.shards_pruned", s.shards_pruned / n);
      layers.Set("shard.router_bound_evals", s.router_bound_evals / n);
    }
    report.lines.push_back(
        Fmt("traced: %.0f reads, p50 %.3f ms (%.3fx untraced), self %.3f ms",
            r.wall_ms.size(), traced_read.p50,
            read.p50 > 0 ? traced_read.p50 / read.p50 : 0.0,
            r.self_ms_sum / n));
    if (served.traced_phase) served.traced_phase(window_s);
  }
}

DigitalTraceIndex BuildIndex(const dtrace::Dataset& data) {
  return DigitalTraceIndex::Build(data.store,
                                  dtrace::PresetIndexOptions(kNumFunctions));
}

double IndexMb(const DigitalTraceIndex& index) {
  return (index.IndexMemoryBytes() + index.HasherMemoryBytes()) / 1048576.0;
}

// Runs `step` once untimed as a warm-up, then repeatedly as the constants
// above say, and returns the median of each time the step reports: its
// total first, then any parts it splits that total into.
std::vector<double> MedianSetup(
    const std::function<std::vector<double>()>& step) {
  step();
  std::vector<std::vector<double>> times;
  double timed_s = 0.0;
  for (int r = 0; r < kSetupMaxRepeats &&
                  (r < kSetupRepeats || timed_s < kSetupSeconds);
       ++r) {
    const std::vector<double> t = step();
    timed_s += t[0];
    times.resize(t.size());
    for (size_t i = 0; i < t.size(); ++i) times[i].push_back(t[i]);
  }
  std::vector<double> medians;
  for (std::vector<double>& t : times) medians.push_back(Median(std::move(t)));
  return medians;
}

// hot-read's traced phase: the built index is saved by SaveSnapshot and
// restored by LoadSnapshot (the restart path), and the restored index
// serves kWriteReaders closed-loop readers beside the open-loop writer for
// `seconds`. Fills the write, snapshot, coord and maint layers. Writes
// touch only entities that are neither queried nor in any exact answer, so
// the oracle stays exact at every committed version; the settled index is
// checked again after the writer's last re-insertion.
void RestartAndWrite(const RunOptions& o, const Inputs& in,
                     const DigitalTraceIndex& built, double seconds,
                     SpanLog* main_log, LayerTable& layers,
                     std::vector<std::unique_ptr<SpanLog>>* logs,
                     Report& report) {
  dtrace::MemSnapshotEnv env;
  const int64_t t0 = NowNs();
  const dtrace::Status saved = built.SaveSnapshot(&env);
  const int64_t t1 = NowNs();
  if (!saved.ok()) Fatal(std::string("SaveSnapshot: ") + saved.message());
  main_log->Add("SaveSnapshot", 0, 0, t0, t1);
  uint64_t snapshot_bytes = 0;
  for (const auto& [name, bytes] : env.files()) snapshot_bytes += bytes.size();
  layers.Set("snapshot.save_s", Ms(t1 - t0) / 1e3);
  layers.Set("snapshot.bytes", static_cast<double>(snapshot_bytes));
  layers.Set("stored_mb", snapshot_bytes / 1048576.0);

  std::optional<dtrace::LoadedIndex> loaded;
  layers.Set("snapshot.load_s", MedianSetup([&] {
               loaded.reset();
               loaded.emplace();
               const int64_t l0 = NowNs();
               const dtrace::Status st =
                   DigitalTraceIndex::LoadSnapshot(env, &loaded.value());
               const int64_t l1 = NowNs();
               if (!st.ok()) Fatal(std::string("LoadSnapshot: ") + st.message());
               main_log->Add("LoadSnapshot", 0, 0, l0, l1);
               return std::vector<double>{Ms(l1 - l0) / 1e3};
             })[0]);
  DigitalTraceIndex& index = *loaded->index;

  std::vector<char> hot(kEntities, 0);
  for (size_t i = 0; i < in.pool.size(); ++i) {
    hot[in.pool[i]] = 1;
    for (const ScoredEntity& s : in.oracle[i]) hot[s.entity] = 1;
  }
  Writer writer;
  for (EntityId e = 0; e < kEntities; ++e) {
    if (!hot[e]) writer.targets.push_back(e);
  }
  writer.remove = [&](EntityId e) { index.RemoveEntity(e); };
  writer.insert = [&](EntityId e) { index.InsertEntity(e); };
  writer.blocked_ns = [&] {
    return index.concurrency_stats().writer_blocked_ns;
  };
  ReadPath path;
  path.query = [&](EntityId q, const AssociationMeasure& m,
                   const QueryOptions& opts) {
    return index.Query(q, kTopK, m, opts);
  };
  path.traced_base = loaded->store.get();

  const DigitalTraceIndex::ConcurrencyStats cc0 = index.concurrency_stats();
  const uint64_t version0 = index.version();
  const Window w = RunWindow(o.workload, in, path, kWriteReaders, &writer,
                             seconds, true, SubSeed(o.seed, 13), logs);
  const DigitalTraceIndex::ConcurrencyStats cc = index.concurrency_stats();
  report.attempted += w.attempted;
  report.failed += w.failed;
  layers.Set("coord.reader_blocked_ms",
             Ms(static_cast<int64_t>(cc.reader_blocked_ns -
                                     cc0.reader_blocked_ns)));
  layers.Set("coord.writer_blocked_ms",
             Ms(static_cast<int64_t>(cc.writer_blocked_ns -
                                     cc0.writer_blocked_ns)));
  layers.Set("coord.commits", static_cast<double>(index.version() - version0));
  layers.Set("coord.snapshot_publishes",
             static_cast<double>(cc.snapshot_publishes -
                                 cc0.snapshot_publishes));

  const WriteTotals& wr = w.writes;
  const LatencySummary write = Summarize(wr.latency_ms);
  double lag = 0.0;
  for (double x : wr.lag_ms) lag += x;
  layers.Set("write_samples", static_cast<double>(write.samples));
  layers.Set("write_p50_ms", write.p50);
  layers.Set("write_p99_ms", write.p99);
  layers.Set("write.lag_ms", wr.lag_ms.empty() ? 0.0 : lag / wr.lag_ms.size());
  if (wr.removes > 0) layers.Set("maint.remove_ms", wr.remove_ms / wr.removes);
  if (wr.inserts > 0) layers.Set("maint.insert_ms", wr.insert_ms / wr.inserts);
  const LatencySummary read = Summarize(w.reads.wall_ms);
  report.lines.push_back(
      Fmt("restored index beside the writer: %.0f reads, p50 %.3f ms, "
          "p99 %.3f ms",
          read.samples, read.p50, read.p99));
  report.lines.push_back(
      Fmt("writes: %.0f samples, p50 %.3f ms, p99 %.3f ms (from due time)",
          write.samples, write.p50, write.p99) +
      (write.p99_supported ? "" : " (p99 has fewer than 10 samples beyond it)"));
  const LatencySummary late = Summarize(wr.lag_ms);
  report.lines.push_back(Fmt("writer lateness: p50 %.3f ms, p99 %.3f ms",
                             late.p50, late.p99));

  uint64_t attempted = 0, failed = 0;
  RunFixedWork(
      o.workload, "settled check", std::min(kSettleChecks, in.pool.size()),
      [&](size_t i) {
        const TopKResult r = index.Query(in.pool[i], kTopK, *in.measure);
        return r.status.ok() && SameItems(r.items, in.oracle[i]);
      },
      &attempted, &failed);
  report.attempted += attempted;
  report.failed += failed;
  report.lines.push_back(Fmt("settled index: %.0f of %.0f checks exact",
                             attempted - failed, attempted));
}

Report HotRead(const RunOptions& o,
               std::vector<std::unique_ptr<SpanLog>>* logs) {
  Report report;
  LayerTable layers;
  SpanLog* main_log = o.trace ? logs->emplace_back(std::make_unique<SpanLog>()).get() : nullptr;
  dtrace::Dataset data = dtrace::MakeDiskResidentDataset(kEntities, o.seed);
  const DigitalTraceIndex oracle_index = BuildIndex(data);
  const Inputs in = PrepareInputs(o.workload, o.seed, std::move(data),
                                  oracle_index);

  std::optional<DigitalTraceIndex> index;
  Served served;
  served.setup_s = MedianSetup([&] {
    index.reset();
    const int64_t t0 = NowNs();
    index.emplace(BuildIndex(in.data));
    const int64_t t1 = NowNs();
    if (main_log != nullptr) main_log->Add("Build", 0, 0, t0, t1);
    return std::vector<double>{Ms(t1 - t0) / 1e3};
  })[0];
  served.index_mb = IndexMb(*index);
  layers.Set("setup.build_s", served.setup_s);

  ReadPath path;
  path.query = [&](EntityId q, const AssociationMeasure& m,
                   const QueryOptions& opts) {
    return index->Query(q, kTopK, m, opts);
  };
  path.traced_base = &index->store();
  if (o.trace) {
    served.traced_phase = [&](double seconds) {
      RestartAndWrite(o, in, *index, seconds, main_log, layers, logs, report);
    };
  }
  Serve(o, in, path, served, layers, logs, report);
  report.per_layer = layers.Take();
  return report;
}

Report ColdRead(const RunOptions& o,
                std::vector<std::unique_ptr<SpanLog>>* logs) {
  Report report;
  LayerTable layers;
  SpanLog* main_log = o.trace ? logs->emplace_back(std::make_unique<SpanLog>()).get() : nullptr;
  dtrace::Dataset data = dtrace::MakeDiskResidentDataset(kEntities, o.seed);
  Inputs in;
  {
    const DigitalTraceIndex oracle_index = BuildIndex(data);
    in = PrepareInputs(o.workload, o.seed, std::move(data), oracle_index);
  }

  // Destroyed in reverse order: the shard trees' pages live on the
  // source's disk and pool.
  std::unique_ptr<dtrace::PagedTraceSource> source;
  std::optional<dtrace::ShardedIndex> sharded;
  Served served;
  const std::vector<double> setup = MedianSetup([&] {
    sharded.reset();
    source.reset();
    const int64_t t0 = NowNs();
    dtrace::ShardedIndexOptions sopts;
    sopts.num_shards = kShards;
    sopts.index = dtrace::PresetIndexOptions(kNumFunctions);
    sharded.emplace(dtrace::ShardedIndex::Build(in.data.store, sopts));
    const int64_t t1 = NowNs();
    dtrace::PagedTraceSource::Options popts;
    popts.pool_fraction = kPoolFraction;
    popts.compress = true;
    source = std::make_unique<dtrace::PagedTraceSource>(*in.data.store, popts);
    const int64_t t2 = NowNs();
    dtrace::PagedTreeOptions topts;
    topts.compress = true;
    topts.shared_disk = source->disk();
    topts.shared_pool = source->pool();
    sharded->EnablePagedTrees(topts);
    const int64_t t3 = NowNs();
    if (main_log != nullptr) {
      main_log->Add("Build", 0, 0, t0, t1);
      main_log->Add("PagedTraceSource", 0, 0, t1, t2);
      main_log->Add("EnablePagedTrees", 0, 0, t2, t3);
    }
    return std::vector<double>{Ms(t3 - t0) / 1e3, Ms(t1 - t0) / 1e3,
                               Ms(t2 - t1) / 1e3, Ms(t3 - t2) / 1e3};
  });
  served.setup_s = setup[0];
  layers.Set("setup.build_s", setup[1]);
  layers.Set("setup.trace_pages_s", setup[2]);
  layers.Set("setup.tree_pack_s", setup[3]);

  uint64_t index_bytes = 0, packed_bytes = 0, raw_tree_bytes = 0;
  for (int s = 0; s < sharded->num_shards(); ++s) {
    const DigitalTraceIndex& shard = sharded->shard(s);
    index_bytes += shard.IndexMemoryBytes() + shard.HasherMemoryBytes();
    packed_bytes += shard.paged_tree().PackedBytes();
    raw_tree_bytes += shard.paged_tree().RawBytes();
  }
  served.index_mb = index_bytes / 1048576.0;
  served.stored_mb = (source->data_bytes() + packed_bytes) / 1048576.0;
  layers.Set("codec.trace_ratio", static_cast<double>(source->data_bytes()) /
                                      source->raw_bytes());
  layers.Set("codec.tree_ratio",
             static_cast<double>(packed_bytes) / raw_tree_bytes);

  dtrace::BufferPool::Stats pool0;
  served.sample_layers = [&](LayerTable& t, bool before) {
    const dtrace::BufferPool::Stats p = source->pool_stats();
    if (before) {
      pool0 = p;
      return;
    }
    const uint64_t hits = p.hits - pool0.hits;
    const uint64_t misses = p.misses - pool0.misses;
    t.Set("storage.hit_rate",
          hits + misses == 0 ? 0.0 : static_cast<double>(hits) /
                                         static_cast<double>(hits + misses));
    t.Set("storage.evictions", static_cast<double>(p.evictions -
                                                   pool0.evictions));
    t.Set("storage.lock_wait_s",
          p.lock_wait_seconds - pool0.lock_wait_seconds);
  };

  ReadPath path;
  path.query = [&](EntityId q, const AssociationMeasure& m,
                   const QueryOptions& opts) {
    return sharded->Query(q, kTopK, m, opts);
  };
  path.options.trace_source = source.get();
  path.options.prefetch_depth = kPrefetchDepth;
  path.traced_base = source.get();
  path.fan_out = true;
  path.clients = kColdReadClients;
  Serve(o, in, path, served, layers, logs, report);

  report.per_layer = layers.Take();
  return report;
}

}  // namespace

bool IsWorkload(const std::string& name) {
  return name == "hot-read" || name == "cold-read";
}

Report RunWorkload(const RunOptions& o) {
  std::vector<std::unique_ptr<SpanLog>> logs;
  Report report;
  if (o.workload == "hot-read") {
    report = HotRead(o, &logs);
  } else if (o.workload == "cold-read") {
    report = ColdRead(o, &logs);
  } else {
    Fatal("unknown workload " + o.workload);
  }
  for (Metric& m : report.per_layer) {
    if (m.name == "failed_frac") {
      m.value = FailedFraction(report.attempted, report.failed);
    }
  }
  report.correct = report.failed == 0;
  report.lines.push_back(Fmt("operations: %.0f attempted, %.0f failed "
                             "(failed_frac %.6f)",
                             report.attempted, report.failed,
                             FailedFraction(report.attempted, report.failed)));
  if (o.trace && !o.span_path.empty()) {
    std::vector<const SpanLog*> views;
    for (const auto& l : logs) views.push_back(l.get());
    if (!SpanLog::Write(o.span_path, views)) {
      Fatal("cannot write spans to " + o.span_path);
    }
  }
  return report;
}

}  // namespace perfbench
