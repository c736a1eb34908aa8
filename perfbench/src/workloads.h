#ifndef PERFBENCH_WORKLOADS_H_
#define PERFBENCH_WORKLOADS_H_

// The benchmark's two workloads over the SYN preset (see README.md):
//   hot-read  — one in-memory DigitalTraceIndex, 4 closed-loop readers; its
//               traced run ends with a phase in which the index, saved and
//               restored by LoadSnapshot, serves 2 readers beside an
//               open-loop writer (kWriteRate in workloads.cc);
//   cold-read — a 4-shard ShardedIndex whose traces and trees live in one
//               compressed, 25%-cached SimDisk pool, 1 closed-loop reader
//               (each read fans out over 4 shard threads).

#include <chrono>
#include <cstdint>
#include <string>
#include <vector>

namespace perfbench {

struct RunOptions {
  std::string workload;
  uint64_t seed = 1;
  double seconds = 10.0;
  /// Per-layer run: an untraced window for reference, then a traced window
  /// with the span recorder on (and for hot-read a traced write phase),
  /// sharing --seconds equally.
  bool trace = false;
  /// Where the traced run writes its spans (empty: keep them in memory
  /// only).
  std::string span_path;
  /// When the process started, for the phase timing line.
  std::chrono::steady_clock::time_point started =
      std::chrono::steady_clock::now();
};

struct Metric {
  std::string name;
  double value = 0.0;
  std::string unit;
};

struct Report {
  bool correct = true;
  uint64_t attempted = 0;
  uint64_t failed = 0;
  std::vector<Metric> end_to_end;
  std::vector<Metric> per_layer;
  /// Human-readable lines printed before the result.
  std::vector<std::string> lines;
};

bool IsWorkload(const std::string& name);

/// Runs one workload. A run whose operations do not finish by the deadline
/// prints its accounting, names the workload and ends the process with a
/// non-zero status instead of returning.
Report RunWorkload(const RunOptions& options);

}  // namespace perfbench

#endif  // PERFBENCH_WORKLOADS_H_
