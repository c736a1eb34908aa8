#ifndef PERFBENCH_TRACING_H_
#define PERFBENCH_TRACING_H_

// The benchmark's span recorder. Spans are taken around the calls the
// benchmark makes into the library (Query, RemoveEntity, InsertEntity and
// the setup calls) and inside two decorators the library calls back into:
// a TraceSource (every candidate-trace read of a query) and an
// AssociationMeasure (every exact score and upper bound). Decorator calls are
// far too many to keep one by one (tens of thousands per read), so they are
// aggregated per read into a call count and busy time per kind. Everything
// stays in memory until SpanLog::Write at the end of the run.

#include <array>
#include <cstdint>
#include <memory>
#include <mutex>
#include <span>
#include <string>
#include <vector>

#include "core/association.h"
#include "harness.h"
#include "trace/trace_source.h"

namespace perfbench {

inline int64_t Ns(Clock::time_point t) {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             t.time_since_epoch())
      .count();
}
inline int64_t NowNs() { return Ns(Clock::now()); }

/// The decorated layers whose calls are aggregated per read.
enum class ChildKind : int { kTrace = 0, kScore = 1, kBound = 2 };
inline constexpr int kNumChildKinds = 3;
inline constexpr const char* kChildNames[kNumChildKinds] = {
    "trace", "measure.score", "measure.bound"};

/// What one read's decorator calls added up to, on every thread the read
/// ran on.
struct ChildTotals {
  std::array<uint64_t, kNumChildKinds> calls{};
  std::array<int64_t, kNumChildKinds> busy_ns{};

  int64_t total_busy_ns() const {
    int64_t t = 0;
    for (int64_t b : busy_ns) t += b;
    return t;
  }
};

/// Collects the decorator calls made on behalf of one client. Library
/// threads a read fans out to (shard workers) log into thread-local buffers
/// that flush here when they switch sinks or exit, so a read's children are
/// complete once the library call that spawned them has returned.
class ReadSink {
 public:
  ReadSink() = default;
  /// Must not run while another thread still logs into this sink.
  ~ReadSink();
  ReadSink(const ReadSink&) = delete;
  ReadSink& operator=(const ReadSink&) = delete;

  /// Takes everything logged since the previous call. Call from the client
  /// thread after a read.
  ChildTotals Take();

 private:
  friend struct ThreadLog;
  std::mutex mu_;
  ChildTotals totals_;  // guarded by mu_
};

/// Times one decorator call into the calling thread's log for `sink`.
class ChildCall {
 public:
  ChildCall(ReadSink* sink, ChildKind kind);
  ~ChildCall();
  ChildCall(const ChildCall&) = delete;
  ChildCall& operator=(const ChildCall&) = delete;

 private:
  ReadSink* sink_;
  ChildKind kind_;
  int64_t start_ns_;
};

/// TraceSource decorator: forwards every call to `inner` and logs each
/// cursor call as a "trace" child of the current read. Answers, I/O
/// counters and status are the inner source's, unchanged.
class TracingTraceSource final : public dtrace::TraceSource {
 public:
  TracingTraceSource(const dtrace::TraceSource& inner, ReadSink* sink)
      : inner_(inner), sink_(sink) {}

  const dtrace::SpatialHierarchy& hierarchy() const override {
    return inner_.hierarchy();
  }
  uint32_t num_entities() const override { return inner_.num_entities(); }
  dtrace::TimeStep horizon() const override { return inner_.horizon(); }
  std::unique_ptr<dtrace::TraceCursor> OpenCursor() const override;
  std::unique_ptr<dtrace::TraceCursor> OpenCursorAt(
      uint64_t as_of) const override;
  bool versioned() const override { return inner_.versioned(); }

 private:
  const dtrace::TraceSource& inner_;
  ReadSink* sink_;
};

/// AssociationMeasure decorator: forwards to `inner`, logging Score calls
/// as "measure.score" and UpperBound calls as "measure.bound" children.
class TracingMeasure final : public dtrace::AssociationMeasure {
 public:
  TracingMeasure(const dtrace::AssociationMeasure& inner, ReadSink* sink)
      : inner_(inner), sink_(sink) {}

  double Score(std::span<const uint32_t> q_sizes,
               std::span<const uint32_t> c_sizes,
               std::span<const uint32_t> inter_sizes) const override;
  double UpperBound(std::span<const uint32_t> q_sizes,
                    std::span<const uint32_t> remaining) const override;
  std::string name() const override { return inner_.name(); }

 private:
  const dtrace::AssociationMeasure& inner_;
  ReadSink* sink_;
};

/// One recorded span. Aggregated children carry their call count and busy
/// time; plain spans have calls == 1 and busy == end - start.
struct Span {
  uint64_t id = 0;
  uint64_t parent = 0;   // 0 = root
  uint64_t request = 0;  // shared by a read and its children; 0 = setup
  const char* name = "";
  int64_t start_ns = 0;
  int64_t end_ns = 0;
  uint64_t calls = 1;
  int64_t busy_ns = 0;
};

/// Append-only span store of one thread (a client or the main thread).
/// Merged and written once, after the run.
class SpanLog {
 public:
  /// Records a plain span and returns its id.
  uint64_t Add(const char* name, uint64_t request, uint64_t parent,
               int64_t start_ns, int64_t end_ns);
  /// Records one aggregated child span per child kind that was called,
  /// spanning its parent's [start_ns, end_ns].
  void AddChildren(uint64_t request, uint64_t parent, int64_t start_ns,
                   int64_t end_ns, const ChildTotals& c);
  const std::vector<Span>& spans() const { return spans_; }

  /// Writes every span of `logs` as one JSON object per line. Returns false
  /// when the file cannot be written.
  static bool Write(const std::string& path,
                    const std::vector<const SpanLog*>& logs);

 private:
  std::vector<Span> spans_;
};

/// Globally unique span/request ids across threads.
uint64_t NextSpanId();

}  // namespace perfbench

#endif  // PERFBENCH_TRACING_H_
