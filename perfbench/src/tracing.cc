#include "tracing.h"

#include <atomic>
#include <cstdio>

namespace perfbench {

// Per-thread buffer of decorator calls for one sink at a time. A thread
// that switches sinks (a client's thread never does; a library worker
// serves one read and exits) flushes first, and the thread-local
// destructor flushes at thread exit — which the library's fan-out joins
// before its call returns.
struct ThreadLog {
  ReadSink* owner = nullptr;
  ChildTotals totals;
  bool dirty = false;

  ~ThreadLog() { Flush(); }

  void Flush() {
    if (owner == nullptr || !dirty) return;
    {
      const std::lock_guard<std::mutex> lock(owner->mu_);
      for (int k = 0; k < kNumChildKinds; ++k) {
        owner->totals_.calls[k] += totals.calls[k];
        owner->totals_.busy_ns[k] += totals.busy_ns[k];
      }
    }
    totals = ChildTotals();
    dirty = false;
  }

  void Attach(ReadSink* sink) {
    if (owner == sink) return;
    Flush();
    owner = sink;
  }
};

namespace {
thread_local ThreadLog t_log;
}  // namespace

ChildCall::ChildCall(ReadSink* sink, ChildKind kind)
    : sink_(sink), kind_(kind), start_ns_(NowNs()) {}

ChildCall::~ChildCall() {
  const int64_t end_ns = NowNs();
  ThreadLog& log = t_log;
  log.Attach(sink_);
  const int k = static_cast<int>(kind_);
  ++log.totals.calls[k];
  log.totals.busy_ns[k] += end_ns - start_ns_;
  log.dirty = true;
}

ReadSink::~ReadSink() {
  if (t_log.owner == this) t_log.owner = nullptr;
}

ChildTotals ReadSink::Take() {
  if (t_log.owner == this) {
    t_log.Flush();
    t_log.owner = nullptr;
  }
  const std::lock_guard<std::mutex> lock(mu_);
  ChildTotals out = totals_;
  totals_ = ChildTotals();
  return out;
}

namespace {

class TracingCursor final : public dtrace::TraceCursor {
 public:
  TracingCursor(std::unique_ptr<dtrace::TraceCursor> inner, ReadSink* sink)
      : inner_(std::move(inner)), sink_(sink) {
    Sync();
  }

  std::span<const dtrace::CellId> Cells(dtrace::EntityId e,
                                        dtrace::Level level) override {
    const ChildCall call(sink_, ChildKind::kTrace);
    const auto r = inner_->Cells(e, level);
    Sync();
    return r;
  }
  std::span<const dtrace::CellId> CellsInWindow(dtrace::EntityId e,
                                                dtrace::Level level,
                                                dtrace::TimeStep t0,
                                                dtrace::TimeStep t1) override {
    const ChildCall call(sink_, ChildKind::kTrace);
    const auto r = inner_->CellsInWindow(e, level, t0, t1);
    Sync();
    return r;
  }
  uint32_t IntersectionSize(dtrace::EntityId a, dtrace::EntityId b,
                            dtrace::Level level) override {
    const ChildCall call(sink_, ChildKind::kTrace);
    const uint32_t r = inner_->IntersectionSize(a, b, level);
    Sync();
    return r;
  }
  uint32_t WindowedIntersectionSize(dtrace::EntityId a, dtrace::EntityId b,
                                    dtrace::Level level, dtrace::TimeStep t0,
                                    dtrace::TimeStep t1) override {
    const ChildCall call(sink_, ChildKind::kTrace);
    const uint32_t r = inner_->WindowedIntersectionSize(a, b, level, t0, t1);
    Sync();
    return r;
  }
  dtrace::PackedIdListView PackedCellsInWindow(dtrace::EntityId e,
                                               dtrace::Level level,
                                               dtrace::TimeStep t0,
                                               dtrace::TimeStep t1) override {
    const ChildCall call(sink_, ChildKind::kTrace);
    const auto r = inner_->PackedCellsInWindow(e, level, t0, t1);
    Sync();
    return r;
  }
  void Prefetch(std::span<const dtrace::EntityId> entities,
                int depth) override {
    const ChildCall call(sink_, ChildKind::kTrace);
    inner_->Prefetch(entities, depth);
    Sync();
  }

 private:
  // io() and status() are read from the base class, so mirror the inner
  // cursor's after every call.
  void Sync() {
    io_ = inner_->io();
    status_ = inner_->status();
  }

  std::unique_ptr<dtrace::TraceCursor> inner_;
  ReadSink* sink_;
};

}  // namespace

std::unique_ptr<dtrace::TraceCursor> TracingTraceSource::OpenCursor() const {
  return std::make_unique<TracingCursor>(inner_.OpenCursor(), sink_);
}

std::unique_ptr<dtrace::TraceCursor> TracingTraceSource::OpenCursorAt(
    uint64_t as_of) const {
  return std::make_unique<TracingCursor>(inner_.OpenCursorAt(as_of), sink_);
}

double TracingMeasure::Score(std::span<const uint32_t> q_sizes,
                             std::span<const uint32_t> c_sizes,
                             std::span<const uint32_t> inter_sizes) const {
  const ChildCall call(sink_, ChildKind::kScore);
  return inner_.Score(q_sizes, c_sizes, inter_sizes);
}

double TracingMeasure::UpperBound(std::span<const uint32_t> q_sizes,
                                  std::span<const uint32_t> remaining) const {
  const ChildCall call(sink_, ChildKind::kBound);
  return inner_.UpperBound(q_sizes, remaining);
}

uint64_t NextSpanId() {
  static std::atomic<uint64_t> next{1};
  return next.fetch_add(1, std::memory_order_relaxed);
}

uint64_t SpanLog::Add(const char* name, uint64_t request, uint64_t parent,
                      int64_t start_ns, int64_t end_ns) {
  const uint64_t id = NextSpanId();
  spans_.push_back({id, parent, request, name, start_ns, end_ns, 1,
                    end_ns - start_ns});
  return id;
}

void SpanLog::AddChildren(uint64_t request, uint64_t parent,
                          int64_t start_ns, int64_t end_ns,
                          const ChildTotals& c) {
  for (int k = 0; k < kNumChildKinds; ++k) {
    if (c.calls[k] == 0) continue;
    spans_.push_back({NextSpanId(), parent, request, kChildNames[k], start_ns,
                      end_ns, c.calls[k], c.busy_ns[k]});
  }
}

bool SpanLog::Write(const std::string& path,
                    const std::vector<const SpanLog*>& logs) {
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) return false;
  for (const SpanLog* log : logs) {
    for (const Span& s : log->spans()) {
      std::fprintf(f,
                   "{\"id\":%llu,\"parent\":%llu,\"request\":%llu,"
                   "\"name\":\"%s\",\"start_ns\":%lld,\"end_ns\":%lld,"
                   "\"calls\":%llu,\"busy_ns\":%lld}\n",
                   static_cast<unsigned long long>(s.id),
                   static_cast<unsigned long long>(s.parent),
                   static_cast<unsigned long long>(s.request), s.name,
                   static_cast<long long>(s.start_ns),
                   static_cast<long long>(s.end_ns),
                   static_cast<unsigned long long>(s.calls),
                   static_cast<long long>(s.busy_ns));
    }
  }
  return std::fclose(f) == 0;
}

}  // namespace perfbench
