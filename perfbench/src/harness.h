#ifndef PERFBENCH_HARNESS_H_
#define PERFBENCH_HARNESS_H_

// Load generation and sample statistics for the repository benchmark.
// Nothing here knows about the index: clients run caller-supplied bodies,
// and the statistics take plain vectors of samples.

#include <atomic>
#include <chrono>
#include <condition_variable>
#include <cstdint>
#include <functional>
#include <mutex>
#include <thread>
#include <vector>

namespace perfbench {

using Clock = std::chrono::steady_clock;

inline double SecondsBetween(Clock::time_point a, Clock::time_point b) {
  return std::chrono::duration<double>(b - a).count();
}

/// Nearest-rank percentile (p in (0, 1]) of `samples`: the smallest sample
/// with at least p * n samples at or below it. Empty input yields 0. The
/// benchmark keeps its own definition so that a library change cannot move
/// the yardstick.
double Percentile(std::vector<double> samples, double p);

/// Median by the same nearest-rank rule.
inline double Median(std::vector<double> samples) {
  return Percentile(std::move(samples), 0.5);
}

/// Samples a percentile needs so that at least ten samples lie beyond it:
/// 1000 for p99.
size_t SamplesNeeded(double p);

/// A latency distribution as the benchmark reports it.
struct LatencySummary {
  size_t samples = 0;
  double p50 = 0.0;
  double p99 = 0.0;
  /// False when `samples` < SamplesNeeded(0.99): p99 is then reported but
  /// rests on fewer than ten samples beyond it.
  bool p99_supported = false;
};
LatencySummary Summarize(const std::vector<double>& samples);

/// Failure share of attempted operations (0 when nothing was attempted).
inline double FailedFraction(uint64_t attempted, uint64_t failed) {
  return attempted == 0 ? 0.0 : static_cast<double>(failed) / attempted;
}

/// Operation accounting of one load-generating thread. Counters are atomic
/// so a stuck run can still be accounted from the coordinating thread.
class Client {
 public:
  /// True once the run's window has closed; bodies stop issuing then.
  bool stopping() const { return stop_->load(std::memory_order_acquire); }

  /// Runs one operation, counting it as attempted, then as failed unless
  /// `op` returns true. An operation that never returns stays outstanding.
  template <typename Op>
  bool Attempt(Op&& op) {
    started_.fetch_add(1, std::memory_order_relaxed);
    const bool ok = op();
    if (!ok) failed_.fetch_add(1, std::memory_order_relaxed);
    finished_.fetch_add(1, std::memory_order_release);
    return ok;
  }

  uint64_t started() const { return started_.load(std::memory_order_acquire); }
  uint64_t finished() const {
    return finished_.load(std::memory_order_acquire);
  }
  uint64_t failed() const { return failed_.load(std::memory_order_acquire); }

 private:
  friend class LoadRun;
  const std::atomic<bool>* stop_ = nullptr;
  std::atomic<uint64_t> started_{0};
  std::atomic<uint64_t> finished_{0};
  std::atomic<uint64_t> failed_{0};
};

/// One window of load: a thread per body, each body looping over
/// Client::Attempt until Client::stopping(). The destructor joins every
/// thread, so a caller whose run got stuck must end the process instead of
/// destroying the run (or, in a test, first unblock the stuck operation).
class LoadRun {
 public:
  using Body = std::function<void(Client&)>;

  explicit LoadRun(std::vector<Body> bodies);
  ~LoadRun();
  LoadRun(const LoadRun&) = delete;
  LoadRun& operator=(const LoadRun&) = delete;

  /// Starts the clients, lets them run for `window`, signals stop, and waits
  /// until `deadline` after the window for every body to return. Returns
  /// false when some body is still running then: the run is stuck.
  bool Run(std::chrono::duration<double> window,
           std::chrono::duration<double> deadline);

  /// Seconds from the start to the return of the last body (the window
  /// when the run got stuck).
  double elapsed_seconds() const { return elapsed_seconds_; }

  uint64_t attempted() const;
  /// Failed operations, counting operations still outstanding as failed.
  uint64_t failed() const;
  /// Operations started but not finished.
  uint64_t outstanding() const;

 private:
  std::vector<Body> bodies_;
  std::vector<Client> clients_;
  std::atomic<bool> stop_{false};
  std::mutex mu_;
  std::condition_variable done_cv_;
  size_t done_ = 0;  // guarded by mu_
  Clock::time_point last_done_;  // guarded by mu_
  double elapsed_seconds_ = 0.0;
  std::vector<std::thread> threads_;  // declared last: uses the members above
};

/// Due time of operation `i` of an open-loop generator issuing `rate`
/// operations per second from `start`.
inline Clock::time_point DueTime(Clock::time_point start, uint64_t i,
                                 double rate) {
  return start + std::chrono::duration_cast<Clock::duration>(
                     std::chrono::duration<double>(i / rate));
}

}  // namespace perfbench

#endif  // PERFBENCH_HARNESS_H_
