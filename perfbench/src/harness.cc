#include "harness.h"

#include <algorithm>
#include <cmath>

namespace perfbench {

double Percentile(std::vector<double> samples, double p) {
  if (samples.empty()) return 0.0;
  const size_t n = samples.size();
  size_t rank = static_cast<size_t>(std::ceil(p * static_cast<double>(n)));
  rank = std::clamp<size_t>(rank, 1, n);
  std::nth_element(samples.begin(), samples.begin() + (rank - 1),
                   samples.end());
  return samples[rank - 1];
}

size_t SamplesNeeded(double p) {
  return static_cast<size_t>(std::ceil(10.0 / (1.0 - p) - 1e-9));
}

LatencySummary Summarize(const std::vector<double>& samples) {
  LatencySummary s;
  s.samples = samples.size();
  s.p50 = Percentile(samples, 0.50);
  s.p99 = Percentile(samples, 0.99);
  s.p99_supported = s.samples >= SamplesNeeded(0.99);
  return s;
}

LoadRun::LoadRun(std::vector<Body> bodies)
    : bodies_(std::move(bodies)), clients_(bodies_.size()) {
  for (Client& c : clients_) c.stop_ = &stop_;
}

LoadRun::~LoadRun() {
  stop_.store(true, std::memory_order_release);
  for (std::thread& t : threads_) {
    if (t.joinable()) t.join();
  }
}

bool LoadRun::Run(std::chrono::duration<double> window,
                  std::chrono::duration<double> deadline) {
  const Clock::time_point start = Clock::now();
  threads_.reserve(bodies_.size());
  for (size_t i = 0; i < bodies_.size(); ++i) {
    threads_.emplace_back([this, i] {
      bodies_[i](clients_[i]);
      const std::lock_guard<std::mutex> lock(mu_);
      ++done_;
      last_done_ = Clock::now();
      done_cv_.notify_all();
    });
  }
  const auto window_end =
      start + std::chrono::duration_cast<Clock::duration>(window);
  {
    std::unique_lock<std::mutex> lock(mu_);
    // Bodies may all return early (e.g. a fixed amount of work).
    done_cv_.wait_until(lock, window_end,
                        [&] { return done_ == bodies_.size(); });
  }
  stop_.store(true, std::memory_order_release);
  std::unique_lock<std::mutex> lock(mu_);
  const bool finished = done_cv_.wait_until(
      lock, window_end + std::chrono::duration_cast<Clock::duration>(deadline),
      [&] { return done_ == bodies_.size(); });
  elapsed_seconds_ = finished ? SecondsBetween(start, last_done_)
                              : SecondsBetween(start, window_end);
  if (!finished) return false;
  lock.unlock();
  for (std::thread& t : threads_) t.join();
  return true;
}

uint64_t LoadRun::attempted() const {
  uint64_t n = 0;
  for (const Client& c : clients_) n += c.started();
  return n;
}

uint64_t LoadRun::failed() const {
  uint64_t n = 0;
  for (const Client& c : clients_) n += c.failed();
  return n + outstanding();
}

uint64_t LoadRun::outstanding() const {
  uint64_t n = 0;
  for (const Client& c : clients_) {
    // Finished first: both only grow, so this order never underflows.
    const uint64_t finished = c.finished();
    n += c.started() - finished;
  }
  return n;
}

}  // namespace perfbench
