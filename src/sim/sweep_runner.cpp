#include "sim/sweep_runner.hpp"

#include <atomic>
#include <chrono>
#include <cstdint>
#include <cstdio>
#include <exception>
#include <limits>
#include <mutex>
#include <thread>

#include "common/env_number.hpp"

namespace blam {

namespace {

[[nodiscard]] int hardware_jobs() {
  const unsigned hw = std::thread::hardware_concurrency();
  return hw > 0 ? static_cast<int>(hw) : 1;
}

}  // namespace

int resolve_jobs(int requested) {
  if (requested > 0) return requested;
  if (const auto env = env_number<std::int64_t>("BLAM_JOBS", 1, std::numeric_limits<int>::max())) {
    return static_cast<int>(*env);
  }
  return hardware_jobs();
}

SweepRunner::SweepRunner(SweepOptions options)
    : jobs_{resolve_jobs(options.jobs)},
      progress_{options.progress},
      label_{std::move(options.label)} {}

void SweepRunner::run_indexed(std::size_t n, const std::function<void(std::size_t)>& body) {
  using Clock = std::chrono::steady_clock;
  cell_seconds_.assign(n, 0.0);
  if (n == 0) return;

  std::vector<std::exception_ptr> errors(n);
  std::atomic<std::size_t> next{0};
  std::atomic<std::size_t> completed{0};
  std::atomic<bool> failed{false};
  std::mutex progress_mutex;

  auto worker = [&] {
    for (;;) {
      const std::size_t i = next.fetch_add(1, std::memory_order_relaxed);
      if (i >= n || failed.load(std::memory_order_relaxed)) return;
      const Clock::time_point start = Clock::now();
      try {
        body(i);
      } catch (...) {
        errors[i] = std::current_exception();
        failed.store(true, std::memory_order_relaxed);
      }
      cell_seconds_[i] = std::chrono::duration<double>(Clock::now() - start).count();
      const std::size_t done = completed.fetch_add(1, std::memory_order_relaxed) + 1;
      if (progress_) {
        const std::string name = label_ ? label_(i) : "cell " + std::to_string(i);
        const std::lock_guard<std::mutex> lock{progress_mutex};
        std::fprintf(stderr, "[sweep] %zu/%zu %s %.2f s\n", done, n, name.c_str(),
                     cell_seconds_[i]);
      }
    }
  };

  const std::size_t workers = std::min(static_cast<std::size_t>(jobs_), n);
  if (workers <= 1) {
    worker();  // serial degenerate path: runs on the calling thread, in order
  } else {
    std::vector<std::thread> pool;
    pool.reserve(workers);
    for (std::size_t w = 0; w < workers; ++w) pool.emplace_back(worker);
    for (std::thread& t : pool) t.join();
  }

  // Deterministic error reporting: the lowest-index failure wins, whatever
  // order the workers happened to hit failures in.
  for (std::size_t i = 0; i < n; ++i) {
    if (errors[i]) std::rethrow_exception(errors[i]);
  }
}

}  // namespace blam
