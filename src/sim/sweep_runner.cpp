#include "sim/sweep_runner.hpp"

#include <algorithm>
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

void fork_join(std::size_t n, const std::function<void(std::size_t)>& work) {
  // One party runs inline and allocates nothing (a one-slice engine steps
  // through here at every run_until); its exception propagates unchanged.
  if (n == 1) return work(0);
  std::vector<std::exception_ptr> errors(n);
  const auto guarded = [&](std::size_t i) {
    try {
      work(i);
    } catch (...) {
      errors[i] = std::current_exception();
    }
  };
  std::vector<std::thread> threads;
  threads.reserve(n > 1 ? n - 1 : 0);
  for (std::size_t i = 1; i < n; ++i) threads.emplace_back(guarded, i);
  if (n > 0) guarded(0);
  for (std::thread& thread : threads) thread.join();
  for (const std::exception_ptr& error : errors) {
    if (error != nullptr) std::rethrow_exception(error);
  }
}

void SweepRunner::run_indexed(std::size_t n, const std::function<void(std::size_t)>& body) {
  using Clock = std::chrono::steady_clock;
  std::vector<std::exception_ptr> errors(n);
  std::atomic<std::size_t> next{0};
  std::atomic<std::size_t> completed{0};
  std::atomic<bool> failed{false};
  std::mutex progress_mutex;

  // With one worker this is the serial path: every cell on the calling
  // thread, in index order.
  fork_join(std::min(static_cast<std::size_t>(jobs_), n), [&](std::size_t) {
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
      const std::size_t done = completed.fetch_add(1, std::memory_order_relaxed) + 1;
      if (progress_) {
        const double seconds = std::chrono::duration<double>(Clock::now() - start).count();
        const std::string name = label_ ? label_(i) : "cell " + std::to_string(i);
        const std::lock_guard<std::mutex> lock{progress_mutex};
        std::fprintf(stderr, "[sweep] %zu/%zu %s %.2f s\n", done, n, name.c_str(), seconds);
      }
    }
  });

  // Deterministic error reporting: the lowest-index failure wins, whatever
  // order the workers happened to hit failures in.
  for (std::size_t i = 0; i < n; ++i) {
    if (errors[i]) std::rethrow_exception(errors[i]);
  }
}

}  // namespace blam
