// Deterministic parallel sweep engine for scenario grids.
//
// The figure binaries evaluate protocol x seed x density grids whose cells
// are mutually independent: every cell owns its Network, whose random
// streams derive from the cell's own ScenarioConfig::seed (see common/rng.hpp),
// and the only cross-cell object — a shared SolarTrace — returns the same
// values to every reader (it fills its year on demand under its own lock;
// see energy/solar.hpp). SweepRunner exploits that independence: it fans cell bodies
// across worker threads (the caller is worker 0) pulling indices from a
// shared work queue, while each result lands in its submission-order slot.
// Because no cell reads or writes another cell's state, the aggregated
// output is bit-identical to running the same cells serially, regardless of
// worker count or scheduling.
//
// Thread-safety contract for cell bodies: a body may touch only (a) state it
// creates itself, (b) its own result slot, and (c) objects whose const
// interface is safe to call concurrently for the duration of the sweep:
// immutable ones, or a shared const SolarTrace, which synchronizes its own
// on-demand fill. The engine provides no synchronization beyond the
// fork/join boundary.
#pragma once

#include <cstddef>
#include <functional>
#include <optional>
#include <string>
#include <type_traits>
#include <utility>
#include <vector>

namespace blam {

/// Runs work(i) for every i in [0, n): work(0) on the calling thread and
/// work(1..n-1) each on its own thread, then joins them all and rethrows the
/// exception of the lowest index that threw. Every index runs whatever the
/// others do; n <= 1 starts no thread, and n == 1 allocates nothing (work(0)
/// runs inline, its exception propagating as is). Every index owning a thread
/// is what lets callers make the indices parties of one barrier
/// (ShardBarrier): no party ever waits for another to be scheduled. This is
/// the one place in src/ that starts threads. A thread that cannot be started
/// terminates the process, since the indices already running may be waiting
/// for it.
void fork_join(std::size_t n, const std::function<void(std::size_t)>& work);

/// Worker count resolution: an explicit positive `requested` wins; otherwise
/// the BLAM_JOBS environment variable (a positive integer); otherwise
/// std::thread::hardware_concurrency() (at least 1). A malformed or
/// non-positive BLAM_JOBS falls through to the hardware default.
[[nodiscard]] int resolve_jobs(int requested = 0);

struct SweepOptions {
  /// Workers, the calling thread included; 0 = BLAM_JOBS env, else
  /// hardware_concurrency.
  int jobs{0};
  /// Print one "[sweep] k/n <label> t s" line per completed cell (stderr,
  /// completion order — stdout stays clean for figure rows).
  bool progress{false};
  /// Optional cell label for progress lines, indexed by cell.
  std::function<std::string(std::size_t)> label;
};

class SweepRunner {
 public:
  explicit SweepRunner(SweepOptions options = {});

  /// Resolved worker count (>= 1).
  [[nodiscard]] int jobs() const { return jobs_; }

  /// Runs body(i) for i in [0, n). min(jobs, n) workers drain a shared
  /// index queue through fork_join, worker 0 on the calling thread; with
  /// jobs() == 1 that is a plain loop on the calling thread (the serial
  /// path). If any cell throws, no further cells are started (in-flight
  /// cells finish) and after the join the exception of the lowest-index
  /// failed cell is rethrown.
  void run_indexed(std::size_t n, const std::function<void(std::size_t)>& body);

  /// Maps fn over [0, n) and returns the results in submission (index)
  /// order — bit-identical to the serial loop `for i: out[i] = fn(i)`.
  template <typename Fn>
  auto map(std::size_t n, Fn&& fn) -> std::vector<std::invoke_result_t<Fn&, std::size_t>> {
    using R = std::invoke_result_t<Fn&, std::size_t>;
    static_assert(std::is_move_constructible_v<R>, "SweepRunner::map: results must be movable");
    std::vector<std::optional<R>> slots(n);
    run_indexed(n, [&](std::size_t i) { slots[i].emplace(fn(i)); });
    std::vector<R> out;
    out.reserve(n);
    for (auto& slot : slots) out.push_back(std::move(*slot));
    return out;
  }

 private:
  int jobs_;
  bool progress_;
  std::function<std::string(std::size_t)> label_;
};

}  // namespace blam
