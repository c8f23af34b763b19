// Per-node footprint guards. A city slice is what large runs are made of,
// so the heap a node costs there (Node itself, its estimators and storage
// models, its share of the server's ledger and of the metrics) and the
// checkpoint bytes it costs are each pinned against a ceiling 10% above the
// measured value: a change that re-grows per-node state or re-densifies the
// checkpoint fails here rather than as RSS drift in a benchmark. The heap is
// measured as the change in glibc's in-use heap bytes (mallinfo2), which the
// sanitizers' allocators do not feed, and allocations are counted by
// replacing the global operator new (sanitizer builds keep their own); the
// stream length and sizeof(Node) are exact everywhere.
#include <gtest/gtest.h>
#include <malloc.h>

#include <atomic>
#include <cstddef>
#include <cstdint>
#include <cstdlib>
#include <functional>
#include <memory>
#include <new>
#include <sstream>
#include <string>
#include <utility>

#include "net/experiment.hpp"
#include "common/state_codec.hpp"
#include "sim/shard_engine.hpp"
#include "sim/sweep_runner.hpp"

#if defined(__SANITIZE_ADDRESS__) || defined(__SANITIZE_THREAD__)
#define BLAM_FOREIGN_MALLOC 1
#elif defined(__has_feature)
#if __has_feature(address_sanitizer) || __has_feature(thread_sanitizer)
#define BLAM_FOREIGN_MALLOC 1
#endif
#endif

#ifndef BLAM_FOREIGN_MALLOC
namespace {
std::atomic<std::uint64_t> g_allocations{0};
}  // namespace

void* operator new(std::size_t size) {
  g_allocations.fetch_add(1, std::memory_order_relaxed);
  if (void* p = std::malloc(size == 0 ? 1 : size)) return p;
  throw std::bad_alloc{};
}

void* operator new[](std::size_t size) {
  g_allocations.fetch_add(1, std::memory_order_relaxed);
  if (void* p = std::malloc(size == 0 ? 1 : size)) return p;
  throw std::bad_alloc{};
}

// GCC pairs these deletes with the *default* operator new and warns about
// free(); the replacement news above are malloc-backed, so the pairing is
// correct.
#pragma GCC diagnostic push
#pragma GCC diagnostic ignored "-Wmismatched-new-delete"
void operator delete(void* p) noexcept { std::free(p); }
void operator delete(void* p, std::size_t) noexcept { std::free(p); }
void operator delete[](void* p) noexcept { std::free(p); }
void operator delete[](void* p, std::size_t) noexcept { std::free(p); }
#pragma GCC diagnostic pop
#endif

namespace blam {
namespace {

constexpr int kNodes = 2000;

// Measured on the 2k-node city below (GCC 12, libstdc++, glibc 2.36), the
// engine on one slice: 1,762 B/node after construction and 2,174 B/node
// after one day, 5 B/node above a bare whole-fleet Network (the planner's
// slice of every node). With a dense u32 retransmission histogram and
// expected-transmissions row over every forecast window, the same slice
// cost 3,321 and 3,678 B/node; with u64 histograms and two u64 per-window
// totals arrays, 4,865 and 5,219 B/node; with a forecaster and a
// duty-cycle limiter in every Node too, 4,960 and 5,313 B/node; before the
// audible-gateway lists and the slice-wide airtime memo and MAC policy,
// 5,337 and 5,935 B/node; with a heap vector per forecast window for the
// retransmission histogram plus per-node selection scratch, 6,980 and
// 8,981 B/node.
constexpr double kBuiltCeiling = 1934.0;
constexpr double kOneDayCeiling = 2387.0;
// Heap allocations the build makes per node (operator new calls, frees not
// subtracted): 7.24, against 9.23 with the dense histogram and expected
// row, 10.23 with the retransmission totals arrays too, 14.22 with a
// per-node link vector, airtime memo and MAC policy, and 51 with the
// per-window histograms.
constexpr double kBuildAllocationsCeiling = 7.95;
// Heap allocations per node period over the slice's second day, once the
// first day has grown every pool and scratch buffer: 17 over 87,847
// periods (1.94e-4), the same with the dense histogram. A node's first
// packet in a window it has not sent in before inserts a history row, the
// one allocation a period may still make; on this slice every node's
// history row already exists after day 1.
constexpr double kSteadyAllocationsCeiling = 2.13e-4;
// The Node object itself, which the event queue prefetches ahead of each of
// its events: 824 B, against 848 B with the dense retransmission history,
// 872 B with the retransmission totals arrays, 968 B with a SolarForecaster
// (80 B) and a DutyCycleLimiter (16 B), 976 B with a per-node copy of the
// RX-window energy and 1,072 B before that; pinned exactly.
constexpr std::size_t kNodeBytes = 824;

/// The perfbench city grid: 16 gateways 12 km apart, nodes within 1 km of
/// their cell's gateway.
ScenarioConfig city_slice() {
  ScenarioConfig c = blam_scenario(kNodes, /*theta=*/0.5, /*seed=*/1);
  c.n_gateways = 16;
  c.gateway_grid_pitch_m = 12000.0;
  c.cluster_radius_m = 1000.0;
  c.interference_floor_dbm = -143.0;
  c.sf_assignment = SfAssignment::kDistanceBased;
  return c;
}

#ifndef BLAM_FOREIGN_MALLOC
/// Bytes in use: chunks in the arenas (uordblks) plus mmapped ones (hblkhd),
/// so a large array counts wherever glibc's dynamic mmap threshold put it.
double in_use_bytes() {
  const struct mallinfo2 info = mallinfo2();
  return static_cast<double>(info.uordblks + info.hblkhd);
}
#endif

TEST(NodeFootprint, NodeObjectBytes) {
  RecordProperty("node_bytes", static_cast<int>(sizeof(Node)));
  EXPECT_LE(sizeof(Node), kNodeBytes);
}

TEST(NodeFootprint, CitySliceHeapBytesPerNode) {
#ifdef BLAM_FOREIGN_MALLOC
  GTEST_SKIP() << "the sanitizer allocator replaces malloc; mallinfo2 does not see it";
#else
  const ScenarioConfig c = city_slice();
  // The solar trace is shared by every slice of a run, not per node.
  const auto trace = build_shared_trace(c);
  const double before = in_use_bytes();
  const std::uint64_t allocations_before = g_allocations.load(std::memory_order_relaxed);
  auto network = std::make_unique<ShardedNetwork>(c, trace);
  const double built = (in_use_bytes() - before) / kNodes;
  const double allocations =
      static_cast<double>(g_allocations.load(std::memory_order_relaxed) - allocations_before) /
      kNodes;
  network->run_until(Time::from_days(1.0));
  const double one_day = (in_use_bytes() - before) / kNodes;
  RecordProperty("built_bytes_per_node", static_cast<int>(built));
  RecordProperty("one_day_bytes_per_node", static_cast<int>(one_day));
  RecordProperty("build_allocations_per_node_x100", static_cast<int>(allocations * 100.0));
  EXPECT_LE(built, kBuiltCeiling) << "heap per node after construction";
  EXPECT_LE(allocations, kBuildAllocationsCeiling) << "heap allocations per node at build";
  EXPECT_LE(one_day, kOneDayCeiling) << "heap per node after one simulated day";
  // The guard must measure something: a node is more than its Node object.
  EXPECT_GT(built, static_cast<double>(sizeof(Node)));
#endif
}

// The engine on the same city after one day and finalize_metrics(), per
// node, at shards 1 and 4: 2,174 and 2,246 B/node, against 2,631 and
// 2,737 B/node when the engine kept a second, merged row per node beside
// the rows its slices owned (a bare whole-fleet Network: 2,169 B/node).
constexpr std::pair<int, double> kShardedOneDayCeilings[] = {{1, 2392.0}, {4, 2472.0}};

TEST(NodeFootprint, ShardedEngineHeapBytesPerNode) {
#ifdef BLAM_FOREIGN_MALLOC
  GTEST_SKIP() << "the sanitizer allocator replaces malloc; mallinfo2 does not see it";
#else
  for (const auto& [shards, ceiling] : kShardedOneDayCeilings) {
    SCOPED_TRACE(shards);
    ScenarioConfig c = city_slice();
    c.shards = shards;
    const auto trace = build_shared_trace(c);
    const double before = in_use_bytes();
    auto engine = std::make_unique<ShardedNetwork>(c, trace);
    ASSERT_EQ(engine->plan().effective, shards);
    engine->run_until(Time::from_days(1.0));
    engine->finalize_metrics();
    const double per_node = (in_use_bytes() - before) / kNodes;
    RecordProperty("one_day_bytes_per_node_shards" + std::to_string(shards),
                   static_cast<int>(per_node));
    EXPECT_LE(per_node, ceiling) << "heap per node after one simulated day and finalize_metrics()";
  }
#endif
}

TEST(NodeFootprint, CitySliceSteadyStateAllocationsPerPeriod) {
#ifdef BLAM_FOREIGN_MALLOC
  GTEST_SKIP() << "the sanitizer allocator replaces operator new; the counter does not see it";
#else
  const ScenarioConfig c = city_slice();
  ShardedNetwork network{c, build_shared_trace(c)};
  network.run_until(Time::from_days(1.0));
  // One generated packet is one node period.
  const auto periods = [&network] {
    std::uint64_t total = 0;
    for (std::size_t i = 0; i < network.metrics().node_count(); ++i) {
      total += network.metrics().node(i).generated;
    }
    return total;
  };
  const std::uint64_t periods_before = periods();
  const std::uint64_t allocations_before = g_allocations.load(std::memory_order_relaxed);
  network.run_until(Time::from_days(2.0));
  const double day_two_periods = static_cast<double>(periods() - periods_before);
  const double per_period =
      static_cast<double>(g_allocations.load(std::memory_order_relaxed) - allocations_before) /
      day_two_periods;
  RecordProperty("steady_allocations_per_period_x1e6", static_cast<int>(per_period * 1e6));
  ASSERT_GT(day_two_periods, 0.0);
  EXPECT_LE(per_period, kSteadyAllocationsCeiling) << "heap allocations per node period, day 2";
#endif
}

// A one-slice engine goes through fork_join at every run_until, so one
// party must cost no allocation: the parent's error vector made one a call.
TEST(NodeFootprint, OnePartyForkJoinAllocatesNothing) {
#ifdef BLAM_FOREIGN_MALLOC
  GTEST_SKIP() << "the sanitizer allocator replaces operator new; the counter does not see it";
#else
  std::size_t runs = 0;
  const std::function<void(std::size_t)> work = [&runs](std::size_t) { ++runs; };
  const std::uint64_t before = g_allocations.load(std::memory_order_relaxed);
  for (int i = 0; i < 168; ++i) fork_join(1, work);
  EXPECT_EQ(g_allocations.load(std::memory_order_relaxed) - before, 0u);
  EXPECT_EQ(runs, 168u);
#endif
}

// Measured on the same slice after one day: 1,768 B/node in "blamsim v4".
// "blamsim v3" cost 1,931 B/node (its forecaster RNG, T_off and duty-defer
// tokens), and the dense "blamsim v2" histogram rows 3,577 B/node.
constexpr double kCheckpointCeiling = 1945.0;

TEST(CheckpointBytes, CitySlicePerNode) {
  const ScenarioConfig c = city_slice();
  ShardedNetwork network{c, build_shared_trace(c)};
  network.run_until(Time::from_days(1.0));
  std::ostringstream out;
  StateWriter w{out};
  network.slice(0).checkpoint_state(w);
  const double per_node = static_cast<double>(out.view().size()) / kNodes;
  RecordProperty("checkpoint_bytes_per_node", static_cast<int>(per_node));
  EXPECT_LE(per_node, kCheckpointCeiling) << "checkpoint bytes per node after one day";
}

}  // namespace
}  // namespace blam
