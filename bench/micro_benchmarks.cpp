// google-benchmark micro suite: throughput of the hot simulation primitives
// (event queue, airtime, interference evaluation, rainflow, the solar
// integral, and Algorithm 1 itself), plus a warmed-up end-to-end network
// loop reporting events and heap allocations per node period, and the
// 20k-node city engine's build reporting allocations and page faults per
// node.
#include <benchmark/benchmark.h>
#include <sys/resource.h>

#include <atomic>
#include <cstdint>
#include <cstdlib>
#include <memory>
#include <new>
#include <vector>

#include "bench_common.hpp"
#include "core/theta_controller.hpp"
#include "core/window_selector.hpp"
#include "degradation/rainflow.hpp"
#include "degradation/tracker.hpp"
#include "energy/solar.hpp"
#include "forecast/retx_estimator.hpp"
#include "lora/airtime.hpp"
#include "mac/codec.hpp"
#include "lora/interference.hpp"
#include "sim/event_queue.hpp"
#include "sim/shard_engine.hpp"

// Allocation counter for the allocs/period gauge: every (non-aligned)
// global new in this binary bumps it. The steady-state loop is expected to
// hold this flat — see DESIGN.md §9.
namespace {
std::atomic<std::uint64_t> g_heap_allocs{0};
}  // namespace

void* operator new(std::size_t size) {
  g_heap_allocs.fetch_add(1, std::memory_order_relaxed);
  if (void* p = std::malloc(size == 0 ? 1 : size)) return p;
  throw std::bad_alloc{};
}

void* operator new[](std::size_t size) {
  g_heap_allocs.fetch_add(1, std::memory_order_relaxed);
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

namespace {

using namespace blam;

void BM_EventQueueScheduleAndPop(benchmark::State& state) {
  EventQueue queue;
  Rng rng{1};
  // Keep a steady population of pending events.
  for (int i = 0; i < 1024; ++i) {
    queue.schedule(Time::from_us(rng.uniform_int(0, 1'000'000)), [] {});
  }
  std::int64_t clock = 1'000'000;
  for (auto _ : state) {
    queue.schedule(Time::from_us(clock + rng.uniform_int(0, 1'000'000)), [] {});
    auto popped = queue.pop();
    clock = popped.time.us();
    benchmark::DoNotOptimize(popped.callback);
  }
}
BENCHMARK(BM_EventQueueScheduleAndPop);

void BM_EventQueueScheduleAndPopCity(benchmark::State& state) {
  // A city slice's shape: 20k nodes each holding one period-start event
  // spread over a 33-min sampling period, and every firing schedules either
  // the node's next period or a near-term event 1 ms - 2 s ahead (attempt
  // end, server decision, ACK). The near-term inserts land in the calendar's
  // current bucket, so this times the run append and the side heap.
  constexpr std::int64_t kPeriodUs = 33LL * 60 * 1'000'000;
  EventQueue queue;
  Rng rng{1};
  for (int i = 0; i < 20'000; ++i) {
    queue.schedule(Time::from_us(rng.uniform_int(0, kPeriodUs)), [] {});
  }
  for (auto _ : state) {
    auto popped = queue.pop();
    const std::int64_t now = popped.time.us();
    const std::int64_t ahead = rng.uniform_int(0, 1) == 0 ? rng.uniform_int(1'000, 2'000'000)
                                                           : kPeriodUs;
    queue.schedule(Time::from_us(now + ahead), [] {});
    benchmark::DoNotOptimize(popped.callback);
  }
}
BENCHMARK(BM_EventQueueScheduleAndPopCity);

void BM_EventQueueCancel(benchmark::State& state) {
  EventQueue queue;
  for (auto _ : state) {
    const EventHandle h = queue.schedule(Time::from_us(100), [] {});
    benchmark::DoNotOptimize(queue.cancel(h));
  }
}
BENCHMARK(BM_EventQueueCancel);

void BM_TimeOnAir(benchmark::State& state) {
  TxParams params;
  params.sf = sf_from_value(static_cast<int>(state.range(0)));
  params.payload_bytes = 14;
  params = params.with_auto_ldro();
  for (auto _ : state) {
    benchmark::DoNotOptimize(time_on_air(params));
  }
}
BENCHMARK(BM_TimeOnAir)->Arg(7)->Arg(10)->Arg(12);

void BM_InterferenceSurvives(benchmark::State& state) {
  const auto interferers = state.range(0);
  InterferenceTracker tracker;
  Rng rng{2};
  AirPacket signal;
  signal.id = 0;
  signal.start = Time::zero();
  signal.end = Time::from_seconds(0.3);
  signal.rx_power_dbm = -100.0;
  signal.sf = SpreadingFactor::kSF10;
  tracker.add(signal);
  for (std::int64_t i = 1; i <= interferers; ++i) {
    AirPacket p = signal;
    p.id = static_cast<std::uint64_t>(i);
    p.start = Time::from_ms(rng.uniform_int(0, 300));
    p.end = p.start + Time::from_ms(300);
    p.rx_power_dbm = rng.uniform(-130.0, -90.0);
    p.sf = sf_from_value(static_cast<int>(rng.uniform_int(7, 12)));
    p.channel = static_cast<int>(rng.uniform_int(0, 3));
    tracker.add(p);
  }
  for (auto _ : state) {
    benchmark::DoNotOptimize(tracker.survives(signal));
  }
}
BENCHMARK(BM_InterferenceSurvives)->Arg(4)->Arg(32)->Arg(256);

void BM_RainflowPush(benchmark::State& state) {
  double sink = 0.0;
  RainflowCounter counter{[&sink](const RainflowCycle& c) { sink += c.range; }};
  Rng rng{3};
  double soc = 0.5;
  for (auto _ : state) {
    soc = std::min(1.0, std::max(0.0, soc + rng.uniform(-0.1, 0.1)));
    counter.push(soc);
  }
  benchmark::DoNotOptimize(sink);
}
BENCHMARK(BM_RainflowPush);

void BM_TrackerDegradationQuery(benchmark::State& state) {
  static const DegradationModel model{};
  DegradationTracker tracker{model, 25.0};
  Rng rng{4};
  Time now = Time::zero();
  double soc = 0.5;
  for (int i = 0; i < 10000; ++i) {
    now += Time::from_minutes(30.0);
    soc = std::min(1.0, std::max(0.0, soc + rng.uniform(-0.1, 0.1)));
    tracker.record(now, soc);
  }
  for (auto _ : state) {
    benchmark::DoNotOptimize(tracker.degradation(now));
  }
}
BENCHMARK(BM_TrackerDegradationQuery);

void BM_SolarEnergyBetween(benchmark::State& state) {
  SolarTraceConfig config;
  config.peak = Power::from_milli_watts(20.0);
  static const SolarTrace trace{config};
  Rng rng{5};
  for (auto _ : state) {
    const Time t0 = Time::from_us(rng.uniform_int(0, Time::from_days(3650.0).us()));
    benchmark::DoNotOptimize(trace.energy_between(t0, t0 + Time::from_minutes(1.0)));
  }
}
BENCHMARK(BM_SolarEnergyBetween);

void BM_Algorithm1Select(benchmark::State& state) {
  const auto n = static_cast<std::size_t>(state.range(0));
  Rng rng{6};
  std::vector<Energy> harvest;
  std::vector<Energy> cost;
  for (std::size_t i = 0; i < n; ++i) {
    harvest.push_back(Energy::from_joules(rng.uniform(0.0, 0.2)));
    cost.push_back(Energy::from_joules(rng.uniform(0.05, 0.1)));
  }
  LinearUtility utility;
  WindowSelectorInput input;
  input.battery = Energy::from_joules(1.0);
  input.storage_cap = Energy::from_joules(2.0);
  input.w_u = 0.7;
  input.w_b = 1.0;
  input.harvest = harvest;
  input.tx_cost = cost;
  input.max_tx = Energy::from_joules(0.8);
  input.utility = &utility;
  WindowSelector selector;
  for (auto _ : state) {
    benchmark::DoNotOptimize(selector.select(input));
  }
}
BENCHMARK(BM_Algorithm1Select)->Arg(10)->Arg(38)->Arg(60);

void BM_CodecUplinkRoundTrip(benchmark::State& state) {
  UplinkFrame frame;
  frame.node_id = 7;
  frame.seq = 42;
  frame.attempt = 1;
  frame.selected_window = 3;
  frame.app_payload_bytes = 10;
  frame.soc_report.push_back({Time::from_minutes(100.0), 0.7});
  frame.soc_report.push_back({Time::from_minutes(104.0), 0.5});
  for (auto _ : state) {
    const auto bytes = encode_uplink(frame);
    benchmark::DoNotOptimize(decode_uplink(bytes, frame.soc_report.back().t));
  }
}
BENCHMARK(BM_CodecUplinkRoundTrip);

void BM_RetxEstimatorRecordAndQuery(benchmark::State& state) {
  RetxEstimator estimator{60};
  Rng rng{9};
  std::size_t w = 0;
  for (auto _ : state) {
    estimator.record(w, static_cast<int>(rng.uniform_int(0, 7)));
    benchmark::DoNotOptimize(estimator.expected_transmissions(w));
    w = (w + 1) % 60;
  }
}
BENCHMARK(BM_RetxEstimatorRecordAndQuery);

constexpr benchmark::IterationCount kSteadyHours = 7 * 24;

void BM_NetworkSteadyState(benchmark::State& state) {
  // The whole engine, warmed up: after the first simulated day every pool
  // and scratch buffer has reached capacity, so the measured loop should
  // run allocation-free. One generated packet == one node period, which
  // normalizes both counters. The loop runs a fixed simulated week
  // (kSteadyHours one-hour steps), so events/period and allocs/period are
  // exact counts over that week, not over however many steps the timer
  // asked for; the time per step is Google Benchmark's own column.
  ScenarioConfig config = blam_scenario(static_cast<int>(state.range(0)), /*theta=*/0.5,
                                        /*seed=*/42);
  ShardedNetwork network{config};
  Time now = Time::from_days(1.0);
  network.run_until(now);

  const auto generated = [&network] {
    std::uint64_t total = 0;
    for (std::size_t i = 0; i < network.metrics().node_count(); ++i) {
      total += network.metrics().node(i).generated;
    }
    return total;
  };
  const std::uint64_t events0 = network.events_executed();
  const std::uint64_t periods0 = generated();
  const std::uint64_t allocs0 = g_heap_allocs.load(std::memory_order_relaxed);

  for (auto _ : state) {
    now += Time::from_hours(1.0);
    network.run_until(now);
  }

  const std::uint64_t events = network.events_executed() - events0;
  const std::uint64_t periods = generated() - periods0;
  const std::uint64_t allocs = g_heap_allocs.load(std::memory_order_relaxed) - allocs0;
  const auto per_period = [periods](std::uint64_t count) {
    return periods > 0 ? static_cast<double>(count) / static_cast<double>(periods) : 0.0;
  };
  state.counters["events/period"] = per_period(events);
  state.counters["allocs/period"] = per_period(allocs);
}
BENCHMARK(BM_NetworkSteadyState)
    ->Arg(10)
    ->Arg(50)
    ->Iterations(kSteadyHours)
    ->Unit(benchmark::kMillisecond);

void BM_EngineBuild(benchmark::State& state) {
  // The set-up every grid cell, sweep worker and resume pays: planning and
  // building perfbench's 20k-node city_serial engine (16 gateways, one
  // slice), then destroying it. allocs/node counts the plain operator new
  // calls a build makes (exact; the aligned node block is not counted) and
  // minflt/node this process's minor page faults (getrusage), both per node
  // built, so a change that regrows a column node by node or touches the
  // node block page by page shows here.
  constexpr int kNodes = 20000;
  ScenarioConfig config = blam_scenario(kNodes, /*theta=*/0.5, /*seed=*/1);
  config.n_gateways = 16;
  config.gateway_grid_pitch_m = 12000.0;
  config.cluster_radius_m = 1000.0;
  config.interference_floor_dbm = -143.0;
  config.sf_assignment = SfAssignment::kDistanceBased;

  const auto minor_faults = [] {
    rusage usage{};
    getrusage(RUSAGE_SELF, &usage);
    return static_cast<std::uint64_t>(usage.ru_minflt);
  };
  std::uint64_t allocs = 0;
  const std::uint64_t faults0 = minor_faults();
  for (auto _ : state) {
    const std::uint64_t allocs0 = g_heap_allocs.load(std::memory_order_relaxed);
    auto engine = std::make_unique<ShardedNetwork>(config);
    allocs += g_heap_allocs.load(std::memory_order_relaxed) - allocs0;
    state.PauseTiming();
    engine.reset();
    state.ResumeTiming();
  }
  const double nodes = static_cast<double>(state.iterations()) * kNodes;
  state.counters["allocs/node"] = static_cast<double>(allocs) / nodes;
  state.counters["minflt/node"] = static_cast<double>(minor_faults() - faults0) / nodes;
}
BENCHMARK(BM_EngineBuild)->Unit(benchmark::kMillisecond);

void BM_ThetaControllerDelivery(benchmark::State& state) {
  ThetaController controller{ThetaController::Config{}};
  std::uint32_t seq = 0;
  for (auto _ : state) {
    benchmark::DoNotOptimize(controller.on_delivery(1, ++seq));
  }
}
BENCHMARK(BM_ThetaControllerDelivery);

}  // namespace

int main(int argc, char** argv) {
  return blam::bench::guarded_main("micro_benchmarks", [&] {
    benchmark::Initialize(&argc, argv);
    if (benchmark::ReportUnrecognizedArguments(argc, argv)) return 1;
    benchmark::RunSpecifiedBenchmarks();
    benchmark::Shutdown();
    return 0;
  });
}
