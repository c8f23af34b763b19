// Table I — "System overhead": the paper measures CPU / memory utilization
// of the proposed MAC vs plain LoRaWAN on a Raspberry Pi with psutil
// (+12.56% CPU, +5.73% memory, +7.14% executable size, +2.61% USS).
//
// Substitution (no Raspberry Pi here): we measure the same quantity — the
// marginal compute and state cost of the proposed MAC — directly:
//   * CPU: wall time of one per-period MAC decision (forecast 10 windows,
//     estimate costs, run Algorithm 1) vs the baseline decision ("transmit
//     now"), plus the per-ACK estimator updates;
//   * memory: bytes of protocol state a node must keep (estimators and
//     selection scratch; the forecast reads the node's own harvester) for
//     BLAM vs LoRaWAN.
#include <chrono>
#include <cstdio>
#include <numeric>
#include <vector>

#include "bench_common.hpp"
#include "common/csv.hpp"
#include "core/window_selector.hpp"
#include "forecast/ewma.hpp"
#include "forecast/retx_estimator.hpp"
#include "lora/airtime.hpp"
#include "mac/blam_mac.hpp"
#include "mac/lorawan_mac.hpp"

namespace {

volatile double g_sink = 0.0;

template <typename F>
double time_ns_per_call(F&& f, int iterations) {
  // Warm up.
  for (int i = 0; i < 1000; ++i) f(i);
  const auto start = std::chrono::steady_clock::now();
  for (int i = 0; i < iterations; ++i) f(i);
  const auto end = std::chrono::steady_clock::now();
  return std::chrono::duration<double, std::nano>(end - start).count() / iterations;
}

}  // namespace

int main() {
  using namespace blam;
  using namespace blam::bench;

  banner("Table I - system overhead of the proposed MAC vs LoRaWAN",
         "paper (RPi + psutil): +12.56% CPU, +5.73% memory, +7.14% exe size, +2.61% USS");

  const int n_windows = 10;  // 10-min period, 1-min windows (paper's example)
  const int iterations = scaled(2'000'000, 200'000);

  // Shared fixtures.
  RadioEnergyModel radio;
  TxParams params;
  params.sf = SpreadingFactor::kSF10;
  params.payload_bytes = 14;
  params = params.with_auto_ldro();
  const Energy attempt = tx_energy(params, radio) + radio.rx_power() * Time::from_ms(120);

  SolarTraceConfig solar_cfg;
  solar_cfg.peak = Power::from_watts(3.0 * attempt.joules() / 60.0);
  solar_cfg.seed = 3;
  const SolarTrace trace{solar_cfg};
  const Harvester harvester{trace, 1.0};
  Ewma ewma{kEtxEwmaBeta};
  ewma.observe(attempt.joules());
  RetxEstimator retx{static_cast<std::size_t>(n_windows)};
  for (int w = 0; w < n_windows; ++w) retx.record(static_cast<std::size_t>(w), w % 3);
  LinearUtility utility;

  LorawanMac lorawan;
  BlamMac blam{0.5};
  std::vector<Energy> harvest(static_cast<std::size_t>(n_windows));
  std::vector<Energy> cost(static_cast<std::size_t>(n_windows));

  // Baseline decision: LoRaWAN "transmit immediately".
  WindowContext base_ctx;
  base_ctx.n_windows = n_windows;
  base_ctx.utility = &utility;
  base_ctx.battery = attempt * 4;
  base_ctx.battery_capacity = attempt * 8;
  base_ctx.soc_cap = blam.soc_cap();
  base_ctx.max_tx = attempt * 8;
  const double ns_lorawan = time_ns_per_call(
      [&](int) { g_sink = g_sink + lorawan.select_window(base_ctx).window; }, iterations);

  // Proposed decision: forecast + cost estimation + Algorithm 1.
  const double ns_blam = time_ns_per_call(
      [&](int i) {
        const Time start = Time::from_minutes(static_cast<double>(i % 1440));
        harvester.energy_windows(start, Time::from_minutes(1.0), n_windows, harvest.data());
        for (int w = 0; w < n_windows; ++w) {
          cost[static_cast<std::size_t>(w)] = Energy::from_joules(
              ewma.value_or(attempt.joules()) *
              retx.expected_transmissions(static_cast<std::size_t>(w)));
        }
        WindowContext ctx = base_ctx;
        ctx.w_u = 0.7;
        ctx.harvest_forecast = harvest;
        ctx.tx_cost = cost;
        g_sink = g_sink + blam.select_window(ctx).window;
      },
      iterations);

  // Per-ACK estimator update (BLAM only).
  const double ns_update = time_ns_per_call(
      [&](int i) {
        retx.record(static_cast<std::size_t>(i % n_windows), i % 3);
        ewma.observe(attempt.joules() * (1.0 + 0.01 * (i % 7)));
      },
      iterations);

  // Protocol state footprint per node.
  const std::size_t state_lorawan = sizeof(LorawanMac);
  const std::size_t state_blam =
      sizeof(BlamMac) + sizeof(Ewma) + sizeof(RetxEstimator) +
      static_cast<std::size_t>(n_windows) * (sizeof(std::uint64_t) * 10 + 2 * sizeof(Energy));

  std::printf("\n%-34s %12s %12s\n", "", "LoRaWAN", "H-x (BLAM)");
  std::printf("%-34s %12.1f %12.1f\n", "per-period decision [ns]", ns_lorawan, ns_blam);
  std::printf("%-34s %12.1f %12.1f\n", "per-ACK estimator update [ns]", 0.0, ns_update);
  std::printf("%-34s %12zu %12zu\n", "protocol state per node [bytes]", state_lorawan,
              state_blam);

  // The paper's CPU overhead is relative to the whole MAC stack; the radio
  // driver work (common to both) dominates at ~100 us per packet event, so
  // express the decision overhead relative to that common cost too.
  const double common_ns = 100'000.0;
  const double cpu_overhead_pct =
      100.0 * (ns_blam + ns_update - ns_lorawan) / (common_ns + ns_lorawan);
  std::printf("\ndecision-path overhead: %.1f ns/period -> ~%.1f%% of a ~100 us MAC event "
              "(paper: +12.56%% whole-process CPU on an RPi)\n",
              ns_blam - ns_lorawan, cpu_overhead_pct);

  // Only the sizeof row is a property of the code; the ns rows above are
  // host timings and stay on stdout, so the committed CSV regenerates.
  write_csv("table1_overhead",
            {"metric", "lorawan", "blam"},
            {{"state_bytes", CsvWriter::cell(static_cast<std::uint64_t>(state_lorawan)),
              CsvWriter::cell(static_cast<std::uint64_t>(state_blam))}});
  return 0;
}
