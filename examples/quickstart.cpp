// Quickstart: build a 50-node LoRa network, run one simulated week under
// plain LoRaWAN and under the proposed battery lifespan-aware MAC (H-50),
// and print the headline metrics side by side.
//
//   $ ./quickstart [nodes] [days] [seed]
#include <cstdio>

#include "example_args.hpp"
#include "net/experiment.hpp"

int main(int argc, char** argv) {
  using namespace blam;

  const example::Args args{argc, argv, "[nodes] [days] [seed]", 3};
  const int nodes = args.nodes(1, 50);
  const double days = args.days(2, 7.0);
  const std::uint64_t seed = args.seed(3, 42);

  std::printf("BLAM quickstart: %d nodes, %.1f days, seed %llu\n\n", nodes, days,
              static_cast<unsigned long long>(seed));

  // Both protocols face the same weather.
  const ScenarioConfig lorawan = lorawan_scenario(nodes, seed);
  const auto trace = build_shared_trace(lorawan);

  const Time duration = Time::from_days(days);
  const ExperimentResult base = run_scenario(lorawan, duration, trace);
  const ExperimentResult blam = run_scenario(blam_scenario(nodes, 0.5, seed), duration, trace);

  std::printf("%-22s %12s %12s\n", "metric", "LoRaWAN", "H-50");
  std::printf("%-22s %12.4f %12.4f\n", "mean PRR", base.summary.mean_prr, blam.summary.mean_prr);
  std::printf("%-22s %12.4f %12.4f\n", "min PRR", base.summary.min_prr, blam.summary.min_prr);
  std::printf("%-22s %12.4f %12.4f\n", "mean utility", base.summary.mean_utility,
              blam.summary.mean_utility);
  std::printf("%-22s %12.2f %12.2f\n", "mean latency (s)", base.summary.mean_latency_s,
              blam.summary.mean_latency_s);
  std::printf("%-22s %12.4f %12.4f\n", "avg RETX per packet", base.summary.mean_retx,
              blam.summary.mean_retx);
  std::printf("%-22s %12.3f %12.3f\n", "total TX energy (J)",
              base.summary.total_tx_energy.joules(), blam.summary.total_tx_energy.joules());
  std::printf("%-22s %12.6f %12.6f\n", "mean degradation", base.summary.degradation_box.mean,
              blam.summary.degradation_box.mean);
  std::printf("%-22s %12.6f %12.6f\n", "max degradation", base.summary.max_degradation,
              blam.summary.max_degradation);

  auto failure_breakdown = [](const ExperimentResult& r) {
    unsigned long long generated = 0, delivered = 0, exhausted = 0, drops = 0, brownouts = 0;
    double soc_sum = 0.0, cal_sum = 0.0, cyc_sum = 0.0;
    for (const NodeMetrics& n : r.nodes) {
      generated += n.generated;
      delivered += n.delivered;
      exhausted += n.exhausted;
      drops += n.policy_drops;
      brownouts += n.brownouts;
      soc_sum += n.mean_soc;
      cal_sum += n.calendar_linear;
      cyc_sum += n.cycle_linear;
    }
    const double inv = 1.0 / static_cast<double>(r.nodes.size());
    std::printf("  %-10s generated=%llu delivered=%llu exhausted=%llu policy-drops=%llu "
                "brownouts=%llu mean-SoC=%.3f cal=%.5f cyc=%.5f\n",
                r.label.c_str(), generated, delivered, exhausted, drops, brownouts,
                soc_sum * inv, cal_sum * inv, cyc_sum * inv);
  };
  std::printf("\nfailure breakdown:\n");
  failure_breakdown(base);
  failure_breakdown(blam);

  std::printf("\ngateway (LoRaWAN): arrivals=%llu received=%llu interference=%llu "
              "half-duplex=%llu\n",
              static_cast<unsigned long long>(base.gateway.arrivals),
              static_cast<unsigned long long>(base.gateway.received),
              static_cast<unsigned long long>(base.gateway.lost_interference),
              static_cast<unsigned long long>(base.gateway.lost_half_duplex));
  std::printf("gateway (H-50):    arrivals=%llu received=%llu interference=%llu half-duplex=%llu\n",
              static_cast<unsigned long long>(blam.gateway.arrivals),
              static_cast<unsigned long long>(blam.gateway.received),
              static_cast<unsigned long long>(blam.gateway.lost_interference),
              static_cast<unsigned long long>(blam.gateway.lost_half_duplex));

  std::printf("\nH-50 majority-window histogram:");
  for (std::size_t w = 0; w < blam.window_histogram.size() && w < 8; ++w) {
    std::printf(" w%zu=%d", w, blam.window_histogram[w]);
  }
  std::printf("\nevents executed: LoRaWAN=%llu H-50=%llu\n",
              static_cast<unsigned long long>(base.events_executed),
              static_cast<unsigned long long>(blam.events_executed));
  return 0;
}
