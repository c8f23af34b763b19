// Fault recovery walkthrough: a small BLAM network hit by a daily gateway
// outage, a two-day solar drought and occasional node crashes, with the
// graceful-degradation extensions switched on (stale-feedback ramp +
// ACK-failure backoff). Prints a per-day timeline showing delivery collapse
// and recovery, then the recovery observability metrics.
//
//   $ ./fault_recovery [nodes] [seed]
#include <cstdio>

#include "example_args.hpp"
#include "net/deployment_plan.hpp"
#include "net/network.hpp"

int main(int argc, char** argv) {
  using namespace blam;

  const example::Args args{argc, argv, "[nodes] [seed]", 2};
  const int nodes = args.nodes(1, 20);
  const std::uint64_t seed = args.seed(2, 7);

  ScenarioConfig c = blam_scenario(nodes, 0.5, seed);
  // Resilience knobs under test.
  c.stale_feedback_k = 3.0;
  c.ack_failure_backoff = true;
  // Faults: gateway dark 09:00-15:00 every day, a drought over days 4-6
  // with 10% of normal harvest, and roughly one crash per node-month.
  c.faults.outage_daily_start = Time::from_hours(9.0);
  c.faults.outage_daily_duration = Time::from_hours(6.0);
  c.faults.drought_start = Time::from_days(4.0);
  c.faults.drought_duration = Time::from_days(2.0);
  c.faults.drought_scale = 0.1;
  c.faults.crash_per_year = 12.0;

  std::printf("fault recovery demo: %d nodes, seed %llu\n", nodes,
              static_cast<unsigned long long>(seed));
  std::printf("faults: outage 09:00-15:00 daily, drought days 4-6 at 10%%, "
              "~1 crash per node-month\n");
  std::printf("resilience: stale_feedback_k=3, ack_failure_backoff=on\n\n");

  // Paper sizing: one day of autonomy instead of the simulator's kBatteryDays.
  DeploymentPlan plan = plan_deployment(c, Rng{c.seed, salt::kRootStream});
  for (NodePlan& node : plan.nodes) node.battery_capacity = node.battery_capacity / kBatteryDays;
  Network network{c, plan, nullptr, nullptr, NetworkSlice::whole(plan)};
  std::printf("%4s %10s %10s %10s %10s %9s\n", "day", "generated", "delivered", "lost_out",
              "brownouts", "crashes");

  struct Snapshot {
    std::uint64_t generated{0}, delivered{0}, lost{0}, brownouts{0}, crashes{0};
  };
  // 12 days: the drought ends on day 6 and (with this weather seed) an
  // overcast stretch follows around days 8-10, so the tail shows the
  // network climbing back to its pre-fault delivery rate.
  Snapshot prev;
  const int total_days = 12;
  for (int day = 1; day <= total_days; ++day) {
    network.run_until(Time::from_days(static_cast<double>(day)));
    Snapshot now;
    for (const auto& node : network.nodes()) {
      const NodeMetrics& m = network.metrics().node(node->id());
      now.generated += m.generated;
      now.delivered += m.delivered;
      now.lost += m.lost_in_outage;
      now.brownouts += m.brownouts;
      now.crashes += m.crashes;
    }
    std::printf("%4d %10llu %10llu %10llu %10llu %9llu%s\n", day,
                static_cast<unsigned long long>(now.generated - prev.generated),
                static_cast<unsigned long long>(now.delivered - prev.delivered),
                static_cast<unsigned long long>(now.lost - prev.lost),
                static_cast<unsigned long long>(now.brownouts - prev.brownouts),
                static_cast<unsigned long long>(now.crashes - prev.crashes),
                (day >= 5 && day <= 6) ? "   <- drought" : "");
    prev = now;
  }

  network.finalize_metrics();
  const NetworkSummary s = network.metrics().summarize();
  const GatewayMetrics& gw = network.metrics().gateway();
  std::printf("\nrecovery observability over %d days:\n", total_days);
  std::printf("  total gateway outage        %8.1f h\n", s.total_outage_s / 3600.0);
  std::printf("  packets lost in outage      %8llu\n",
              static_cast<unsigned long long>(s.lost_in_outage));
  std::printf("  uplinks at a dead gateway   %8llu\n",
              static_cast<unsigned long long>(gw.lost_outage));
  std::printf("  w_u recomputes skipped      %8llu\n",
              static_cast<unsigned long long>(gw.recomputes_skipped));
  std::printf("  node crashes                %8llu\n", static_cast<unsigned long long>(s.crashes));
  std::printf("  mean time-to-recover        %8.1f s\n", s.mean_recovery_s);
  std::printf("  max  time-to-recover        %8.1f s\n", s.max_recovery_s);
  std::printf("  mean w_u feedback age       %8.1f h\n", s.mean_w_age_s / 3600.0);
  std::printf("  max  w_u feedback age       %8.1f h\n", s.max_w_age_s / 3600.0);
  std::printf("  mean PRR                    %8.4f\n", s.mean_prr);
  return 0;
}
