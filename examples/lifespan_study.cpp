// Lifespan study: sweeps the charging threshold theta and reports the
// projected network battery lifespan (time to first EoL) together with the
// service metrics, exposing the theta trade-off the paper's Figs. 5-8
// explore. Uses accelerated aging by default so the example finishes in
// seconds; pass a calendar-rate multiplier of 1 for real-time aging.
//
//   $ ./lifespan_study [nodes] [aging-multiplier] [seed]
#include <cstdio>

#include "example_args.hpp"
#include "net/experiment.hpp"

int main(int argc, char** argv) {
  using namespace blam;

  const example::Args args{argc, argv, "[nodes] [aging-multiplier 0.01..1e6] [seed]", 3};
  const int nodes = args.nodes(1, 30);
  // The 30-year horizon shrinks by the multiplier: 0.01 keeps it at 3,000
  // years, inside the simulator clock.
  const double aging = args.number(2, 20.0, 0.01, 1e6);
  const std::uint64_t seed = args.seed(3, 2025);

  std::printf("lifespan study: %d nodes, aging accelerated %.0fx, theta sweep\n", nodes, aging);
  std::printf("(lifespans below are re-scaled back to real time)\n\n");

  auto config_for = [&](double theta) {
    ScenarioConfig c = theta >= 1.0 ? lorawan_scenario(nodes, seed)
                                    : blam_scenario(nodes, theta, seed);
    c.degradation.k1 *= aging;
    c.degradation.k6 *= aging;
    return c;
  };

  const auto trace = build_shared_trace(config_for(1.0));
  const Time step = Time::from_days(10.0);
  const Time horizon = Time::from_days(365.0 * 30.0 / aging);

  std::printf("%-10s %14s %10s %10s %10s\n", "protocol", "lifespan_yrs", "PRR", "utility",
              "retx");
  for (double theta : {1.0, 0.7, 0.5, 0.3, 0.1}) {
    const ScenarioConfig config = config_for(theta);
    const LifespanResult life = run_until_eol(config, horizon, step, trace);
    // Re-run the first stretch for service metrics (cheap at these scales).
    const ExperimentResult service =
        run_scenario(config, std::min(horizon, Time::from_days(120.0)), trace);
    std::printf("%-10s %14.2f %10.4f %10.4f %10.3f%s\n", config.label.c_str(),
                life.lifespan.days() * aging / 365.0, service.summary.mean_prr,
                service.summary.mean_utility, service.summary.mean_retx,
                life.reached_eol ? "" : "  [horizon]");
  }

  std::printf("\nshape: lifespan grows as theta shrinks, but very low theta starts\n"
              "dropping packets (PRR) once the capped battery cannot bridge the night.\n");
  return 0;
}
