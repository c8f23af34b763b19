#include "net/scenario.hpp"

#include <cmath>
#include <cstdio>
#include <stdexcept>
#include <string>

#include "mac/blam_mac.hpp"
#include "mac/greedy_green_mac.hpp"
#include "mac/lorawan_mac.hpp"

namespace blam {

std::string ScenarioConfig::policy_label() const {
  char buf[32];
  switch (policy) {
    case PolicyKind::kLorawan:
      return "LoRaWAN";
    case PolicyKind::kBlam:
      std::snprintf(buf, sizeof buf, "H-%.0f", theta * 100.0);
      return buf;
    case PolicyKind::kThetaOnly:
      std::snprintf(buf, sizeof buf, "H-%.0fC", theta * 100.0);
      return buf;
    case PolicyKind::kGreedyGreen:
      return "GreedyGreen";
  }
  return "?";
}

void ScenarioConfig::validate() const {
  // NaN slips through every range comparison below (NaN <= x is false), so
  // finiteness is checked first, field by field.
  const auto require_finite = [](double value, const char* field) {
    if (!std::isfinite(value)) {
      char buf[128];
      std::snprintf(buf, sizeof buf, "ScenarioConfig: %s must be finite (got %g)", field, value);
      throw std::invalid_argument{buf};
    }
  };
  require_finite(radius_m, "radius_m");
  require_finite(gateway_grid_pitch_m, "gateway_grid_pitch_m");
  require_finite(cluster_radius_m, "cluster_radius_m");
  require_finite(interference_floor_dbm, "interference_floor_dbm");
  require_finite(theta, "theta");
  require_finite(w_b, "w_b");
  require_finite(supercap_tx_buffer, "supercap_tx_buffer");
  require_finite(stale_feedback_k, "stale_feedback_k");
  require_finite(path_loss.shadowing_sigma_db, "path_loss.shadowing_sigma_db");
  if (n_nodes <= 0) throw std::invalid_argument{"ScenarioConfig: n_nodes must be positive"};
  if (radius_m <= 0.0) throw std::invalid_argument{"ScenarioConfig: radius_m must be positive"};
  if (n_gateways <= 0) throw std::invalid_argument{"ScenarioConfig: n_gateways must be positive"};
  if (min_period <= Time::zero() || min_period > max_period) {
    throw std::invalid_argument{"ScenarioConfig: invalid period range"};
  }
  if (forecast_window <= Time::zero() || forecast_window > min_period) {
    throw std::invalid_argument{"ScenarioConfig: forecast window must be in (0, min_period]"};
  }
  if (max_period / forecast_window > kMaxForecastWindows) {
    throw std::invalid_argument{"ScenarioConfig: max_period holds more than " +
                                std::to_string(kMaxForecastWindows) + " forecast windows"};
  }
  if (theta <= 0.0 || theta > 1.0) throw std::invalid_argument{"ScenarioConfig: theta in (0,1]"};
  if (w_b < 0.0 || w_b > 1.0) throw std::invalid_argument{"ScenarioConfig: w_b in [0,1]"};
  if (dissemination_period <= Time::zero()) {
    throw std::invalid_argument{"ScenarioConfig: dissemination_period must be positive"};
  }
  if (supercap_tx_buffer < 0.0) {
    throw std::invalid_argument{"ScenarioConfig: supercap_tx_buffer must be >= 0"};
  }
  if (stale_feedback_k < 0.0) {
    throw std::invalid_argument{"ScenarioConfig: stale_feedback_k must be >= 0"};
  }
  // A negative sigma would run exactly like 0 (Link draws shadowing only
  // for sigma > 0) under a different scenario key.
  if (path_loss.shadowing_sigma_db < 0.0) {
    throw std::invalid_argument{"ScenarioConfig: path_loss.shadowing_sigma_db must be >= 0"};
  }
  if (gateway_grid_pitch_m < 0.0) {
    throw std::invalid_argument{"ScenarioConfig: gateway_grid_pitch_m must be >= 0"};
  }
  if (cluster_radius_m < 0.0) {
    throw std::invalid_argument{"ScenarioConfig: cluster_radius_m must be >= 0"};
  }
  if (gateway_grid_pitch_m > 0.0 && cluster_radius_m <= 0.0) {
    throw std::invalid_argument{
        "ScenarioConfig: grid layout (gateway_grid_pitch_m > 0) needs cluster_radius_m > 0"};
  }
  // Anything the floor drops would have been dropped by the SF12 sensitivity
  // check anyway — a floor above that would change decode outcomes, not just
  // interference bookkeeping.
  if (interference_floor_dbm > gateway_sensitivity_dbm(SpreadingFactor::kSF12)) {
    throw std::invalid_argument{
        "ScenarioConfig: interference_floor_dbm must be <= the SF12 gateway sensitivity"};
  }
  if (shards < 0) {
    throw std::invalid_argument{"ScenarioConfig: shards must be >= 0"};
  }
  faults.validate();
}

std::unique_ptr<MacPolicy> make_policy(const ScenarioConfig& config) {
  switch (config.policy) {
    case PolicyKind::kLorawan:
      return std::make_unique<LorawanMac>();
    case PolicyKind::kBlam:
      return std::make_unique<BlamMac>(config.theta);
    case PolicyKind::kThetaOnly:
      return std::make_unique<ThetaOnlyMac>(config.theta);
    case PolicyKind::kGreedyGreen:
      return std::make_unique<GreedyGreenMac>();
  }
  throw std::logic_error{"make_policy: unknown policy kind"};
}

std::unique_ptr<UtilityFunction> make_utility(const ScenarioConfig& config) {
  // The utility ablation's shapes (ablation_weights runs both): exp(-3 t/n)
  // keeps ~5% utility at the period's end; the step keeps full utility
  // through the first 30% of the period and 0.1 after it.
  constexpr double kExponentialLambda = 3.0;
  constexpr double kStepDeadline = 0.3;
  constexpr double kStepFloor = 0.1;
  switch (config.utility) {
    case UtilityKind::kLinear:
      return std::make_unique<LinearUtility>();
    case UtilityKind::kExponential:
      return std::make_unique<ExponentialUtility>(kExponentialLambda);
    case UtilityKind::kStep:
      return std::make_unique<StepUtility>(kStepDeadline, kStepFloor);
  }
  throw std::logic_error{"make_utility: unknown utility kind"};
}

ScenarioConfig lorawan_scenario(int n_nodes, std::uint64_t seed) {
  ScenarioConfig c;
  c.label = "LoRaWAN";
  c.policy = PolicyKind::kLorawan;
  c.theta = 1.0;
  c.n_nodes = n_nodes;
  c.seed = seed;
  return c;
}

ScenarioConfig blam_scenario(int n_nodes, double theta, std::uint64_t seed) {
  ScenarioConfig c;
  c.policy = PolicyKind::kBlam;
  c.theta = theta;
  c.n_nodes = n_nodes;
  c.seed = seed;
  c.label = c.policy_label();
  return c;
}

ScenarioConfig greedy_green_scenario(int n_nodes, std::uint64_t seed) {
  ScenarioConfig c;
  c.policy = PolicyKind::kGreedyGreen;
  c.theta = 1.0;
  c.n_nodes = n_nodes;
  c.seed = seed;
  c.label = c.policy_label();
  return c;
}

ScenarioConfig theta_only_scenario(int n_nodes, double theta, std::uint64_t seed) {
  ScenarioConfig c;
  c.policy = PolicyKind::kThetaOnly;
  c.theta = theta;
  c.n_nodes = n_nodes;
  c.seed = seed;
  c.label = c.policy_label();
  return c;
}

}  // namespace blam
