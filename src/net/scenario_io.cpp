#include "net/scenario_io.hpp"

#include <algorithm>
#include <sstream>
#include <stdexcept>

#include "common/state_codec.hpp"
#include "core/theta_controller.hpp"

namespace blam {

namespace {

PolicyKind policy_from_string(const std::string& s) {
  if (s == "lorawan") return PolicyKind::kLorawan;
  if (s == "blam") return PolicyKind::kBlam;
  if (s == "theta_only") return PolicyKind::kThetaOnly;
  if (s == "greedy_green") return PolicyKind::kGreedyGreen;
  throw std::runtime_error{"scenario: unknown policy '" + s +
                           "' (expected lorawan|blam|theta_only|greedy_green)"};
}

UtilityKind utility_from_string(const std::string& s) {
  if (s == "linear") return UtilityKind::kLinear;
  if (s == "exponential") return UtilityKind::kExponential;
  if (s == "step") return UtilityKind::kStep;
  throw std::runtime_error{"scenario: unknown utility '" + s +
                           "' (expected linear|exponential|step)"};
}

SfAssignment sf_assignment_from_string(const std::string& s) {
  if (s == "fixed") return SfAssignment::kFixed;
  if (s == "distance") return SfAssignment::kDistanceBased;
  throw std::runtime_error{"scenario: unknown sf_assignment '" + s +
                           "' (expected fixed|distance)"};
}

std::string describe_utility(const ScenarioConfig& c) {
  std::ostringstream out;
  switch (c.utility) {
    case UtilityKind::kLinear:
      out << "linear";
      break;
    case UtilityKind::kExponential:
      out << "exponential";
      break;
    case UtilityKind::kStep:
      out << "step";
      break;
  }
  return out.str();
}

std::string describe_theta_control(const ScenarioConfig& c) {
  if (!c.adaptive_theta) return "fixed";
  const ThetaController::Config t{};
  std::ostringstream out;
  // Network starts the caps at the scenario's theta, clamped into range.
  out << "adaptive, [" << t.theta_min << ", " << t.theta_max << "] from "
      << std::clamp(c.theta, t.theta_min, t.theta_max);
  out << " step " << t.step << ", loss " << t.loss_lower << "/" << t.loss_raise;
  out << " per " << t.window_packets << " packets";
  return out.str();
}

std::string describe_degradation(const DegradationParams& d) {
  std::ostringstream out;
  out << "k1 " << d.k1 << ", k2 " << d.k2 << ", k3 " << d.k3 << ", k4 " << d.k4;
  out << ", k5 " << d.k5 << ", k6 " << d.k6 << ", SEI " << d.alpha_sei << "/" << d.k_sei;
  out << ", EoL " << d.eol_threshold;
  return out.str();
}

}  // namespace

ScenarioConfig scenario_from_config(const ConfigFile& file) {
  ScenarioConfig c;

  c.seed = static_cast<std::uint64_t>(file.get_int("seed", static_cast<std::int64_t>(c.seed)));
  c.n_nodes = static_cast<int>(file.get_int("nodes", c.n_nodes));
  c.radius_m = file.get_positive_double("radius_m", c.radius_m);
  c.n_gateways = static_cast<int>(file.get_int("gateways", c.n_gateways));
  c.gateway_grid_pitch_m =
      file.get_non_negative_double("gateway_grid_pitch_m", c.gateway_grid_pitch_m);
  c.cluster_radius_m = file.get_non_negative_double("cluster_radius_m", c.cluster_radius_m);
  c.interference_floor_dbm =
      file.get_double("interference_floor_dbm", c.interference_floor_dbm);
  c.shards = static_cast<int>(file.get_int("shards", c.shards));

  c.min_period =
      Time::from_minutes(file.get_positive_double("min_period_min", c.min_period.minutes()));
  c.max_period =
      Time::from_minutes(file.get_positive_double("max_period_min", c.max_period.minutes()));
  c.forecast_window = Time::from_minutes(
      file.get_positive_double("forecast_window_min", c.forecast_window.minutes()));

  c.policy = policy_from_string(file.get_string("policy", "lorawan"));
  c.theta = file.get_double("theta", c.theta);
  c.w_b = file.get_double("w_b", c.w_b);
  c.utility = utility_from_string(file.get_string("utility", "linear"));

  c.uplink_channels = static_cast<int>(file.get_int("uplink_channels", c.uplink_channels));
  c.downlink_channels = static_cast<int>(file.get_int("downlink_channels", c.downlink_channels));
  c.sf_assignment = sf_assignment_from_string(file.get_string("sf_assignment", "fixed"));
  c.path_loss.shadowing_sigma_db =
      file.get_non_negative_double("shadowing_sigma_db", c.path_loss.shadowing_sigma_db);
  c.adr_enabled = file.get_bool("adr", c.adr_enabled);

  c.supercap_tx_buffer = file.get_non_negative_double("supercap_tx_buffer", c.supercap_tx_buffer);

  c.thermal.insulated = file.get_bool("insulated", c.thermal.insulated);
  c.thermal.mean_c = file.get_double("ambient_mean_c", c.thermal.mean_c);
  c.dissemination_period = Time::from_days(
      file.get_positive_double("dissemination_days", c.dissemination_period.days()));
  const std::string chemistry = file.get_string("chemistry", "lmo");
  if (chemistry == "lmo") {
    c.degradation = DegradationParams::lmo();
  } else if (chemistry == "nmc") {
    c.degradation = DegradationParams::nmc();
  } else if (chemistry == "lfp") {
    c.degradation = DegradationParams::lfp();
  } else {
    throw std::runtime_error{"scenario: unknown chemistry '" + chemistry +
                             "' (expected lmo|nmc|lfp)"};
  }

  // Fault injection & graceful degradation (all default to "no faults").
  c.faults.outage_daily_start = Time::from_hours(
      file.get_double("fault_outage_daily_start_h", c.faults.outage_daily_start.hours()));
  c.faults.outage_daily_duration = Time::from_hours(
      file.get_double("fault_outage_daily_duration_h", c.faults.outage_daily_duration.hours()));
  c.faults.outage_random_per_day =
      file.get_non_negative_double("fault_outage_random_per_day", c.faults.outage_random_per_day);
  c.faults.ack_loss_good = file.get_double("fault_ack_loss_good", c.faults.ack_loss_good);
  c.faults.ack_loss_bad = file.get_double("fault_ack_loss_bad", c.faults.ack_loss_bad);
  c.faults.crash_per_year =
      file.get_non_negative_double("fault_crash_per_year", c.faults.crash_per_year);
  c.faults.drought_start =
      Time::from_days(file.get_double("fault_drought_start_days", c.faults.drought_start.days()));
  c.faults.drought_duration = Time::from_days(
      file.get_double("fault_drought_duration_days", c.faults.drought_duration.days()));
  c.faults.drought_scale = file.get_double("fault_drought_scale", c.faults.drought_scale);
  c.faults.report_loss =
      file.get_non_negative_double("fault_report_loss", c.faults.report_loss);
  c.faults.report_dup = file.get_non_negative_double("fault_report_dup", c.faults.report_dup);
  c.faults.report_reorder =
      file.get_non_negative_double("fault_report_reorder", c.faults.report_reorder);
  c.faults.report_corrupt =
      file.get_non_negative_double("fault_report_corrupt", c.faults.report_corrupt);
  c.faults.report_truncate =
      file.get_non_negative_double("fault_report_truncate", c.faults.report_truncate);
  c.stale_feedback_k = file.get_non_negative_double("stale_feedback_k", c.stale_feedback_k);
  c.ack_failure_backoff = file.get_bool("ack_failure_backoff", c.ack_failure_backoff);

  c.adaptive_theta = file.get_bool("adaptive_theta", c.adaptive_theta);
  const std::int64_t ingest_batch =
      file.get_int("ingest_batch", static_cast<std::int64_t>(c.ingest_batch));
  if (ingest_batch < 1) {
    throw std::runtime_error{"scenario: ingest_batch must be >= 1 (got " +
                             std::to_string(ingest_batch) + ")"};
  }
  c.ingest_batch = static_cast<std::size_t>(ingest_batch);
  c.label = file.get_string("label", c.policy_label());

  const auto unused = file.unused_keys();
  if (!unused.empty()) {
    std::string joined;
    for (const auto& key : unused) joined += (joined.empty() ? "" : ", ") + key;
    throw std::runtime_error{"scenario: unknown keys (typo?): " + joined};
  }
  c.validate();
  return c;
}

std::string describe_scenario(const ScenarioConfig& c) {
  std::ostringstream out;
  out << "label              = " << c.label << "\n"
      << "policy             = " << c.policy_label() << " (theta " << c.theta << ", w_b " << c.w_b
      << ")\n"
      << "utility            = " << describe_utility(c) << "\n"
      << "theta control      = " << describe_theta_control(c) << "\n"
      << "nodes / gateways   = " << c.n_nodes << " / " << c.n_gateways;
  // A grid deployment places gateways by pitch and nodes by cluster radius;
  // radius_m is unused there.
  if (c.gateway_grid_pitch_m > 0.0) {
    out << ", grid pitch " << c.gateway_grid_pitch_m / 1000.0 << " km, cluster "
        << c.cluster_radius_m / 1000.0 << " km\n";
  } else {
    out << " over " << c.radius_m / 1000.0 << " km\n";
  }
  out << "period             = [" << c.min_period.minutes() << ", " << c.max_period.minutes()
      << "] min, window " << c.forecast_window.minutes() << " min\n"
      << "radio              = " << (c.sf_assignment == SfAssignment::kFixed
                                         ? to_string(kFixedSf)
                                         : std::string{"distance-based SF"})
      << ", " << kDeviceTxPowerDbm << " dBm, " << c.uplink_channels << " channels, ADR "
      << (c.adr_enabled ? "on" : "off") << "\n"
      << "battery            = " << kBatteryDays << " nominal days, theta cap " << c.theta
      << (c.supercap_tx_buffer > 0.0
              ? ", supercap " + std::to_string(c.supercap_tx_buffer) + " tx"
              : std::string{})
      << "\n"
      << "degradation        = " << describe_degradation(c.degradation) << "\n"
      << "thermal            = "
      << (c.thermal.insulated ? "insulated " + std::to_string(kInsulatedBatteryC) + " C"
                              : "outdoor, mean " + std::to_string(c.thermal.mean_c) + " C")
      << "\n"
      << "seed               = " << c.seed << "\n";
  if (c.faults.any() || c.stale_feedback_k > 0.0 || c.ack_failure_backoff) {
    out << "faults             = ";
    if (c.faults.outage_daily_duration > Time::zero()) {
      out << "daily outage " << c.faults.outage_daily_duration.hours() << " h @ +"
          << c.faults.outage_daily_start.hours() << " h; ";
    }
    if (c.faults.outage_random_per_day > 0.0) {
      out << c.faults.outage_random_per_day << " random outages/day; ";
    }
    if (c.faults.ack_loss_enabled()) {
      out << "GE ack loss " << c.faults.ack_loss_good << "/" << c.faults.ack_loss_bad << "; ";
    }
    if (c.faults.crashes_enabled()) {
      out << c.faults.crash_per_year << " crashes/node/year; ";
    }
    if (c.faults.drought_enabled()) {
      out << "drought x" << c.faults.drought_scale << " for "
          << c.faults.drought_duration.days() << " d @ day " << c.faults.drought_start.days()
          << "; ";
    }
    if (c.faults.reports_enabled()) {
      out << "report faults loss/dup/reorder/corrupt/truncate " << c.faults.report_loss << "/"
          << c.faults.report_dup << "/" << c.faults.report_reorder << "/"
          << c.faults.report_corrupt << "/" << c.faults.report_truncate << "; ";
    }
    out << "stale_k " << c.stale_feedback_k << ", backoff "
        << (c.ack_failure_backoff ? "on" : "off") << "\n";
  }
  return out.str();
}

void write_scenario_key(StateWriter& w, const ScenarioConfig& c) {
  w.put_string(c.label);
  for (const std::uint64_t v : {c.seed, c.solar.seed, c.ingest_batch}) w.put_u64(v);
  for (const bool v :
       {c.adaptive_theta, c.adr_enabled, c.thermal.insulated, c.ack_failure_backoff}) {
    w.put_u64(v ? 1 : 0);
  }
  for (const int v : {c.n_nodes, c.n_gateways, c.shards, c.uplink_channels, c.downlink_channels,
                      static_cast<int>(c.policy), static_cast<int>(c.utility),
                      static_cast<int>(c.sf_assignment)}) {
    w.put_i64(v);
  }
  for (const Time t :
       {c.min_period, c.max_period, c.forecast_window, c.dissemination_period,
        c.faults.outage_daily_start, c.faults.outage_daily_duration, c.faults.drought_start,
        c.faults.drought_duration}) {
    w.put_i64(t.us());
  }
  for (const double v :
       {c.radius_m, c.gateway_grid_pitch_m, c.cluster_radius_m, c.interference_floor_dbm, c.theta,
        c.w_b, c.path_loss.shadowing_sigma_db, c.supercap_tx_buffer, c.degradation.k1,
        c.degradation.k2, c.degradation.k3, c.degradation.k4, c.degradation.k5, c.degradation.k6,
        c.degradation.alpha_sei, c.degradation.k_sei, c.degradation.eol_threshold, c.thermal.mean_c,
        c.faults.outage_random_per_day, c.faults.ack_loss_good, c.faults.ack_loss_bad,
        c.faults.crash_per_year, c.faults.report_loss, c.faults.report_dup, c.faults.report_reorder,
        c.faults.report_corrupt, c.faults.report_truncate, c.faults.drought_scale,
        c.stale_feedback_k}) {
    w.put_double(v);
  }
}

}  // namespace blam
