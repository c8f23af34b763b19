// Link budget: positions, log-distance path loss with per-link shadowing,
// received power, and distance-based spreading-factor assignment — the
// propagation side of the NS-3 lorawan module re-implemented.
#pragma once

#include <cmath>
#include <optional>

#include "common/rng.hpp"
#include "common/units.hpp"
#include "lora/params.hpp"

namespace blam {

struct Position {
  double x_m{0.0};
  double y_m{0.0};

  [[nodiscard]] double distance_to(const Position& other) const {
    const double dx = x_m - other.x_m;
    const double dy = y_m - other.y_m;
    return std::sqrt(dx * dx + dy * dy);
  }
};

/// Log-distance path loss:
///   PL(d) = kReferenceLossDb + 10 * kExponent * log10(d / kReferenceM)
/// The constants are the NS-3 lorawan smart-city example's (Magrin et al.);
/// only the shadowing spread varies between committed scenarios.
struct PathLossModel {
  static constexpr double kReferenceM = 1.0;
  static constexpr double kReferenceLossDb = 7.7;
  static constexpr double kExponent = 3.76;

  /// Log-normal shadowing standard deviation (dB); 0 disables shadowing.
  double shadowing_sigma_db{0.0};

  /// Deterministic (median) path loss in dB at distance `d_m` (>= 1 m
  /// enforced by clamping, matching NS-3).
  [[nodiscard]] static double path_loss_db(double d_m);
};

/// One device<->gateway link with a frozen shadowing realization. Shadowing
/// is drawn once per link (slow fading), as in the NS-3 scenario the paper
/// uses, so a node's SF assignment is stable.
class Link {
 public:
  Link(Position device, Position gateway, const PathLossModel& model, Rng& rng);

  [[nodiscard]] double total_loss_db() const { return loss_db_; }

 private:
  double loss_db_;
};

/// The distance-based SF rule (NS-3 "SetSpreadingFactorsUp"): the smallest
/// SF whose *gateway* sensitivity an uplink received at `rx_power_dbm`
/// clears; nullopt if even SF12 does not. plan_deployment applies it to
/// each node's strongest gateway.
[[nodiscard]] std::optional<SpreadingFactor> min_spreading_factor(double rx_power_dbm);

}  // namespace blam
