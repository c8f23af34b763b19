// Ambient/battery temperature model.
//
// The paper's evaluation fixes the battery's internal temperature at 25 C
// ("we consider the battery to be insulated"). Real outdoor LPWAN nodes are
// not always insulated, and both aging terms (Eqs. 1-2) carry the shared
// temperature stress S_T — so this extension provides a deterministic
// seasonal + diurnal ambient model the degradation tracker can follow, with
// the paper's insulated behaviour as the default.
#pragma once

#include "common/units.hpp"

namespace blam {

/// Internal temperature of an insulated battery (paper Sec. IV-A.1: "we
/// consider the battery to be insulated" at 25 C). It is also the
/// temperature the gateway's degradation service assumes for every node.
inline constexpr double kInsulatedBatteryC = 25.0;

struct ThermalConfig {
  /// Insulated battery at kInsulatedBatteryC (the paper's setting).
  bool insulated{true};

  // Outdoor model (used when insulated == false):
  //   T(t) = mean + seasonal * cos(year phase) + diurnal * cos(day phase)
  // with the year's coldest point at `seasonal_trough` into the year and
  // the day's coldest at `diurnal_trough` into the day.
  double mean_c{15.0};
  double seasonal_amplitude_c{10.0};
  double diurnal_amplitude_c{6.0};

  // Phase troughs are strongly-typed simulation times (U1: raw double
  // days/hours cannot sneak back in). Defaults: mid-January, ~4 am.
  /// Offset into the year of the seasonal minimum; must lie in [0, 365 d).
  Time seasonal_trough{Time::from_days(15.0)};
  /// Offset into the day of the diurnal minimum; must lie in [0, 24 h).
  Time diurnal_trough{Time::from_hours(4.0)};
};

class TemperatureModel {
 public:
  explicit TemperatureModel(const ThermalConfig& config);

  /// Battery temperature (deg C) at simulation time `t`.
  [[nodiscard]] double at(Time t) const;

  [[nodiscard]] const ThermalConfig& config() const { return config_; }

 private:
  ThermalConfig config_;
};

}  // namespace blam
