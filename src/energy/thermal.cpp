#include "energy/thermal.hpp"

#include <cmath>
#include <numbers>
#include <stdexcept>

namespace blam {

TemperatureModel::TemperatureModel(const ThermalConfig& config) : config_{config} {
  if (config.seasonal_amplitude_c < 0.0 || config.diurnal_amplitude_c < 0.0) {
    throw std::invalid_argument{"TemperatureModel: amplitudes must be non-negative"};
  }
  if (config.seasonal_trough < Time::zero() || config.seasonal_trough >= Time::from_days(365.0)) {
    throw std::invalid_argument{"TemperatureModel: seasonal_trough must lie in [0, 365 d)"};
  }
  if (config.diurnal_trough < Time::zero() || config.diurnal_trough >= Time::from_hours(24.0)) {
    throw std::invalid_argument{"TemperatureModel: diurnal_trough must lie in [0, 24 h)"};
  }
}

double TemperatureModel::at(Time t) const {
  if (config_.insulated) return kInsulatedBatteryC;
  const double day = t.days();
  // Coldest day of the year at seasonal_trough (default: day 15,
  // mid-January); warmest half a year later. The arithmetic below mirrors
  // the historical raw-double form exactly: the Time troughs convert to
  // whole days/hours losslessly, so default-config traces are bit-identical
  // to those produced before the strong-typing migration.
  const double seasonal =
      -config_.seasonal_amplitude_c *
      std::cos(2.0 * std::numbers::pi * (day - config_.seasonal_trough.days()) / 365.0);
  // Coldest hour of the day at diurnal_trough (default 4 am).
  const double hour = (day - std::floor(day)) * 24.0;
  const double diurnal =
      -config_.diurnal_amplitude_c *
      std::cos(2.0 * std::numbers::pi * (hour - config_.diurnal_trough.hours()) / 24.0);
  return config_.mean_c + seasonal + diurnal;
}

}  // namespace blam
