#include "lora/params.hpp"

#include <algorithm>
#include <stdexcept>

namespace blam {

SpreadingFactor sf_from_value(int value) {
  if (value < 7 || value > 12) {
    throw std::invalid_argument{"spreading factor out of range [7,12]: " + std::to_string(value)};
  }
  return static_cast<SpreadingFactor>(value);
}

std::string to_string(SpreadingFactor sf) { return "SF" + std::to_string(sf_value(sf)); }

TxParams TxParams::with_auto_ldro() const {
  TxParams p = *this;
  // LDRO is required when the symbol duration reaches 16 ms.
  const double symbol_s = static_cast<double>(1 << sf_value(p.sf)) / p.bandwidth_hz;
  p.low_data_rate_optimize = symbol_s >= 16e-3;
  return p;
}

double gateway_sensitivity_dbm(SpreadingFactor sf) {
  // NS-3 lorawan GatewayLoraPhy::sensitivity, SF7..SF12 at 125 kHz.
  static constexpr std::array<double, 6> kSensitivity{-130.0, -132.5, -135.0,
                                                      -137.5, -140.0, -142.5};
  return kSensitivity[sf_index(sf)];
}

double device_sensitivity_dbm(SpreadingFactor sf) {
  // NS-3 lorawan EndDeviceLoraPhy::sensitivity, SF7..SF12 at 125 kHz.
  static constexpr std::array<double, 6> kSensitivity{-124.0, -127.0, -130.0,
                                                      -133.0, -135.0, -137.0};
  return kSensitivity[sf_index(sf)];
}

Power RadioEnergyModel::tx_power(double tx_power_dbm) const {
  // SX1276 datasheet supply currents (PA_BOOST): interpolate between the
  // published operating points and clamp outside.
  struct Point {
    double dbm;
    double amps;
  };
  static constexpr std::array<Point, 4> kPoints{
      {{7.0, 0.020}, {13.0, 0.029}, {17.0, 0.090}, {20.0, 0.120}}};

  double amps;
  if (tx_power_dbm <= kPoints.front().dbm) {
    amps = kPoints.front().amps;
  } else if (tx_power_dbm >= kPoints.back().dbm) {
    amps = kPoints.back().amps;
  } else {
    amps = kPoints.back().amps;
    for (std::size_t i = 1; i < kPoints.size(); ++i) {
      if (tx_power_dbm <= kPoints[i].dbm) {
        const auto& a = kPoints[i - 1];
        const auto& b = kPoints[i];
        const double t = (tx_power_dbm - a.dbm) / (b.dbm - a.dbm);
        amps = a.amps + t * (b.amps - a.amps);
        break;
      }
    }
  }
  return Power::from_watts(amps * supply_volts);
}

}  // namespace blam
