#include "lora/airtime.hpp"

#include <cmath>
#include <stdexcept>

namespace blam {

Time symbol_time(SpreadingFactor sf, double bandwidth_hz) {
  if (bandwidth_hz <= 0.0) throw std::invalid_argument{"symbol_time: bandwidth must be positive"};
  return Time::from_seconds(static_cast<double>(1 << sf_value(sf)) / bandwidth_hz);
}

double packet_symbols(const TxParams& params) {
  if (params.payload_bytes < 0) throw std::invalid_argument{"packet_symbols: negative payload"};
  if (params.preamble_symbols < 0) {
    throw std::invalid_argument{"packet_symbols: negative preamble"};
  }
  const int sf = sf_value(params.sf);
  const int de = params.low_data_rate_optimize ? 1 : 0;
  const int ih = params.explicit_header ? 0 : 1;
  const int crc = 1;  // uplink payload CRC always on
  // SX1276 datasheet payload-symbol formula. The paper's Eq. 7 is this
  // expression with IH=0, CRC=1 folded into the "+24" constant.
  const double numerator = 8.0 * params.payload_bytes - 4.0 * sf + 28.0 + 16.0 * crc - 20.0 * ih;
  const double denominator = 4.0 * (sf - 2 * de);
  const double coded_groups = std::max(std::ceil(numerator / denominator), 0.0);
  const double payload_symbols =
      8.0 + coded_groups * (static_cast<double>(static_cast<int>(params.cr)) + 4.0);
  return static_cast<double>(params.preamble_symbols) + 4.25 + payload_symbols;
}

Time time_on_air(const TxParams& params) {
  const double symbols = packet_symbols(params);
  const double tsym_s = static_cast<double>(1 << sf_value(params.sf)) / params.bandwidth_hz;
  return Time::from_seconds(symbols * tsym_s);
}

Energy tx_energy(const TxParams& params, const RadioEnergyModel& radio) {
  return radio.tx_power(params.tx_power_dbm) * time_on_air(params);
}

Energy rx_energy(Time duration, const RadioEnergyModel& radio) {
  if (duration < Time::zero()) throw std::invalid_argument{"rx_energy: negative duration"};
  return radio.rx_power() * duration;
}

}  // namespace blam
