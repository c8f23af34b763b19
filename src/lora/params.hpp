// LoRa physical-layer parameters and the SX1276-class radio energy model.
//
// Values mirror the Semtech SX1276 datasheet and the NS-3 `lorawan` module
// (Magrin et al.) that the paper builds its evaluation on: per-SF receiver
// sensitivities at 125 kHz, supply currents per radio state, and the US-915
// regional defaults.
#pragma once

#include <array>
#include <cstdint>
#include <string>

#include "common/units.hpp"

namespace blam {

/// LoRa spreading factor; SF7..SF12 per the LoRa specification.
enum class SpreadingFactor : std::uint8_t {
  kSF7 = 7,
  kSF8 = 8,
  kSF9 = 9,
  kSF10 = 10,
  kSF11 = 11,
  kSF12 = 12
};

[[nodiscard]] constexpr int sf_value(SpreadingFactor sf) { return static_cast<int>(sf); }
[[nodiscard]] constexpr std::size_t sf_index(SpreadingFactor sf) {
  return static_cast<std::size_t>(sf_value(sf) - 7);
}
[[nodiscard]] SpreadingFactor sf_from_value(int value);
[[nodiscard]] std::string to_string(SpreadingFactor sf);

inline constexpr std::array<SpreadingFactor, 6> kAllSpreadingFactors{
    SpreadingFactor::kSF7,  SpreadingFactor::kSF8,  SpreadingFactor::kSF9,
    SpreadingFactor::kSF10, SpreadingFactor::kSF11, SpreadingFactor::kSF12};

/// End-device uplink power: 14 dBm, the EU868 end-device ERP limit and the
/// NS-3 lorawan module's default. It is also ADR's ceiling, so no node ever
/// transmits louder than the power the shard planner cuts domains at.
inline constexpr double kDeviceTxPowerDbm = 14.0;

/// Complete parameter set for one transmission.
struct TxParams {
  SpreadingFactor sf{SpreadingFactor::kSF10};
  // blam-ckpt: skip -- scenario constant; ADR only ever changes sf and tx_power_dbm, which are serialized
  double bandwidth_hz{125e3};
  // blam-ckpt: skip -- scenario constant; ADR only ever changes sf and tx_power_dbm, which are serialized
  int preamble_symbols{8};
  // blam-ckpt: skip -- scenario constant (kPayloadBytes), re-applied at construction
  int payload_bytes{10};
  double tx_power_dbm{kDeviceTxPowerDbm};
  /// Low-data-rate optimization; mandated for SF11/SF12 at 125 kHz.
  // blam-ckpt: skip -- recomputed by with_auto_ldro() whenever sf changes (construction and ADR apply)
  bool low_data_rate_optimize{false};
  /// Explicit header (LoRaWAN always uses it); adds CRC/header symbols.
  // blam-ckpt: skip -- LoRaWAN constant, never mutated after construction
  bool explicit_header{true};

  /// Returns a copy with low_data_rate_optimize set per the LoRa spec rule
  /// (symbol time >= 16 ms, i.e. SF11/SF12 at 125 kHz).
  [[nodiscard]] TxParams with_auto_ldro() const;
};

/// Gateway receiver sensitivity (dBm) for a given SF at 125 kHz bandwidth,
/// per the NS-3 lorawan module / SX1301 datasheet.
[[nodiscard]] double gateway_sensitivity_dbm(SpreadingFactor sf);

/// End-device receiver sensitivity (dBm), a few dB worse than the gateway.
[[nodiscard]] double device_sensitivity_dbm(SpreadingFactor sf);

/// SX1276-class radio supply-power model at a 3.3 V rail.
struct RadioEnergyModel {
  double supply_volts{3.3};
  /// Receive-state supply current (amperes), LnaBoost on.
  double rx_current_a{0.0112};
  /// Sleep-state supply current.
  double sleep_current_a{0.2e-6};
  /// Idle/standby current.
  double standby_current_a{1.6e-3};

  /// Supply power while transmitting at `tx_power_dbm` (PA_BOOST chain,
  /// piecewise-linear interpolation of datasheet points).
  [[nodiscard]] Power tx_power(double tx_power_dbm) const;
  [[nodiscard]] Power rx_power() const { return Power::from_watts(rx_current_a * supply_volts); }
  [[nodiscard]] Power sleep_power() const {
    return Power::from_watts(sleep_current_a * supply_volts);
  }
};

/// The SX1276 every node carries: the datasheet currents above. Every
/// energy figure uses it, so it is a constant, not a scenario knob.
inline constexpr RadioEnergyModel kSx1276{};

// LoRaWAN class-A timing (the LoRaWAN 1.0 regional defaults the NS-3
// lorawan module uses): the RX1 and RX2 windows open 1 s and 2 s after the
// uplink ends.
inline constexpr Time kRx1Delay = Time::from_seconds(1.0);
inline constexpr Time kRx2Delay = Time::from_seconds(2.0);
/// Receive-window open duration when no downlink preamble is detected.
inline constexpr Time kRxWindowDuration = Time::from_ms(60);
/// Most transmissions of a confirmed uplink (first + retransmissions).
inline constexpr int kMaxTransmissions = 8;

}  // namespace blam
