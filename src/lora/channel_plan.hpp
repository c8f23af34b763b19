// US-915-style channel plan: N uplink channels with pseudo-random hopping
// (LoRaWAN's FHSS requirement in the US band) and downlink channels for the
// two class-A receive windows.
//
// Downlink channels are modeled as indices disjoint from uplink ones
// (US-915 downlink lives in a separate 500 kHz sub-band), so ACKs never
// collide with uplink data at the interference tracker.
#pragma once

#include <cstdint>

#include "common/rng.hpp"
#include "lora/params.hpp"

namespace blam {

class ChannelPlan {
 public:
  /// `uplink_channels` in [1, 64]; `downlink_channels` in [1, 8].
  explicit ChannelPlan(int uplink_channels = 8, int downlink_channels = 8);

  [[nodiscard]] int uplink_channels() const { return uplink_; }
  [[nodiscard]] int downlink_channels() const { return downlink_; }

  /// Pseudo-random uplink hop, as LoRaWAN mandates in the US band.
  [[nodiscard]] int random_uplink_channel(Rng& rng) const;

  /// RX1 downlink channel paired with an uplink channel (uplink mod 8 in
  /// US-915). Returned indices are offset past the uplink range so uplink
  /// and downlink never share an interference-tracker channel.
  [[nodiscard]] int rx1_channel(int uplink_channel) const;

  /// RX2 uses a fixed downlink channel and a fixed robust data rate.
  [[nodiscard]] int rx2_channel() const { return uplink_; }
  [[nodiscard]] SpreadingFactor rx2_spreading_factor() const { return SpreadingFactor::kSF12; }
  [[nodiscard]] double rx2_bandwidth_hz() const { return 500e3; }

 private:
  int uplink_;
  int downlink_;
};

}  // namespace blam
