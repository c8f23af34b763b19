// Time-on-air (paper Eq. 7) and transmission energy (paper Eq. 6) for a LoRa
// packet, following the Semtech SX1276 datasheet formulas the paper cites.
#pragma once

#include "common/units.hpp"
#include "lora/params.hpp"

namespace blam {

/// Total symbol count of a packet, paper Eq. 7:
///   L = preamble + 4.25 + 8 + max(ceil((8*payload - 4*SF + 28 + 16*CRC
///        - 20*IH) / (4*(SF - 2*DE))) * (CR+4), 0)
/// expressed with the paper's compact form (explicit header + uplink CRC).
/// Returns a fractional symbol count (preamble contributes 4.25).
[[nodiscard]] double packet_symbols(const TxParams& params);

/// Time on air of the whole packet: packet_symbols() symbols of 2^SF / BW.
[[nodiscard]] Time time_on_air(const TxParams& params);

/// Electrical energy consumed by one transmission, paper Eq. 6:
///   E_tx = P_tx * L_symbols * 2^SF / BW
/// where P_tx is the radio supply power at the configured output power.
[[nodiscard]] Energy tx_energy(const TxParams& params, const RadioEnergyModel& radio);

}  // namespace blam
