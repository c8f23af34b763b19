// Degradation Impact Factor (paper Eq. 15):
//
//   DIF_u[t] = (max(e_tx, E_g[t]) - E_g[t]) / E_tx_max
//            = max(e_tx - E_g[t], 0) / E_tx_max
//
// DIF is 0 when the forecast harvest covers the estimated transmission
// cost (the battery is untouched, no cycle aging) and grows toward 1 as the
// transmission must be paid from the battery. Algorithm 1 evaluates it once
// per forecast window, so it is inline.
#pragma once

#include <algorithm>

#include "common/units.hpp"

namespace blam {

/// Throws std::invalid_argument (the non-positive normalizer).
[[noreturn]] void throw_dif_max_tx();

/// `estimated_tx`: EWMA transmission-energy estimate scaled by the expected
/// number of transmissions for this window. `harvest`: forecast green energy
/// in the window. `max_tx`: worst-case energy of one packet (highest SF,
/// all retransmissions) used as the normalizer; must be positive.
[[nodiscard]] inline double degradation_impact_factor(Energy estimated_tx, Energy harvest,
                                                      Energy max_tx) {
  if (max_tx <= Energy::zero()) throw_dif_max_tx();
  const Energy deficit = std::max(estimated_tx - harvest, Energy::zero());
  // Estimates can exceed the nominal worst case (e.g. EWMA warm-up); clamp
  // so DIF stays in the paper's [0, 1] range.
  return std::min(deficit / max_tx, 1.0);
}

}  // namespace blam
