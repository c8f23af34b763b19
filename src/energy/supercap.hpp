// Supercapacitor buffer for hybrid battery+supercap storage.
//
// The paper's related work discusses hybrid power management with
// supercapacitors (Petrariu et al.) and leaves "setups considering
// supercapacitors" as future work; this module implements that extension.
// A small supercap absorbs the transmission micro-cycles before they reach
// the battery (cycle-aging relief), at the price of leakage — supercaps
// self-discharge orders of magnitude faster than batteries, so they cannot
// bridge nights, which is exactly why the battery (and the paper's MAC)
// remains necessary.
#pragma once

#include "common/units.hpp"

namespace blam {

/// Charge efficiency and leakage of the hybrid-storage extension's cap: 95%
/// of offered energy is stored and 20% of the stored energy leaks per day,
/// the values the committed ablation_extensions supercap row runs with.
inline constexpr double kSupercapChargeEfficiency = 0.95;
inline constexpr double kSupercapLeakPerDay = 0.2;

class Supercap {
 public:
  /// `capacity` > 0; `charge_efficiency` in (0, 1]; `leak_per_day` in
  /// [0, 1) is the fraction of stored energy lost per day.
  Supercap(Energy capacity, double charge_efficiency = kSupercapChargeEfficiency,
           double leak_per_day = kSupercapLeakPerDay);

  [[nodiscard]] Energy capacity() const { return capacity_; }
  [[nodiscard]] Energy stored() const { return stored_; }

  /// Offers `amount` for storage; returns the energy CONSUMED from the
  /// source (stored energy grows by consumed * efficiency).
  Energy charge(Energy amount);

  /// Draws up to `amount`; returns the energy actually supplied.
  Energy discharge(Energy amount);

  /// Applies exponential self-discharge over `dt`.
  void leak(Time dt);

  /// Checkpoint restore: assigns the stored energy verbatim.
  void restore_stored(Energy stored) { stored_ = stored; }

 private:
  // blam-ckpt: skip -- construction input (scenario supercap_tx_buffer); stored is serialized
  Energy capacity_;
  Energy stored_{};
  // blam-ckpt: skip -- construction input (kSupercapChargeEfficiency in a scenario)
  double efficiency_;
  // blam-ckpt: skip -- construction input (kSupercapLeakPerDay in a scenario)
  double leak_per_day_;
};

}  // namespace blam
