// Rechargeable battery: stored energy, state of charge, and capacity fade.
//
// Terminology follows the paper (Sec. II-B): *SoC* is stored energy divided
// by the ORIGINAL maximum capacity; *degradation* is the fraction of original
// capacity lost; the battery reaches end of life when degradation crosses
// 20%. Degradation itself is computed by the degradation module from the SoC
// trace — the battery only stores energy and applies the fade it is told.
#pragma once

#include <stdexcept>

#include "common/units.hpp"

namespace blam {

class Battery {
 public:
  /// Creates a battery with `original_capacity` and an initial stored energy
  /// of `initial_soc * original_capacity`. Throws on non-positive capacity
  /// or initial SoC outside [0, 1].
  // blam-lint: allow(U1) -- SoC is a dimensionless fraction in [0,1]; no strong unit applies
  Battery(Energy original_capacity, double initial_soc);

  [[nodiscard]] Energy original_capacity() const { return original_capacity_; }

  /// Usable capacity right now: original * (1 - degradation).
  [[nodiscard]] Energy current_capacity() const {
    return original_capacity_ * (1.0 - degradation_);
  }

  [[nodiscard]] Energy stored() const { return stored_; }

  /// State of charge relative to the ORIGINAL capacity (paper definition).
  [[nodiscard]] double soc() const { return stored_ / original_capacity_; }

  [[nodiscard]] double degradation() const { return degradation_; }

  /// Adds energy, clamped by both the current capacity and `soc_cap` (the
  /// protocol's theta threshold, as a fraction of original capacity).
  /// Returns the energy actually absorbed.
  Energy charge(Energy amount, double soc_cap = 1.0);

  /// Draws energy; returns the energy actually supplied (may be less than
  /// requested if the battery empties).
  Energy discharge(Energy amount);

  /// Updates capacity fade (monotonically non-decreasing, clamped to [0,1]).
  /// If the stored energy now exceeds the shrunken capacity it is clamped.
  void set_degradation(double degradation);

  /// Checkpoint restore: assigns both words verbatim, bypassing the
  /// monotonicity and clamp rules (the checkpointed pair already satisfied
  /// them when it was captured).
  void restore_raw(Energy stored, double degradation) {
    stored_ = stored;
    degradation_ = degradation;
  }

 private:
  // blam-ckpt: skip -- construction input (kBatteryDays); stored and degradation are serialized
  Energy original_capacity_;
  Energy stored_;
  double degradation_{0.0};
};

}  // namespace blam
