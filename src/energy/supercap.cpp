#include "energy/supercap.hpp"

#include <algorithm>
#include <cmath>
#include <stdexcept>

namespace blam {

Supercap::Supercap(Energy capacity, double charge_efficiency, double leak_per_day)
    : capacity_{capacity}, efficiency_{charge_efficiency}, leak_per_day_{leak_per_day} {
  if (capacity <= Energy::zero()) {
    throw std::invalid_argument{"Supercap: capacity must be positive"};
  }
  if (charge_efficiency <= 0.0 || charge_efficiency > 1.0) {
    throw std::invalid_argument{"Supercap: efficiency must be in (0,1]"};
  }
  if (leak_per_day < 0.0 || leak_per_day >= 1.0) {
    throw std::invalid_argument{"Supercap: leak_per_day must be in [0,1)"};
  }
}

Energy Supercap::charge(Energy amount) {
  if (amount < Energy::zero()) throw std::invalid_argument{"Supercap::charge: negative amount"};
  const Energy headroom = capacity_ - stored_;
  // Consuming `c` from the source stores c * efficiency.
  const Energy consumable = std::min(amount, headroom / efficiency_);
  stored_ += consumable * efficiency_;
  return consumable;
}

Energy Supercap::discharge(Energy amount) {
  if (amount < Energy::zero()) throw std::invalid_argument{"Supercap::discharge: negative amount"};
  const Energy supplied = std::min(amount, stored_);
  stored_ -= supplied;
  return supplied;
}

void Supercap::leak(Time dt) {
  if (dt < Time::zero()) throw std::invalid_argument{"Supercap::leak: negative duration"};
  if (leak_per_day_ == 0.0 || stored_ <= Energy::zero()) return;
  // Exponential decay with per-day retention (1 - leak).
  const double retention = std::pow(1.0 - leak_per_day_, dt.days());
  stored_ = stored_ * retention;
}

}  // namespace blam
