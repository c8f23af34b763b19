#include "lora/link.hpp"

#include <algorithm>

namespace blam {

double PathLossModel::path_loss_db(double d_m) {
  const double d = std::max(d_m, kReferenceM);
  return kReferenceLossDb + 10.0 * kExponent * std::log10(d / kReferenceM);
}

Link::Link(Position device, Position gateway, const PathLossModel& model, Rng& rng)
    : loss_db_{model.path_loss_db(device.distance_to(gateway))} {
  if (model.shadowing_sigma_db > 0.0) {
    loss_db_ += rng.normal(0.0, model.shadowing_sigma_db);
  }
}

std::optional<SpreadingFactor> min_spreading_factor(double rx_power_dbm) {
  for (SpreadingFactor sf : kAllSpreadingFactors) {
    if (rx_power_dbm >= gateway_sensitivity_dbm(sf)) return sf;
  }
  return std::nullopt;
}

}  // namespace blam
