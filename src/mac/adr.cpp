#include "mac/adr.hpp"

#include <algorithm>
#include <array>
#include <cmath>
#include <stdexcept>

namespace blam {

double required_snr_db(SpreadingFactor sf) {
  static constexpr std::array<double, 6> kFloor{-7.5, -10.0, -12.5, -15.0, -17.5, -20.0};
  return kFloor[sf_index(sf)];
}

double noise_floor_dbm(double bandwidth_hz, double noise_figure_db) {
  if (bandwidth_hz <= 0.0) throw std::invalid_argument{"noise_floor_dbm: bandwidth must be positive"};
  return -174.0 + 10.0 * std::log10(bandwidth_hz) + noise_figure_db;
}

AdrController::AdrController(const Config& config) : config_{config} {
  if (config.history <= 0 || config.min_history <= 0 || config.min_history > config.history) {
    throw std::invalid_argument{"AdrController: invalid history configuration"};
  }
  if (config.min_tx_power_dbm > kDeviceTxPowerDbm) {
    throw std::invalid_argument{"AdrController: invalid TX power bounds"};
  }
}

void AdrController::observe(std::uint32_t node_id, double snr_db) {
  History& h = nodes_[node_id];
  h.snr_db.push_back(snr_db);
  while (h.snr_db.size() > static_cast<std::size_t>(config_.history)) h.snr_db.pop_front();
}

std::optional<AdrCommand> AdrController::advise(std::uint32_t node_id,
                                                const AdrCommand& current) const {
  const auto it = nodes_.find(node_id);
  if (it == nodes_.end() ||
      it->second.snr_db.size() < static_cast<std::size_t>(config_.min_history)) {
    return std::nullopt;
  }
  // The LoRaWAN-recommended ADR uses the MAX SNR of the history (robust to
  // fading dips without starving the link).
  const double snr_max = *std::max_element(it->second.snr_db.begin(), it->second.snr_db.end());
  double margin = snr_max - required_snr_db(current.sf) - config_.device_margin_db;
  int steps = static_cast<int>(std::floor(margin / 3.0));

  AdrCommand next = current;
  // Spend steps on data rate first (SF down to 7), then on TX power.
  while (steps > 0 && next.sf != SpreadingFactor::kSF7) {
    next.sf = sf_from_value(sf_value(next.sf) - 1);
    --steps;
  }
  while (steps > 0 && next.tx_power_dbm - 2.0 >= config_.min_tx_power_dbm) {
    next.tx_power_dbm -= 2.0;
    --steps;
  }
  // Negative margin: climb power back up (never raises SF — the standard
  // leaves SF increases to the device's own ADR backoff).
  while (steps < 0 && next.tx_power_dbm + 2.0 <= kDeviceTxPowerDbm) {
    next.tx_power_dbm += 2.0;
    ++steps;
  }

  if (next.sf == current.sf && next.tx_power_dbm == current.tx_power_dbm) return std::nullopt;
  return next;
}

std::vector<AdrController::NodeSnapshot> AdrController::snapshot() const {
  std::vector<NodeSnapshot> out;
  out.reserve(nodes_.size());
  for (const auto& [node_id, history] : nodes_) {
    NodeSnapshot snap;
    snap.node_id = node_id;
    snap.snr_db.assign(history.snr_db.begin(), history.snr_db.end());
    out.push_back(std::move(snap));
  }
  std::sort(out.begin(), out.end(),
            [](const NodeSnapshot& a, const NodeSnapshot& b) { return a.node_id < b.node_id; });
  return out;
}

void AdrController::restore(const std::vector<NodeSnapshot>& nodes) {
  nodes_.clear();
  for (const NodeSnapshot& snap : nodes) {
    History& h = nodes_[snap.node_id];
    h.snr_db.assign(snap.snr_db.begin(), snap.snr_db.end());
  }
}

}  // namespace blam
