#include "mac/adr.hpp"

#include <algorithm>
#include <array>
#include <cmath>
#include <functional>
#include <stdexcept>
#include <string>
#include <utility>

#include "common/sorted_ids.hpp"

namespace blam {

double required_snr_db(SpreadingFactor sf) {
  static constexpr std::array<double, 6> kFloor{-7.5, -10.0, -12.5, -15.0, -17.5, -20.0};
  return kFloor[sf_index(sf)];
}

double noise_floor_dbm(double bandwidth_hz, double noise_figure_db) {
  if (bandwidth_hz <= 0.0) {
    throw std::invalid_argument{"noise_floor_dbm: bandwidth must be positive"};
  }
  return -174.0 + 10.0 * std::log10(bandwidth_hz) + noise_figure_db;
}

AdrController::AdrController(const Config& config, std::vector<std::uint32_t> node_ids)
    : config_{config}, node_ids_{std::move(node_ids)} {
  if (config.history <= 0 || config.min_history <= 0 || config.min_history > config.history) {
    throw std::invalid_argument{"AdrController: invalid history configuration"};
  }
  if (config.min_tx_power_dbm > kDeviceTxPowerDbm) {
    throw std::invalid_argument{"AdrController: invalid TX power bounds"};
  }
  snr_db_.resize(node_ids_.size() * static_cast<std::size_t>(config.history));
  held_.resize(node_ids_.size());
}

std::optional<std::size_t> AdrController::slot_of(std::uint32_t node_id) const {
  const auto it = lower_bound_id(node_ids_.begin(), node_ids_.end(), node_id, std::identity{});
  if (it == node_ids_.end() || *it != node_id) return std::nullopt;
  return static_cast<std::size_t>(it - node_ids_.begin());
}

void AdrController::observe(std::uint32_t node_id, double snr_db) {
  const std::optional<std::size_t> slot = slot_of(node_id);
  if (!slot.has_value()) {
    throw std::out_of_range{"AdrController: node " + std::to_string(node_id) +
                            " is outside this slice"};
  }
  const auto first = snr_db_.begin() + static_cast<std::ptrdiff_t>(*slot) * config_.history;
  int& held = held_[*slot];
  if (held == config_.history) {
    std::shift_left(first, first + held, 1);  // forget the oldest
    --held;
  }
  first[held++] = snr_db;
}

std::optional<AdrCommand> AdrController::advise(std::uint32_t node_id,
                                                const AdrCommand& current) const {
  const std::optional<std::size_t> slot = slot_of(node_id);
  if (!slot.has_value() || held_[*slot] < config_.min_history) return std::nullopt;
  // The LoRaWAN-recommended ADR uses the MAX SNR of the history (robust to
  // fading dips without starving the link).
  const auto first = snr_db_.begin() + static_cast<std::ptrdiff_t>(*slot) * config_.history;
  const double snr_max = *std::max_element(first, first + held_[*slot]);
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
  for (std::size_t slot = 0; slot < node_ids_.size(); ++slot) {
    if (held_[slot] == 0) continue;
    const auto first = snr_db_.begin() + static_cast<std::ptrdiff_t>(slot) * config_.history;
    out.push_back({node_ids_[slot], std::vector<double>(first, first + held_[slot])});
  }
  return out;
}

void AdrController::restore(const std::vector<NodeSnapshot>& nodes) {
  std::fill(held_.begin(), held_.end(), 0);
  for (const NodeSnapshot& snap : nodes) {
    const std::optional<std::size_t> slot = slot_of(snap.node_id);
    if (!slot.has_value() || snap.snr_db.size() > static_cast<std::size_t>(config_.history)) {
      throw std::runtime_error{"ADR checkpoint: node " + std::to_string(snap.node_id) +
                               " is outside this slice or holds more than " +
                               std::to_string(config_.history) + " SNR values"};
    }
    std::copy(snap.snr_db.begin(), snap.snr_db.end(),
              snr_db_.begin() + static_cast<std::ptrdiff_t>(*slot) * config_.history);
    held_[*slot] = static_cast<int>(snap.snr_db.size());
  }
}

}  // namespace blam
