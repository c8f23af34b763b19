#include "core/window_selector.hpp"

#include <algorithm>
#include <stdexcept>

#include "core/dif.hpp"

namespace blam {

namespace {

void validate(const WindowSelectorInput& input) {
  if (input.harvest.empty()) {
    throw std::invalid_argument{"WindowSelector: need at least one window"};
  }
  if (input.harvest.size() != input.tx_cost.size()) {
    throw std::invalid_argument{"WindowSelector: harvest/tx_cost size mismatch"};
  }
  if (input.utility == nullptr) throw std::invalid_argument{"WindowSelector: utility required"};
  if (input.max_tx <= Energy::zero()) {
    throw std::invalid_argument{"WindowSelector: max_tx must be positive"};
  }
  if (input.w_u < 0.0 || input.w_u > 1.0) {
    throw std::invalid_argument{"WindowSelector: w_u must be in [0,1]"};
  }
  if (input.w_b < 0.0 || input.w_b > 1.0) {
    throw std::invalid_argument{"WindowSelector: w_b must be in [0,1]"};
  }
}

}  // namespace

std::span<const double> WindowSelector::Workspace::utility_loss(const UtilityFunction& utility,
                                                                int n) {
  if (table_utility_ != &utility) {
    utility_loss_.clear();
    table_utility_ = &utility;
  }
  const auto un = static_cast<std::size_t>(n);
  if (utility_loss_.size() <= un) utility_loss_.resize(un + 1);
  std::vector<double>& row = utility_loss_[un];
  if (row.empty()) {
    row.resize(un);
    for (int t = 0; t < n; ++t) row[static_cast<std::size_t>(t)] = 1.0 - utility.value(t, n);
  }
  return row;
}

std::span<const double> WindowSelector::objective_values(const WindowSelectorInput& input,
                                                         Workspace& ws) const {
  validate(input);
  const std::size_t n = input.harvest.size();
  const std::span<const double> loss = ws.utility_loss(*input.utility, static_cast<int>(n));
  ws.gamma.resize(n);
  for (std::size_t t = 0; t < n; ++t) {
    const double dif = degradation_impact_factor(input.tx_cost[t], input.harvest[t], input.max_tx);
    ws.gamma[t] = loss[t] + input.w_u * dif * input.w_b;
  }
  return ws.gamma;
}

std::vector<double> WindowSelector::objective_values(const WindowSelectorInput& input) const {
  Workspace ws;
  (void)objective_values(input, ws);
  return std::move(ws.gamma);
}

WindowSelection WindowSelector::select(const WindowSelectorInput& input, Workspace& ws) const {
  const std::span<const double> gamma = objective_values(input, ws);
  const int n = static_cast<int>(gamma.size());

  // Algorithm 1 lines 7-11: precompute cumulative available energy
  // E[t] = min(E[t-1], cap) + E_g[t]. The cap models Eq. 21: energy carried
  // over between windows lives in the battery and cannot exceed the theta
  // ceiling, while harvest within the window is usable directly.
  ws.available.resize(gamma.size());
  Energy carried = std::min(input.battery, input.storage_cap);
  for (int t = 0; t < n; ++t) {
    ws.available[static_cast<std::size_t>(t)] =
        carried + input.harvest[static_cast<std::size_t>(t)];
    carried = std::min(ws.available[static_cast<std::size_t>(t)], input.storage_cap);
  }

  // Lines 12-17: first window in non-decreasing gamma order that can fund
  // the estimated transmission cost. That window is exactly the fundable
  // window minimizing (gamma, index) lexicographically — ties fall to the
  // earlier window, as a stable sort would order them — so a single argmin
  // pass replaces the pseudocode's sort: O(|T|) instead of O(|T| log |T|),
  // with a bit-identical selection.
  int best = -1;
  double best_gamma = 0.0;
  for (int t = 0; t < n; ++t) {
    const auto ti = static_cast<std::size_t>(t);
    if (!(ws.available[ti] - input.tx_cost[ti] > Energy::zero())) continue;
    if (best < 0 || gamma[ti] < best_gamma) {
      best = t;
      best_gamma = gamma[ti];
    }
  }
  if (best >= 0) {
    const auto bi = static_cast<std::size_t>(best);
    WindowSelection out;
    out.success = true;
    out.window = best;
    out.gamma = gamma[bi];
    out.utility = input.utility->value(best, n);
    out.dif = degradation_impact_factor(input.tx_cost[bi], input.harvest[bi], input.max_tx);
    return out;
  }
  return WindowSelection{};  // FAIL: drop the packet (Algorithm 1 line 18)
}

WindowSelection WindowSelector::select(const WindowSelectorInput& input) const {
  Workspace ws;
  return select(input, ws);
}

}  // namespace blam
