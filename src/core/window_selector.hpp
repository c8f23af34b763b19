// On-sensor forecast-window selection — the paper's Algorithm 1, solving the
// local battery-lifespan problem (Eqs. 18-21). The pseudocode sorts windows
// by objective (O(|T| log |T|)); since only the FIRST fundable window in that
// order is ever used, this implementation finds it with one argmin pass in
// O(|T|), selecting the identical window.
//
// For each candidate window t the objective is
//   gamma_t = (1 - mu(t)) + w_u * DIF(t) * w_b          (Eq. 18)
// (the paper's pseudocode line 3 prints "mu + ..."; sorting that ascending
// would prefer LOW utility, contradicting Eq. 18, so we implement the
// objective as formulated). Windows are scanned in non-decreasing gamma and
// the first one whose cumulative energy E[t] covers the estimated cost
// (Eq. 20) wins; if none does, the packet is dropped (FAIL), which the paper
// attributes to a theta too low to bridge no-generation intervals.
#pragma once

#include <span>
#include <vector>

#include "common/units.hpp"
#include "core/utility.hpp"

namespace blam {

struct WindowSelectorInput {
  /// Current stored battery energy psi.
  Energy battery;
  /// Stored-energy ceiling theta * original capacity; cumulative energy
  /// E[t] saturates here because charge beyond the cap is refused (Eq. 21).
  Energy storage_cap;
  /// Normalized degradation w_u in [0, 1] from the gateway.
  double w_u{0.0};
  /// Importance of degradation over utility, w_b in [0, 1].
  double w_b{1.0};
  /// Forecast harvest E_g[t] per window.
  std::span<const Energy> harvest;
  /// Estimated transmission cost e_tx[t] per window (EWMA * expected
  /// transmissions). Must have the same length as `harvest`.
  std::span<const Energy> tx_cost;
  /// Worst-case single-packet energy (DIF normalizer).
  Energy max_tx;
  /// Utility function mu (paper Eq. 16 by default).
  const UtilityFunction* utility{nullptr};
};

struct WindowSelection {
  bool success{false};
  /// Chosen window index; meaningful only on success.
  int window{-1};
  /// Objective value of the chosen window.
  double gamma{0.0};
  /// Utility mu of the chosen window.
  double utility{0.0};
  /// DIF of the chosen window.
  double dif{0.0};
};

class WindowSelector {
 public:
  /// Reusable scratch for Algorithm 1: the per-window objective values, the
  /// cumulative-energy array and the utility table. The simulation hot path
  /// keeps one Workspace per engine slice, shared by the slice's nodes, and
  /// passes it to every select() so the per-period run is allocation-free
  /// after warm-up.
  ///
  /// The table holds one row of 1 - mu(t, n) per window count n, built on
  /// the first selection over n windows and then only read, so the objective
  /// scan makes no virtual utility call per window. A scenario has one
  /// utility function; a call with a different one rebuilds the table. The
  /// table is keyed by the utility's address, so a workspace must not be
  /// used across the destruction of a utility it has served.
  struct Workspace {
    std::vector<double> gamma;
    std::vector<Energy> available;

    /// Row n of the table: 1 - utility.value(t, n) for t in [0, n).
    [[nodiscard]] std::span<const double> utility_loss(const UtilityFunction& utility, int n);

   private:
    const UtilityFunction* table_utility_{nullptr};
    std::vector<std::vector<double>> utility_loss_;
  };

  /// Runs Algorithm 1. Throws std::invalid_argument on malformed input
  /// (empty/mismatched spans, missing utility, non-positive max_tx).
  [[nodiscard]] WindowSelection select(const WindowSelectorInput& input) const;

  /// Allocation-free variant: identical result, scratch vectors live in
  /// `ws` and are resized (never shrunk) to the window count.
  [[nodiscard]] WindowSelection select(const WindowSelectorInput& input, Workspace& ws) const;

  /// Objective values gamma_t for each window (diagnostics / Fig. 3 bench).
  [[nodiscard]] std::vector<double> objective_values(const WindowSelectorInput& input) const;

  /// Fills ws.gamma with the objective values and returns a view of it.
  [[nodiscard]] std::span<const double> objective_values(const WindowSelectorInput& input,
                                                         Workspace& ws) const;
};

}  // namespace blam
