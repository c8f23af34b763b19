// Streaming rainflow cycle counting over a state-of-charge trace.
//
// The paper computes N_u, delta_u (cycle discharge), phi_u (per-cycle mean
// SoC) and eta_u (cycle type) "from the battery capacity trace using the
// rainflow-counting algorithm" (Sec. II-B). A 15-year, 500-node simulation
// cannot afford to buffer whole traces, so this implementation is streaming:
//
//  * samples are first reduced to turning points (local extrema);
//  * the ASTM four-point rule closes full cycles as soon as they appear and
//    reports them to a callback (eta = 1);
//  * the unclosed residual is kept on a small stack and can be enumerated on
//    demand as half cycles (eta = 0.5) without consuming it.
//
// This makes the counter O(1) amortized per extremum with memory bounded by
// the residual depth (monotone envelope of the trace, ~tens of points).
#pragma once

#include <functional>
#include <vector>

namespace blam {

struct RainflowCycle {
  /// Cycle discharge: |max - min| SoC within the cycle (paper's delta).
  double range{0.0};
  /// Mean SoC of the cycle (paper's phi).
  double mean{0.0};
  /// Cycle type (paper's eta): 1.0 for a full cycle, 0.5 for a residual
  /// half cycle.
  double weight{1.0};
};

class RainflowCounter {
 public:
  using CycleCallback = std::function<void(const RainflowCycle&)>;

  /// `on_cycle` fires once for every FULL cycle the moment it closes.
  explicit RainflowCounter(CycleCallback on_cycle);

  /// Feeds the next SoC sample. Plateaus and monotone continuation points
  /// are absorbed; only direction changes become turning points.
  void push(double soc);

  /// Enumerates the current residual as half cycles (adjacent turning-point
  /// pairs, eta=0.5) WITHOUT consuming them — usable repeatedly for
  /// intermediate degradation queries. Includes the in-progress last sample
  /// as a provisional turning point.
  void for_each_residual(const CycleCallback& visit) const;

  /// Permanently folds the current residual into the callback (as half
  /// cycles) and restarts turning-point detection from scratch. Called on an
  /// SoC discontinuity (node crash/reboot): the trace before and after the
  /// break must not be paired into one phantom cycle, but the half cycles
  /// already observed stay counted so degradation remains monotone.
  void seal_residual();

  /// Number of full cycles closed so far.
  [[nodiscard]] std::size_t full_cycles() const { return full_cycles_; }

  /// Complete streaming state (checkpoint/restore of a gateway ledger).
  /// The callback is NOT part of the state: restore() keeps the counter's
  /// own callback and only replaces the trace position.
  struct State {
    std::vector<double> stack;
    double last{0.0};
    double prev_direction{0.0};
    bool has_last{false};
    std::size_t full_cycles{0};
  };

  [[nodiscard]] State state() const;
  void restore(const State& state);

 private:
  void accept_turning_point(double value);
  void collapse();

  // blam-ckpt: skip -- callback wiring, re-bound at construction
  CycleCallback on_cycle_;
  std::vector<double> stack_;
  double last_{0.0};
  double prev_direction_{0.0};  // +1 rising, -1 falling, 0 unknown
  bool has_last_{false};
  std::size_t full_cycles_{0};
};

}  // namespace blam
