// Per-battery degradation bookkeeping: consumes the timestamped SoC trace
// (the paper's transition points Psi_u) and produces degradation on demand.
//
// Calendar aging uses the time-weighted mean SoC. The paper averages
// per-cycle mean SoCs instead; for LoRa duty cycles the battery spends
// almost all time at the level the charging policy maintains, so the two
// averages agree to within a fraction of a percent, and the time-weighted
// form is well-defined even before the first cycle closes.
//
// Cycle aging folds full cycles into a running sum the moment rainflow
// closes them; the unclosed residual is added (as half cycles) per query,
// so intermediate queries (the gateway's daily w_u computation) see a
// consistent, monotone-in-time estimate.
//
// Temperature: the paper evaluates insulated batteries at a fixed 25 C, and
// a fixed temperature is the default here. set_temperature() supports the
// outdoor (thermal-model) extension: calendar aging generalizes from
// k1 * t * S_T to k1 * INTEGRAL S_T(t) dt (identical for constant T), and
// cycles closing later use the stress in effect at close time.
#pragma once

#include <cstdint>

#include "common/units.hpp"
#include "degradation/model.hpp"
#include "degradation/rainflow.hpp"

namespace blam {

class StateReader;
class StateWriter;

class DegradationTracker {
 public:
  /// `temperature_c` is the battery's initial (or fixed) internal
  /// temperature.
  DegradationTracker(const DegradationModel& model, double temperature_c);
  /// The tracker keeps a pointer to `model`: a temporary would dangle.
  DegradationTracker(DegradationModel&&, double) = delete;

  DegradationTracker(const DegradationTracker&) = delete;
  DegradationTracker& operator=(const DegradationTracker&) = delete;

  /// Appends an SoC sample; `t` must be non-decreasing.
  void record(Time t, double soc);

  /// Declares an SoC discontinuity (node crash/reboot, detected gateway-side
  /// by a report-sequence reset): the rainflow residual is sealed so the
  /// trace before and after the break cannot pair into one phantom cycle.
  /// The trapezoidal SoC-time integral still bridges the break on the next
  /// record() — calendar aging over the gap is interpolated, not dropped.
  void mark_discontinuity();

  /// Discontinuities declared so far (observability).
  [[nodiscard]] std::uint64_t discontinuities() const { return discontinuities_; }

  /// Updates the battery temperature effective at time `t` (must be
  /// non-decreasing versus prior records/updates): the stress-time integral
  /// is closed at the old temperature up to `t`, then accrues at the new
  /// one.
  void set_temperature(Time t, double temperature_c);

  /// Time-weighted mean SoC so far (paper's phi_bar); current SoC if the
  /// trace is still empty.
  [[nodiscard]] double mean_soc() const;

  /// Linear calendar aging D_cal at time `now` (Eq. 1; for varying
  /// temperature the time * S_T product becomes the stress-time integral).
  [[nodiscard]] double calendar_linear(Time now) const;

  /// Linear cycle aging D_cyc including the open residual (Eq. 2).
  [[nodiscard]] double cycle_linear() const;

  /// Total non-linear degradation (Eq. 4) at time `now`.
  [[nodiscard]] double degradation(Time now) const;

  [[nodiscard]] std::size_t full_cycles() const { return rainflow_.full_cycles(); }
  [[nodiscard]] const DegradationModel& model() const { return *model_; }
  [[nodiscard]] double temperature_c() const { return temperature_c_; }

  /// Complete tracker state for checkpoint/restore (a node's own tracker
  /// and each gateway-ledger row). The model pointer is NOT captured:
  /// restore() requires a tracker built against the same model/temperature
  /// configuration.
  struct Snapshot {
    RainflowCounter::State rainflow;
    double closed_cycle_sum{0.0};
    Time last_time{};
    double last_soc{0.0};
    bool has_sample{false};
    double soc_time_integral{0.0};
    double stress_time_integral{0.0};
    Time stress_integrated_to{};
    double temperature_c{0.0};
    std::uint64_t discontinuities{0};
  };

  [[nodiscard]] Snapshot snapshot() const;
  void restore(const Snapshot& snapshot);

 private:
  /// Extends the stress-time integral to `t` at the current temperature.
  void advance_stress_integral(Time t);

  const DegradationModel* model_;
  double temperature_c_;
  double temp_stress_;

  RainflowCounter rainflow_;
  double closed_cycle_sum_{0.0};  // k6- and S_T-scaled, full cycles only

  Time last_time_{Time::zero()};
  double last_soc_{0.0};
  bool has_sample_{false};
  std::uint64_t discontinuities_{0};
  double soc_time_integral_{0.0};     // integral of SoC dt (seconds)
  double stress_time_integral_{0.0};  // integral of S_T dt (seconds)
  Time stress_integrated_to_{Time::zero()};
};

/// One tracker snapshot as state-codec tokens (node and ledger sections
/// share the layout). The rainflow residual stack is read token by token,
/// so a forged depth ends in a named std::runtime_error.
void write_tracker(StateWriter& w, const DegradationTracker::Snapshot& s);
[[nodiscard]] DegradationTracker::Snapshot read_tracker(StateReader& r);

}  // namespace blam
