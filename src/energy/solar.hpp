// Solar (photovoltaic) energy source.
//
// The paper drives its evaluation with the NREL "Solar Power Data for
// Integration Studies" year-long trace, scaled so that peak power sustains
// two transmissions, with random per-node variation emulating cloud cover
// and shading. That dataset is not redistributable here, so SolarTrace
// synthesizes a statistically similar year: a clear-sky diurnal/seasonal
// envelope modulated by a per-day clearness state (Markov chain over clear /
// partly-cloudy / overcast) and smooth intra-day noise. A CSV loader is
// provided for running against real traces.
//
// The trace stores per-minute power over one year plus a cumulative-energy
// array, so any interval integral is O(1); the year repeats periodically for
// multi-year simulations.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "common/rng.hpp"
#include "common/units.hpp"

namespace blam {

struct SolarTraceConfig {
  /// Peak (clear-sky, solar-noon, mid-summer) panel output.
  Power peak{Power::from_milli_watts(10.0)};
  std::uint64_t seed{1};
  /// Latitude-like seasonality: ratio of winter to summer peak (0..1].
  double winter_summer_ratio{0.45};
  /// Shortest/longest day length in hours.
  double min_day_hours{9.0};
  double max_day_hours{15.0};
  /// Markov day-weather states: stay probabilities and output scale.
  double clear_stay{0.7};
  double cloudy_stay{0.5};
  double overcast_stay{0.4};
  /// Smooth intra-day noise amplitude (fraction of instantaneous power).
  double intraday_noise{0.15};
};

/// Thread safety: a SolarTrace is immutable once constructed — power_at /
/// energy_between only read the sample arrays — so one trace may be shared
/// (by const reference / shared_ptr<const SolarTrace>) across sweep workers.
/// This is the one object scenario-grid cells share; see sim/sweep_runner.hpp.
class SolarTrace {
 public:
  /// Synthesizes a year-long (525600-minute) trace.
  explicit SolarTrace(const SolarTraceConfig& config);

  /// Loads per-minute power samples (watts, one column named or unnamed) and
  /// scales them so the maximum equals `peak`. The file must contain at
  /// least one sample; the trace repeats with the file's length as period.
  static SolarTrace from_csv(const std::string& path, Power peak);

  /// Instantaneous power at simulation time `t` (year wraps around).
  [[nodiscard]] Power power_at(Time t) const;

  /// Exact integral of power over [t0, t1]; O(1) via cumulative sums.
  /// Requires t0 <= t1.
  [[nodiscard]] Energy energy_between(Time t0, Time t1) const;

  /// Energies of `n` consecutive windows [start + i*window, start +
  /// (i+1)*window) into out[0..n). Bit-identical to calling energy_between
  /// per window, but each shared window boundary is looked up once instead
  /// of twice — this halves the cost of a node's per-period forecast sweep.
  /// Requires window > 0 and room for n results in `out`.
  void energy_windows(Time start, Time window, int n, Energy* out) const;

  [[nodiscard]] Time period() const {
    return Time::from_minutes(static_cast<double>(watts_.size()));
  }
  [[nodiscard]] std::size_t samples() const { return watts_.size(); }
  /// Largest per-minute sample; cached at construction (the trace is
  /// immutable, and setup code queries this per node).
  [[nodiscard]] Power peak() const { return Power::from_watts(peak_watts_); }

 private:
  explicit SolarTrace(std::vector<double> watts);

  void build_cumulative();

  /// Cumulative energy (J) from trace start to time `t` within one period,
  /// with linear interpolation inside a minute.
  [[nodiscard]] double cumulative_joules(Time t_in_period) const;

  std::vector<double> watts_;        // per-minute power samples
  std::vector<double> cumulative_;   // cumulative_[i] = J from 0 to minute i
  double total_joules_{0.0};         // energy of one full period
  double peak_watts_{0.0};           // max of watts_, cached for peak()
};

/// Spread of the per-period cloud jitter: harvest is multiplied by
/// U[1 - 0.3, 1], the local-cloud variation every committed figure uses.
inline constexpr double kCloudJitterSpread = 0.3;

/// A node's view of the shared trace: panel scale (fixed per node, modeling
/// panel size / orientation / permanent shading) times a slowly-varying
/// cloud jitter the caller updates once per sampling period.
class Harvester {
 public:
  Harvester(const SolarTrace& trace, double panel_scale);

  /// Draws a new cloud-jitter factor for the coming period (uniform in
  /// [1-spread, 1]; local clouds only reduce output).
  void resample_jitter(Rng& rng, double spread = kCloudJitterSpread);

  [[nodiscard]] double jitter() const { return jitter_; }
  [[nodiscard]] double panel_scale() const { return panel_scale_; }

  /// Checkpoint restore: reinstates the jitter factor without an RNG draw.
  void restore_jitter(double jitter) { jitter_ = jitter; }

  [[nodiscard]] Power power_at(Time t) const;
  [[nodiscard]] Energy energy_between(Time t0, Time t1) const;

  /// Batched consecutive-window energies (see SolarTrace::energy_windows),
  /// scaled by this node's panel factor; bit-identical to per-window calls.
  void energy_windows(Time start, Time window, int n, Energy* out) const;

 private:
  // blam-ckpt: skip -- wiring; the trace is immutable and regenerated from (seed, solar config)
  const SolarTrace* trace_;
  // blam-ckpt: skip -- deployment output; plan_deployment replays deterministically from the scenario seed
  double panel_scale_;
  double jitter_{1.0};
};

}  // namespace blam
