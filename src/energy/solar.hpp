// Solar (photovoltaic) energy source.
//
// The paper drives its evaluation with the NREL "Solar Power Data for
// Integration Studies" year-long trace, scaled so that peak power sustains
// two transmissions, with random per-node variation emulating cloud cover
// and shading. That dataset is not redistributable here, so SolarTrace
// synthesizes a statistically similar year: a clear-sky diurnal/seasonal
// envelope modulated by a per-day clearness state (Markov chain over clear /
// partly-cloudy / overcast) and smooth intra-day noise.
//
// The trace holds per-minute power over one year plus a cumulative-energy
// array, so any interval integral is O(1); the year repeats periodically for
// multi-year simulations. The year is synthesized on demand: the arrays are
// allocated but left unwritten at construction, and the first query that
// reaches a day fills every day up to it, in day order, from one generator
// state. A run that reads a week of the year pays for a week, and every
// sample is the same double whatever order the days are first reached in.
#pragma once

#include <atomic>
#include <cstddef>
#include <cstdint>
#include <memory>
#include <mutex>

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

/// Thread safety: a SolarTrace's queries are const and safe to call from any
/// number of threads at once, so one trace may be shared (by const reference
/// / shared_ptr<const SolarTrace>) across sweep workers and engine slices.
/// The values a trace returns never change; what changes is how much of the
/// year is filled. The fill runs under a mutex and publishes the filled day
/// count with a release store; a query checks that count with one acquire
/// load and reads only days it covers. This is the one object scenario-grid
/// cells share; see sim/sweep_runner.hpp.
class SolarTrace {
 public:
  /// Validates the config and allocates the year-long (525600-minute)
  /// trace; no day is synthesized until a query reaches it.
  explicit SolarTrace(const SolarTraceConfig& config);

  /// Instantaneous power at simulation time `t` (year wraps around): the
  /// step function energy_between integrates through its cumulative sums.
  // blam-analyze: allow(N1) -- reference; SolarTrace.EnergyBetweenMatchesSampleSum
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

  [[nodiscard]] static constexpr Time period() {
    return Time::from_minutes(static_cast<double>(kMinutesPerYear));
  }

 private:
  static constexpr int kDaysPerYear = 365;
  static constexpr int kMinutesPerDay = 24 * 60;
  static constexpr std::size_t kMinutesPerYear =
      static_cast<std::size_t>(kDaysPerYear) * kMinutesPerDay;

  enum class Weather { kClear, kCloudy, kOvercast };

  /// Makes days [0, days) readable: one acquire load when they already are.
  void require_days(int days) const {
    if (filled_days_.load(std::memory_order_acquire) < days) fill_days(days);
  }
  /// The days a query must have filled to read the minute holding
  /// `t_in_period` (the whole year at the period's end).
  [[nodiscard]] static int days_through(Time t_in_period);
  /// Synthesizes every unfilled day below `days`, in order, under the mutex.
  void fill_days(int days) const;
  void synthesize_day(int day) const;

  /// Cumulative energy (J) from trace start to time `t` within one period,
  /// with linear interpolation inside a minute. Its day must be filled.
  [[nodiscard]] double cumulative_joules(Time t_in_period) const;

  SolarTraceConfig config_;
  std::unique_ptr<double[]> watts_;       // per-minute power samples
  std::unique_ptr<double[]> cumulative_;  // cumulative_[i] = J from 0 to minute i
  // Written once, by the fill of the last day; read only after
  // require_days(kDaysPerYear).
  mutable double total_joules_{0.0};      // energy of one full period
  mutable std::atomic<int> filled_days_{0};
  // Generator state, carried from one filled day to the next; only the
  // thread holding fill_mutex_ touches it.
  mutable std::mutex fill_mutex_;
  mutable Rng rng_;
  mutable Weather weather_{Weather::kCloudy};
  mutable double noise_{0.0};  // Ornstein-Uhlenbeck state for intra-day variation
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

  [[nodiscard]] Energy energy_between(Time t0, Time t1) const;

  /// Batched consecutive-window energies (see SolarTrace::energy_windows),
  /// scaled by this node's panel factor; bit-identical to per-window calls.
  void energy_windows(Time start, Time window, int n, Energy* out) const;

 private:
  // blam-ckpt: skip -- wiring; the trace's values are fixed by (seed, solar config), which regenerate it
  const SolarTrace* trace_;
  // blam-ckpt: skip -- deployment output; plan_deployment replays deterministically from the scenario seed
  double panel_scale_;
  double jitter_{1.0};
};

}  // namespace blam
