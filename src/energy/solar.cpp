#include "energy/solar.hpp"

#include <algorithm>
#include <cmath>
#include <numbers>
#include <stdexcept>

namespace blam {

namespace {

// Mean reversion per minute of the intra-day Ornstein-Uhlenbeck noise.
constexpr double kNoiseTheta = 0.05;

}  // namespace

SolarTrace::SolarTrace(const SolarTraceConfig& config)
    : config_{config}, rng_{config.seed, salt::kSolarTrace} {
  if (config.peak <= Power::zero()) {
    throw std::invalid_argument{"SolarTrace: peak power must be positive"};
  }
  if (config.winter_summer_ratio <= 0.0 || config.winter_summer_ratio > 1.0) {
    throw std::invalid_argument{"SolarTrace: winter_summer_ratio must be in (0,1]"};
  }
  if (config.min_day_hours <= 0.0 || config.min_day_hours > config.max_day_hours ||
      config.max_day_hours >= 24.0) {
    throw std::invalid_argument{"SolarTrace: invalid day-length range"};
  }
  // Left unwritten: the pages of a day no query reaches are never touched.
  watts_ = std::make_unique_for_overwrite<double[]>(kMinutesPerYear);
  cumulative_ = std::make_unique_for_overwrite<double[]>(kMinutesPerYear + 1);
  cumulative_[0] = 0.0;
}

int SolarTrace::days_through(Time t_in_period) {
  const auto minute = static_cast<std::size_t>(t_in_period.seconds() / 60.0);
  if (minute >= kMinutesPerYear) return kDaysPerYear;
  return static_cast<int>(minute / kMinutesPerDay) + 1;
}

void SolarTrace::fill_days(int days) const {
  const std::lock_guard lock{fill_mutex_};
  int filled = filled_days_.load(std::memory_order_relaxed);
  if (filled >= days) return;
  for (; filled < days; ++filled) synthesize_day(filled);
  if (filled == kDaysPerYear) total_joules_ = cumulative_[kMinutesPerYear];
  filled_days_.store(filled, std::memory_order_release);
}

void SolarTrace::synthesize_day(int day) const {
  const SolarTraceConfig& config = config_;
  const double noise_sigma = config.intraday_noise * std::sqrt(2.0 * kNoiseTheta);

  // Season phase: day 172 (late June) is mid-summer.
  const double season = 0.5 * (1.0 + std::cos(2.0 * std::numbers::pi * (day - 172) / 365.0));
  const double seasonal_peak =
      config.winter_summer_ratio + (1.0 - config.winter_summer_ratio) * season;
  const double day_hours =
      config.min_day_hours + (config.max_day_hours - config.min_day_hours) * season;
  const double sunrise_min = (24.0 - day_hours) / 2.0 * 60.0;
  const double sunset_min = sunrise_min + day_hours * 60.0;

  // Day-weather Markov step.
  const double u = rng_.uniform();
  switch (weather_) {
    case Weather::kClear:
      weather_ = u < config.clear_stay         ? Weather::kClear
                 : u < config.clear_stay + 0.2 ? Weather::kCloudy
                                               : Weather::kOvercast;
      break;
    case Weather::kCloudy:
      weather_ = u < config.cloudy_stay         ? Weather::kCloudy
                 : u < config.cloudy_stay + 0.3 ? Weather::kClear
                                                : Weather::kOvercast;
      break;
    case Weather::kOvercast:
      weather_ = u < config.overcast_stay          ? Weather::kOvercast
                 : u < config.overcast_stay + 0.35 ? Weather::kCloudy
                                                   : Weather::kClear;
      break;
  }
  const double clearness = weather_ == Weather::kClear    ? 1.0
                           : weather_ == Weather::kCloudy ? 0.55
                                                          : 0.18;

  const std::size_t first = static_cast<std::size_t>(day) * kMinutesPerDay;
  for (int minute = 0; minute < kMinutesPerDay; ++minute) {
    noise_ += kNoiseTheta * (0.0 - noise_) + noise_sigma * rng_.normal();
    double p = 0.0;
    if (minute > sunrise_min && minute < sunset_min) {
      const double phase = (minute - sunrise_min) / (sunset_min - sunrise_min);
      const double envelope = std::sin(std::numbers::pi * phase);
      p = config.peak.watts() * seasonal_peak * clearness * envelope * envelope *
          std::max(0.0, 1.0 + noise_);
    }
    const std::size_t i = first + static_cast<std::size_t>(minute);
    watts_[i] = p;
    cumulative_[i + 1] = cumulative_[i] + p * 60.0;  // W * 60 s
  }
}

Power SolarTrace::power_at(Time t) const {
  const Time in_period = ((t % period()) + period()) % period();
  const auto minute = std::min(static_cast<std::size_t>(in_period / Time::from_minutes(1.0)),
                               kMinutesPerYear - 1);
  require_days(static_cast<int>(minute / kMinutesPerDay) + 1);
  return Power::from_watts(watts_[minute]);
}

double SolarTrace::cumulative_joules(Time t_in_period) const {
  const double minutes = t_in_period.seconds() / 60.0;
  const auto idx = static_cast<std::size_t>(minutes);
  if (idx >= kMinutesPerYear) return total_joules_;
  const double frac = minutes - static_cast<double>(idx);
  return cumulative_[idx] + watts_[idx] * 60.0 * frac;
}

Energy SolarTrace::energy_between(Time t0, Time t1) const {
  if (t1 < t0) throw std::invalid_argument{"SolarTrace::energy_between: t1 < t0"};
  const Time p = period();
  const std::int64_t whole_periods = (t1 - t0) / p;
  const Time a = ((t0 % p) + p) % p;
  Time b = a + ((t1 - t0) % p);
  // A span that covers a whole period or reaches the period's end reads
  // total_joules_, which exists once the whole year does.
  require_days(whole_periods > 0 || b >= p ? kDaysPerYear : days_through(b));
  // 0.0 rather than 0 * total_joules_ (the same bits): a short span never
  // reads total_joules_, which may still be unwritten.
  double joules = whole_periods > 0 ? static_cast<double>(whole_periods) * total_joules_ : 0.0;
  if (b <= p) {
    joules += cumulative_joules(b) - cumulative_joules(a);
  } else {
    joules += (total_joules_ - cumulative_joules(a)) + cumulative_joules(b - p);
  }
  return Energy::from_joules(joules);
}

void SolarTrace::energy_windows(Time start, Time window, int n, Energy* out) const {
  if (window <= Time::zero()) {
    throw std::invalid_argument{"SolarTrace::energy_windows: window must be positive"};
  }
  const Time p = period();
  const std::int64_t whole_periods = window / p;
  const Time rem = window % p;
  Time a = ((start % p) + p) % p;
  // One check for the whole sweep, at its farthest boundary a + n*rem. The
  // sweep reaches the period's end (and so total_joules_) exactly when
  // n > floor((p - a - 1us) / rem); the division keeps n*rem from
  // overflowing.
  const bool reaches_end =
      whole_periods > 0 || (p - a - Time::from_us(1)) / rem < static_cast<std::int64_t>(n);
  require_days(reaches_end ? kDaysPerYear : days_through(a + rem * std::int64_t{n}));
  const double whole =
      whole_periods > 0 ? static_cast<double>(whole_periods) * total_joules_ : 0.0;
  // Walk the boundaries once: window i ends where window i+1 starts, with
  // the identical reduced-time argument, so each cumulative_joules value is
  // computed once and reused — the arithmetic per window matches
  // energy_between term for term.
  double cj_a = cumulative_joules(a);
  for (int i = 0; i < n; ++i) {
    double joules = whole;
    const Time b = a + rem;
    if (b <= p) {
      const double cj_b = cumulative_joules(b);
      joules += cj_b - cj_a;
      if (b == p) {
        // The next window starts at the wrapped origin, where the
        // cumulative integral restarts from exactly zero.
        a = Time::zero();
        cj_a = 0.0;
      } else {
        a = b;
        cj_a = cj_b;
      }
    } else {
      const Time a_next = b - p;
      const double cj_next = cumulative_joules(a_next);
      joules += (total_joules_ - cj_a) + cj_next;
      a = a_next;
      cj_a = cj_next;
    }
    out[i] = Energy::from_joules(joules);
  }
}

Harvester::Harvester(const SolarTrace& trace, double panel_scale)
    : trace_{&trace}, panel_scale_{panel_scale} {
  if (panel_scale <= 0.0) throw std::invalid_argument{"Harvester: panel_scale must be positive"};
}

void Harvester::resample_jitter(Rng& rng, double spread) {
  spread = std::clamp(spread, 0.0, 1.0);
  jitter_ = rng.uniform(1.0 - spread, 1.0);
}

Energy Harvester::energy_between(Time t0, Time t1) const {
  return trace_->energy_between(t0, t1) * (panel_scale_ * jitter_);
}

void Harvester::energy_windows(Time start, Time window, int n, Energy* out) const {
  trace_->energy_windows(start, window, n, out);
  for (int i = 0; i < n; ++i) out[i] = out[i] * (panel_scale_ * jitter_);
}

}  // namespace blam
