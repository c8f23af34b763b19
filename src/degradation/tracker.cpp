#include "degradation/tracker.hpp"

#include <cmath>
#include <stdexcept>

#include "common/state_codec.hpp"

namespace blam {

DegradationTracker::DegradationTracker(const DegradationModel& model, double temperature_c)
    : model_{&model},
      temperature_c_{temperature_c},
      temp_stress_{model.temperature_stress(temperature_c)},
      rainflow_{[this](const RainflowCycle& cycle) {
        // Inline cycle_aging_term with the cached temperature stress: this
        // fires for every closed cycle on the simulation hot path.
        closed_cycle_sum_ += cycle.weight * cycle.range * cycle.mean * model_->params().k6 * temp_stress_;
      }} {}

void DegradationTracker::advance_stress_integral(Time t) {
  if (t <= stress_integrated_to_) return;
  stress_time_integral_ += temp_stress_ * (t - stress_integrated_to_).seconds();
  stress_integrated_to_ = t;
}

void DegradationTracker::set_temperature(Time t, double temperature_c) {
  if (t < stress_integrated_to_) {
    throw std::invalid_argument{"DegradationTracker::set_temperature: time went backwards"};
  }
  advance_stress_integral(t);  // close the integral at the old stress
  temperature_c_ = temperature_c;
  temp_stress_ = model_->temperature_stress(temperature_c);
}

void DegradationTracker::record(Time t, double soc) {
  if (has_sample_) {
    if (t < last_time_) throw std::invalid_argument{"DegradationTracker: time went backwards"};
    // Trapezoidal SoC-time integral: SoC ramps (dis)charge roughly linearly
    // between transition points.
    soc_time_integral_ += 0.5 * (last_soc_ + soc) * (t - last_time_).seconds();
  }
  advance_stress_integral(t);
  rainflow_.push(soc);
  last_time_ = t;
  last_soc_ = soc;
  has_sample_ = true;
}

void DegradationTracker::mark_discontinuity() {
  if (!has_sample_) return;
  rainflow_.seal_residual();
  ++discontinuities_;
}

DegradationTracker::Snapshot DegradationTracker::snapshot() const {
  Snapshot s;
  s.rainflow = rainflow_.state();
  s.closed_cycle_sum = closed_cycle_sum_;
  s.last_time = last_time_;
  s.last_soc = last_soc_;
  s.has_sample = has_sample_;
  s.soc_time_integral = soc_time_integral_;
  s.stress_time_integral = stress_time_integral_;
  s.stress_integrated_to = stress_integrated_to_;
  s.temperature_c = temperature_c_;
  s.discontinuities = discontinuities_;
  return s;
}

void DegradationTracker::restore(const Snapshot& snapshot) {
  rainflow_.restore(snapshot.rainflow);
  closed_cycle_sum_ = snapshot.closed_cycle_sum;
  last_time_ = snapshot.last_time;
  last_soc_ = snapshot.last_soc;
  has_sample_ = snapshot.has_sample;
  soc_time_integral_ = snapshot.soc_time_integral;
  stress_time_integral_ = snapshot.stress_time_integral;
  stress_integrated_to_ = snapshot.stress_integrated_to;
  temperature_c_ = snapshot.temperature_c;
  temp_stress_ = model_->temperature_stress(snapshot.temperature_c);
  discontinuities_ = snapshot.discontinuities;
}

double DegradationTracker::mean_soc() const {
  if (!has_sample_) return 0.0;
  const double elapsed = last_time_.seconds();
  if (elapsed <= 0.0) return last_soc_;
  return soc_time_integral_ / elapsed;
}

double DegradationTracker::calendar_linear(Time now) const {
  if (!has_sample_) return 0.0;
  // phi_bar over the observed trace; the battery existed from time zero.
  double integral = soc_time_integral_;
  const double elapsed = now.seconds();
  if (now > last_time_) integral += last_soc_ * (now - last_time_).seconds();
  if (elapsed <= 0.0) return 0.0;
  const double phi_bar = integral / elapsed;

  // Stress-time integral extended virtually to `now` at the current stress.
  double stress_integral = stress_time_integral_;
  if (now > stress_integrated_to_) {
    stress_integral += temp_stress_ * (now - stress_integrated_to_).seconds();
  }
  const DegradationParams& p = model_->params();
  return p.k1 * stress_integral * std::exp(p.k2 * (phi_bar - p.k3));
}

double DegradationTracker::cycle_linear() const {
  double sum = closed_cycle_sum_;
  rainflow_.for_each_residual([this, &sum](const RainflowCycle& cycle) {
    sum += cycle.weight * cycle.range * cycle.mean * model_->params().k6 * temp_stress_;
  });
  return sum;
}

double DegradationTracker::degradation(Time now) const {
  return model_->nonlinear(calendar_linear(now) + cycle_linear());
}

void write_tracker(StateWriter& w, const DegradationTracker::Snapshot& s) {
  w.put_double(s.closed_cycle_sum);
  w.put_i64(s.last_time.us());
  w.put_double(s.last_soc);
  w.put_u64(s.has_sample ? 1 : 0);
  w.put_double(s.soc_time_integral);
  w.put_double(s.stress_time_integral);
  w.put_i64(s.stress_integrated_to.us());
  w.put_double(s.temperature_c);
  w.put_u64(s.discontinuities);
  w.put_u64(s.rainflow.full_cycles);
  w.put_u64(s.rainflow.has_last ? 1 : 0);
  w.put_double(s.rainflow.prev_direction);
  w.put_double(s.rainflow.last);
  w.put_u64(s.rainflow.stack.size());
  for (const double point : s.rainflow.stack) w.put_double(point);
}

DegradationTracker::Snapshot read_tracker(StateReader& r) {
  DegradationTracker::Snapshot s;
  s.closed_cycle_sum = r.get_double();
  s.last_time = Time::from_us(r.get_i64());
  s.last_soc = r.get_double();
  s.has_sample = r.get_u64() != 0;
  s.soc_time_integral = r.get_double();
  s.stress_time_integral = r.get_double();
  s.stress_integrated_to = Time::from_us(r.get_i64());
  s.temperature_c = r.get_double();
  s.discontinuities = r.get_u64();
  s.rainflow.full_cycles = r.get_u64();
  s.rainflow.has_last = r.get_u64() != 0;
  s.rainflow.prev_direction = r.get_double();
  s.rainflow.last = r.get_double();
  const std::uint64_t depth = r.get_u64();
  for (std::uint64_t p = 0; p < depth; ++p) s.rainflow.stack.push_back(r.get_double());
  return s;
}

}  // namespace blam
