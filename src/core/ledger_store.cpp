#include "core/ledger_store.hpp"

#include <stdexcept>

namespace blam {

LedgerStore::LedgerStore(const DegradationModel& model, double temperature_c,
                         std::uint32_t held_slots)
    : model_{model},
      default_temperature_c_{temperature_c},
      k6_{model.params().k6},
      held_slots_{held_slots} {}

NodeHandle LedgerStore::add_node() {
  const auto handle = static_cast<NodeHandle>(size());
  closed_cycle_sum_.push_back(0.0);
  last_time_.push_back(Time::zero());
  last_soc_.push_back(0.0);
  has_sample_.push_back(0);
  soc_time_integral_.push_back(0.0);
  stress_time_integral_.push_back(0.0);
  stress_integrated_to_.push_back(Time::zero());
  temperature_c_.push_back(default_temperature_c_);
  temp_stress_.push_back(model_.temperature_stress(default_temperature_c_));
  discontinuities_.push_back(0);
  rf_full_cycles_.push_back(0);
  rf_has_last_.push_back(0);
  rf_prev_direction_.push_back(0.0);
  rf_last_.push_back(0.0);
  rainflow_stack_.emplace_back();
  residual_cache_.push_back(0.0);
  residual_cache_valid_.push_back(0);
  held_count_.push_back(0);
  held_seq_.resize(held_seq_.size() + held_slots_, 0);
  held_samples_.resize(held_samples_.size() + held_slots_);
  return handle;
}

void LedgerStore::reserve(std::size_t rows) {
  const auto reserve_rows = [](std::size_t n, auto&... columns) { (columns.reserve(n), ...); };
  reserve_rows(rows, closed_cycle_sum_, last_time_, last_soc_, has_sample_, soc_time_integral_,
               stress_time_integral_, stress_integrated_to_, temperature_c_, temp_stress_,
               discontinuities_, rf_full_cycles_, rf_has_last_, rf_prev_direction_, rf_last_,
               rainflow_stack_, residual_cache_, residual_cache_valid_, held_count_);
  reserve_rows(rows * held_slots_, held_seq_, held_samples_);
}

void LedgerStore::reset() {
  *this = LedgerStore{model_, default_temperature_c_, held_slots_};
}

// --- tracker arithmetic (operand-for-operand from DegradationTracker) ------

void LedgerStore::record(NodeHandle h, Time t, double soc) {
  if (has_sample_[h] != 0) {
    if (t < last_time_[h]) throw std::invalid_argument{"LedgerStore: time went backwards"};
    // Trapezoidal SoC-time integral: SoC ramps (dis)charge roughly linearly
    // between transition points.
    soc_time_integral_[h] += 0.5 * (last_soc_[h] + soc) * (t - last_time_[h]).seconds();
  }
  if (t > stress_integrated_to_[h]) {
    stress_time_integral_[h] += temp_stress_[h] * (t - stress_integrated_to_[h]).seconds();
    stress_integrated_to_[h] = t;
  }
  rainflow_push(h, soc);
  last_time_[h] = t;
  last_soc_[h] = soc;
  has_sample_[h] = 1;
  residual_cache_valid_[h] = 0;
}

void LedgerStore::mark_discontinuity(NodeHandle h) {
  if (has_sample_[h] == 0) return;
  rainflow_seal_residual(h);
  ++discontinuities_[h];
  residual_cache_valid_[h] = 0;
}

double LedgerStore::calendar_linear(NodeHandle h, Time now) const {
  if (has_sample_[h] == 0) return 0.0;
  // phi_bar over the observed trace; the battery existed from time zero.
  double integral = soc_time_integral_[h];
  const double elapsed = now.seconds();
  if (now > last_time_[h]) integral += last_soc_[h] * (now - last_time_[h]).seconds();
  if (elapsed <= 0.0) return 0.0;
  const double phi_bar = integral / elapsed;

  // Stress-time integral extended virtually to `now` at the current stress.
  double stress_integral = stress_time_integral_[h];
  if (now > stress_integrated_to_[h]) {
    stress_integral += temp_stress_[h] * (now - stress_integrated_to_[h]).seconds();
  }
  const DegradationParams& p = model_.params();
  return p.k1 * stress_integral * std::exp(p.k2 * (phi_bar - p.k3));
}

double LedgerStore::cycle_linear(NodeHandle h) const {
  double sum = closed_cycle_sum_[h];
  for_each_residual(h, [this, h, &sum](double range, double mean, double weight) {
    sum += weight * range * mean * k6_ * temp_stress_[h];
  });
  return sum;
}

double LedgerStore::degradation_at(NodeHandle h, Time now) {
  // The cache holds the WHOLE cycle_linear value, not just the residual
  // share: FP addition is non-associative, so splitting the left-associated
  // closed + r1 + r2 + ... chain would perturb the last bits. The closed
  // sum only changes under record()/seal, which invalidate the cache, so
  // caching the full chain is bit-exact.
  if (residual_cache_valid_[h] == 0) {
    residual_cache_[h] = cycle_linear(h);
    residual_cache_valid_[h] = 1;
  }
  return model_.nonlinear(calendar_linear(h, now) + residual_cache_[h]);
}

std::size_t LedgerStore::clean_rows() const {
  std::size_t clean = 0;
  for (const std::uint8_t valid : residual_cache_valid_) clean += valid;
  return clean;
}

// --- rainflow machine (operand-for-operand from RainflowCounter) -----------

void LedgerStore::rainflow_push(NodeHandle h, double soc) {
  if (rf_has_last_[h] == 0) {
    rf_last_[h] = soc;
    rf_has_last_[h] = 1;
    return;
  }
  const double diff = soc - rf_last_[h];
  if (diff == 0.0) return;  // plateau: direction unchanged
  const double direction = diff > 0.0 ? 1.0 : -1.0;
  if (rf_prev_direction_[h] == 0.0) {
    // Second distinct sample: the very first sample is a turning point.
    rainflow_accept_turning_point(h, rf_last_[h]);
  } else if (direction != rf_prev_direction_[h]) {
    // Direction change: the previous sample was a local extremum.
    rainflow_accept_turning_point(h, rf_last_[h]);
  }
  rf_prev_direction_[h] = direction;
  rf_last_[h] = soc;
}

void LedgerStore::rainflow_accept_turning_point(NodeHandle h, double value) {
  rainflow_arena_.push_back(rainflow_stack_[h], value);
  rainflow_collapse(h);
}

void LedgerStore::rainflow_collapse(NodeHandle h) {
  // ASTM E1049 four-point rule: with the four most recent turning points
  // X1..X4, the inner pair (X2, X3) closes a full cycle when its range is
  // no larger than both neighbours' ranges.
  SpanArena<double>::Ref& ref = rainflow_stack_[h];
  while (ref.size >= 4) {
    const std::uint32_t n = ref.size;
    const double x1 = rainflow_arena_.at(ref, n - 4);
    const double x2 = rainflow_arena_.at(ref, n - 3);
    const double x3 = rainflow_arena_.at(ref, n - 2);
    const double x4 = rainflow_arena_.at(ref, n - 1);
    const double r1 = std::abs(x2 - x1);
    const double r2 = std::abs(x3 - x2);
    const double r3 = std::abs(x4 - x3);
    if (r2 > r1 || r2 > r3) break;
    add_cycle(h, 1.0, r2, 0.5 * (x2 + x3));
    ++rf_full_cycles_[h];
    rainflow_arena_.at(ref, n - 3) = x4;  // drop X2, X3; X4 slides down
    rainflow_arena_.shrink(ref, 2);
  }
}

void LedgerStore::rainflow_seal_residual(NodeHandle h) {
  // The residual half cycles become permanent (weight 0.5, same
  // accumulation formula); then turning-point detection restarts.
  for_each_residual(h, [this, h](double range, double mean, double weight) {
    add_cycle(h, weight, range, mean);
  });
  rainflow_arena_.clear(rainflow_stack_[h]);
  rf_has_last_[h] = 0;
  rf_prev_direction_[h] = 0.0;
  rf_last_[h] = 0.0;
}

// --- held-report slots ------------------------------------------------------

void LedgerStore::held_insert(NodeHandle h, std::uint32_t slot, std::uint16_t seq,
                              std::span<const SocSample> samples) {
  const std::uint32_t count = held_count_[h];
  if (count >= held_slots_ || slot > count) {
    throw std::logic_error{"LedgerStore: held-slot insert out of bounds"};
  }
  // Shift later slots up; the vacated slot's Ref is overwritten wholesale.
  for (std::uint32_t i = count; i > slot; --i) {
    held_seq_[slot_index(h, i)] = held_seq_[slot_index(h, i - 1)];
    held_samples_[slot_index(h, i)] = held_samples_[slot_index(h, i - 1)];
  }
  held_seq_[slot_index(h, slot)] = seq;
  held_samples_[slot_index(h, slot)] = {};
  sample_arena_.assign(held_samples_[slot_index(h, slot)], samples);
  ++held_count_[h];
}

void LedgerStore::held_remove(NodeHandle h, std::uint32_t slot) {
  const std::uint32_t count = held_count_[h];
  if (slot >= count) throw std::logic_error{"LedgerStore: held-slot remove out of bounds"};
  sample_arena_.release(held_samples_[slot_index(h, slot)]);
  for (std::uint32_t i = slot; i + 1 < count; ++i) {
    held_seq_[slot_index(h, i)] = held_seq_[slot_index(h, i + 1)];
    held_samples_[slot_index(h, i)] = held_samples_[slot_index(h, i + 1)];
  }
  held_samples_[slot_index(h, count - 1)] = {};
  --held_count_[h];
}

void LedgerStore::held_clear(NodeHandle h) {
  while (held_count_[h] > 0) held_remove(h, held_count_[h] - 1);
}

// --- checkpoint interchange -------------------------------------------------

DegradationTracker::Snapshot LedgerStore::snapshot(NodeHandle h) const {
  DegradationTracker::Snapshot s;
  const std::span<const double> stack = rainflow_arena_.view(rainflow_stack_[h]);
  s.rainflow.stack.assign(stack.begin(), stack.end());
  s.rainflow.last = rf_last_[h];
  s.rainflow.prev_direction = rf_prev_direction_[h];
  s.rainflow.has_last = rf_has_last_[h] != 0;
  s.rainflow.full_cycles = rf_full_cycles_[h];
  s.closed_cycle_sum = closed_cycle_sum_[h];
  s.last_time = last_time_[h];
  s.last_soc = last_soc_[h];
  s.has_sample = has_sample_[h] != 0;
  s.soc_time_integral = soc_time_integral_[h];
  s.stress_time_integral = stress_time_integral_[h];
  s.stress_integrated_to = stress_integrated_to_[h];
  s.temperature_c = temperature_c_[h];
  s.discontinuities = discontinuities_[h];
  return s;
}

void LedgerStore::restore(NodeHandle h, const DegradationTracker::Snapshot& snapshot) {
  rainflow_arena_.assign(rainflow_stack_[h], snapshot.rainflow.stack);
  rf_last_[h] = snapshot.rainflow.last;
  rf_prev_direction_[h] = snapshot.rainflow.prev_direction;
  rf_has_last_[h] = snapshot.rainflow.has_last ? 1 : 0;
  rf_full_cycles_[h] = snapshot.rainflow.full_cycles;
  closed_cycle_sum_[h] = snapshot.closed_cycle_sum;
  last_time_[h] = snapshot.last_time;
  last_soc_[h] = snapshot.last_soc;
  has_sample_[h] = snapshot.has_sample ? 1 : 0;
  soc_time_integral_[h] = snapshot.soc_time_integral;
  stress_time_integral_[h] = snapshot.stress_time_integral;
  stress_integrated_to_[h] = snapshot.stress_integrated_to;
  temperature_c_[h] = snapshot.temperature_c;
  temp_stress_[h] = model_.temperature_stress(snapshot.temperature_c);
  discontinuities_[h] = snapshot.discontinuities;
  residual_cache_valid_[h] = 0;
}

}  // namespace blam
