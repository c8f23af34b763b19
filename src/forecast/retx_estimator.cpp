#include "forecast/retx_estimator.hpp"

#include <algorithm>
#include <stdexcept>

namespace blam {

RetxEstimator::RetxEstimator(std::size_t max_windows, int max_retx) : max_retx_{max_retx} {
  if (max_windows == 0) throw std::invalid_argument{"RetxEstimator: need at least one window"};
  if (max_retx < 0) throw std::invalid_argument{"RetxEstimator: max_retx must be >= 0"};
  selections_.assign(max_windows, 0);
  retx_sum_.assign(max_windows, 0);
  histogram_.assign(max_windows * width(), 0);
}

void RetxEstimator::throw_window_out_of_range() {
  throw std::out_of_range{"RetxEstimator: window out of range"};
}

void RetxEstimator::record(std::size_t t, int retx) {
  if (t >= selections_.size()) {
    throw std::out_of_range{"RetxEstimator::record: window out of range"};
  }
  retx = std::clamp(retx, 0, max_retx_);
  ++histogram_[t * width() + static_cast<std::size_t>(retx)];
  ++selections_[t];
  retx_sum_[t] += static_cast<std::uint64_t>(retx);
}

double RetxEstimator::probability_at_most(int r, std::size_t t) const {
  check(t);
  if (r < 0) return 0.0;
  if (selections_[t] == 0) return 1.0;
  r = std::min(r, max_retx_);
  const std::span<const std::uint64_t> counts = retx_counts(t);
  std::uint64_t cumulative = 0;
  for (int i = 0; i <= r; ++i) cumulative += counts[static_cast<std::size_t>(i)];
  return static_cast<double>(cumulative) / static_cast<double>(selections_[t]);
}

std::uint64_t RetxEstimator::selections(std::size_t t) const {
  check(t);
  return selections_[t];
}

std::uint64_t RetxEstimator::retx_sum(std::size_t t) const {
  check(t);
  return retx_sum_[t];
}

std::span<const std::uint64_t> RetxEstimator::retx_counts(std::size_t t) const {
  check(t);
  return std::span<const std::uint64_t>{histogram_}.subspan(t * width(), width());
}

void RetxEstimator::reset() {
  std::ranges::fill(selections_, 0);
  std::ranges::fill(retx_sum_, 0);
  std::ranges::fill(histogram_, 0);
}

bool RetxEstimator::restore_count(std::size_t t, std::size_t r, std::uint64_t count) {
  check(t);
  if (r >= width() || histogram_[t * width() + r] != 0) return false;
  // Overflow-checked: a damaged stream must not wrap the totals around.
  std::uint64_t selections = 0;
  std::uint64_t weighted = 0;
  std::uint64_t retx_sum = 0;
  if (__builtin_add_overflow(selections_[t], count, &selections) ||
      __builtin_mul_overflow(count, r, &weighted) ||
      __builtin_add_overflow(retx_sum_[t], weighted, &retx_sum)) {
    return false;
  }
  histogram_[t * width() + r] = count;
  selections_[t] = selections;
  retx_sum_[t] = retx_sum;
  return true;
}

}  // namespace blam
