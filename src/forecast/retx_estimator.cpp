#include "forecast/retx_estimator.hpp"

#include <algorithm>
#include <limits>
#include <stdexcept>

namespace blam {

RetxEstimator::RetxEstimator(std::size_t max_windows, int max_retx) : max_retx_{max_retx} {
  if (max_windows == 0) throw std::invalid_argument{"RetxEstimator: need at least one window"};
  if (max_retx < 0) throw std::invalid_argument{"RetxEstimator: max_retx must be >= 0"};
  histogram_.assign(max_windows * width(), 0);
  expected_.assign(max_windows, 1.0);
}

void RetxEstimator::throw_window_out_of_range() {
  throw std::out_of_range{"RetxEstimator: window out of range"};
}

void RetxEstimator::record(std::size_t t, int retx) {
  check(t);
  retx = std::clamp(retx, 0, max_retx_);
  std::uint32_t& bucket = histogram_[t * width() + static_cast<std::size_t>(retx)];
  if (bucket == std::numeric_limits<std::uint32_t>::max()) {
    throw std::overflow_error{"RetxEstimator::record: retx count at 2^32-1"};
  }
  ++bucket;
  refresh(t);
}

std::span<const std::uint32_t> RetxEstimator::retx_counts(std::size_t t) const {
  check(t);
  return std::span<const std::uint32_t>{histogram_}.subspan(t * width(), width());
}

void RetxEstimator::reset() {
  std::ranges::fill(histogram_, 0);
  std::ranges::fill(expected_, 1.0);
}

bool RetxEstimator::restore_count(std::size_t t, std::size_t r, std::uint64_t count) {
  check(t);
  if (r >= width() || histogram_[t * width() + r] != 0 ||
      count > std::numeric_limits<std::uint32_t>::max()) {
    return false;
  }
  histogram_[t * width() + r] = static_cast<std::uint32_t>(count);
  refresh(t);
  return true;
}

void RetxEstimator::refresh(std::size_t t) {
  // Totals in u64: at the LoRaWAN cap of 7, a full row sums to at most
  // 28 × 2^32 (Σ r) and 8 × 2^32 (S_t).
  std::uint64_t selections = 0;
  std::uint64_t retx_sum = 0;
  const std::span<const std::uint32_t> counts = retx_counts(t);
  for (std::size_t r = 0; r < counts.size(); ++r) {
    selections += counts[r];
    retx_sum += r * counts[r];
  }
  expected_[t] = selections == 0
                     ? 1.0
                     : 1.0 + static_cast<double>(retx_sum) / static_cast<double>(selections);
}

}  // namespace blam
