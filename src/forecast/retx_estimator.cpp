#include "forecast/retx_estimator.hpp"

#include <algorithm>
#include <limits>
#include <stdexcept>

namespace blam {

namespace {

constexpr std::array<std::uint32_t, RetxEstimator::kMaxRetxCap + 1> kNoHistory{};

/// Recomputes the row's expected transmissions from its counts. Totals in
/// u64: at the cap of 7, a full row sums to at most 28 × 2^32 (Σ r) and
/// 8 × 2^32 (S_t).
void refresh(RetxEstimator::Row& row) {
  std::uint64_t selections = 0;
  std::uint64_t retx_sum = 0;
  for (std::size_t r = 0; r < row.counts.size(); ++r) {
    selections += row.counts[r];
    retx_sum += r * row.counts[r];
  }
  row.expected = 1.0 + static_cast<double>(retx_sum) / static_cast<double>(selections);
}

}  // namespace

RetxEstimator::RetxEstimator(std::size_t max_windows, int max_retx)
    : max_windows_{static_cast<std::uint32_t>(max_windows)}, max_retx_{max_retx} {
  if (max_windows == 0) throw std::invalid_argument{"RetxEstimator: need at least one window"};
  if (max_windows > std::numeric_limits<std::uint32_t>::max()) {
    throw std::invalid_argument{"RetxEstimator: more windows than a u32 indexes"};
  }
  if (max_retx < 0 || max_retx > kMaxRetxCap) {
    throw std::invalid_argument{"RetxEstimator: max_retx must be in [0, 7]"};
  }
}

void RetxEstimator::check(std::size_t t) const {
  if (t >= max_windows_) throw std::out_of_range{"RetxEstimator: window out of range"};
}

std::size_t RetxEstimator::position(std::size_t t) const {
  return static_cast<std::size_t>(std::ranges::lower_bound(rows_, t, {}, &Row::window) -
                                  rows_.begin());
}

const RetxEstimator::Row* RetxEstimator::find(std::size_t t) const {
  check(t);
  const std::size_t i = position(t);
  return i < rows_.size() && rows_[i].window == t ? &rows_[i] : nullptr;
}

RetxEstimator::Row& RetxEstimator::row_for(std::size_t t) {
  const std::size_t i = position(t);
  if (i < rows_.size() && rows_[i].window == t) return rows_[i];
  return *rows_.insert(rows_.begin() + static_cast<std::ptrdiff_t>(i),
                       Row{.window = static_cast<std::uint32_t>(t)});
}

void RetxEstimator::record(std::size_t t, int retx) {
  check(t);
  Row& row = row_for(t);
  // A new row's buckets are all zero, so only an existing row can refuse.
  std::uint32_t& bucket = row.counts[static_cast<std::size_t>(std::clamp(retx, 0, max_retx_))];
  if (bucket == std::numeric_limits<std::uint32_t>::max()) {
    throw std::overflow_error{"RetxEstimator::record: retx count at 2^32-1"};
  }
  ++bucket;
  refresh(row);
}

double RetxEstimator::expected_transmissions(std::size_t t) const {
  const Row* row = find(t);
  return row != nullptr ? row->expected : 1.0;
}

std::span<const std::uint32_t> RetxEstimator::retx_counts(std::size_t t) const {
  const Row* row = find(t);
  return std::span{row != nullptr ? row->counts : kNoHistory}.first(width());
}

void RetxEstimator::fill_tx_cost(Energy per_attempt, std::vector<Energy>& cost) const {
  // A window without history expects one transmission, and x * 1.0 == x,
  // so the rows are the only windows that need the product.
  cost.assign(max_windows_, per_attempt);
  for (const Row& row : rows_) cost[row.window] = per_attempt * row.expected;
}

void RetxEstimator::reset() { rows_.clear(); }

bool RetxEstimator::restore_count(std::size_t t, std::size_t r, std::uint64_t count) {
  check(t);
  if (r >= width() || retx_counts(t)[r] != 0 ||
      count > std::numeric_limits<std::uint32_t>::max()) {
    return false;
  }
  if (count == 0) return true;  // an empty bucket gets no row
  Row& row = row_for(t);
  row.counts[r] = static_cast<std::uint32_t>(count);
  refresh(row);
  return true;
}

}  // namespace blam
