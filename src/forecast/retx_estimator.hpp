// Per-forecast-window retransmission estimation (paper Eq. 14).
//
// The node counts, for each forecast-window index t, how many of its
// selections of that window cost r retransmissions (I_{r,t}); S_t is the
// row's sum. P(r|t) is the empirical CDF of retransmission counts; the MAC
// uses the expected number of *transmissions* (1 + E[retx | t]) to scale its
// per-window energy estimate, steering nodes away from crowded windows.
//
// Every node keeps one, and a node sends in very few of its windows (1.46
// rows per node after six days of the city shape, at most 22 of ~38 after a
// year), so the history is sparse: one vector of rows sorted by window, each
// holding its window's counts and cached expected transmissions, which
// record() and restore_count() keep current. Nothing is allocated before a
// node's first record(), and a window without a row answers with zero
// counts and 1.0 transmissions. fill_tx_cost() fills the cost of every
// window and then patches only the rows, so a period reads no dense row.
#pragma once

#include <array>
#include <cstddef>
#include <cstdint>
#include <span>
#include <vector>

#include "common/units.hpp"

namespace blam {

class RetxEstimator {
 public:
  /// LoRaWAN's cap: 7 retransmissions after the first transmission.
  static constexpr int kMaxRetxCap = 7;

  /// One forecast window's history.
  struct Row {
    std::uint32_t window{0};
    /// I_{r,t} for r in [0, max_retx]; buckets above max_retx stay 0.
    std::array<std::uint32_t, kMaxRetxCap + 1> counts{};
    // blam-ckpt: skip -- derived from the row's counts by refresh()
    double expected{1.0};
  };

  /// `max_windows`: largest forecast-window index + 1 this node can use.
  /// `max_retx`: cap on counted retransmissions, at most kMaxRetxCap
  /// (observations above the cap are clamped into it).
  explicit RetxEstimator(std::size_t max_windows, int max_retx = kMaxRetxCap);

  /// Records that a packet sent in window `t` needed `retx` retransmissions.
  /// Throws std::overflow_error, leaving the estimator untouched, if the
  /// bucket already holds 2^32 - 1.
  void record(std::size_t t, int retx);

  /// Expected number of transmissions (first + retransmissions) in window
  /// `t`, 1 + Σ r·I_{r,t} / S_t; 1.0 for windows with no history.
  [[nodiscard]] double expected_transmissions(std::size_t t) const;

  /// Window `t`'s histogram I_{r,t}, r in [0, max_retx]; zeros for windows
  /// with no history. Like rows(), valid until the next record(),
  /// restore_count() or reset().
  [[nodiscard]] std::span<const std::uint32_t> retx_counts(std::size_t t) const;

  /// Sets `cost` to one entry per window: `per_attempt` scaled by the
  /// window's expected transmissions. The per-period cost estimate the MAC
  /// weighs against each window's harvest forecast.
  void fill_tx_cost(Energy per_attempt, std::vector<Energy>& cost) const;

  /// The windows with history, in ascending window order; no row is all
  /// zero.
  [[nodiscard]] std::span<const Row> rows() const { return rows_; }
  [[nodiscard]] std::size_t max_windows() const { return max_windows_; }
  [[nodiscard]] int max_retx() const { return max_retx_; }

  /// Forgets every window's history (crash reboot: the history is volatile
  /// MCU state).
  void reset();

  /// Installs a checkpointed count I_{r,t} into an empty bucket, the way
  /// `count` calls to record() would. Returns false, leaving the estimator
  /// untouched, if `r` > max_retx, the bucket already holds a count, or
  /// `count` exceeds 2^32 - 1.
  [[nodiscard]] bool restore_count(std::size_t t, std::size_t r, std::uint64_t count);

 private:
  [[nodiscard]] std::size_t width() const { return static_cast<std::size_t>(max_retx_) + 1; }
  /// Throws std::out_of_range for t >= max_windows().
  void check(std::size_t t) const;
  /// Index of the first row whose window is not below `t`.
  [[nodiscard]] std::size_t position(std::size_t t) const;
  /// Window `t`'s row, or nullptr if it has no history.
  [[nodiscard]] const Row* find(std::size_t t) const;
  /// Window `t`'s row, inserted empty in window order if it has none.
  [[nodiscard]] Row& row_for(std::size_t t);

  std::vector<Row> rows_;
  std::uint32_t max_windows_;
  // blam-ckpt: skip -- construction input (kMaxTransmissions); the sparse rows carry the counts
  int max_retx_;
};

}  // namespace blam
